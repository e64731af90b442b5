"""Correctness gate: checks each operation's output against a reference.

Every check returns a ``Verdict``. ``failed`` counts operations that did not
produce their result or produced one outside its tolerance; ``wrong`` counts
the subset that the program did not report as an error itself (a value out
of tolerance, a silently missing row, a crash). A run is correct when
``wrong`` is 0: a failure the program reports, such as a ``ConvergenceError``
row of the sweep, is counted in ``failed`` but is not a wrong answer.

Tolerances and their reasons:

* ``P_TOL``: ``p_series`` against ``p_theory``. The CLI prints 12 significant
  digits, so each value carries up to 5e-13 of rounding, and the series stops
  at a 1e-12 relative tail bound; 5e-12 covers both with margin.
* ``THEORY_TOL``: the printed ``p_theory`` against the paper's formula,
  rounding only.
* ``TANGLE_TOL``: the tangle comes from square roots of the eigenvalues of
  rho * rho~, which turn a 1e-16 eigenvalue error near zero into ~1e-8.
* ``WITNESS_TOL``: the witness is linear in rho, so it inherits ``P_TOL``.
* ``ORACLE_TOL``: the repository's fixed brute-force oracle tolerance.
* ``MATRIX_TOL``: matrix entries against the Werner form; series tail plus
  float rounding.
* ``ML_FIDELITY``: the fidelity floor per counts-per-setting level over the
  benchmark's (g, eta) range. Criterion 5's bar of 0.995 at 1e5 holds at its
  own state (g=1.313, eta=0.016), which ``CRITERION5_FIDELITY`` checks. Near
  pure states (p ~ 0.98 at g ~ 0.1) have eigenvalues ~ (1-p)/4 that shot noise
  of ~1/sqrt(N) moves by tens of percent, so their fidelity sits lower and
  its tail is long: when this benchmark was added, the worst of 6,128
  rounds per level was 0.841, 0.928 and 0.982 at 1e3, 1e4 and 1e5. Each
  floor allows about three times that infidelity; ``LL_SLACK`` holds the
  optimizer exactly.
* ``LL_SLACK``: the ML estimate must be at least as likely as the true state,
  which is a feasible point. The optimizer stops at a relative objective
  change of 1e-12 on |log L| ~ 3e6, far below this slack, while the truth's
  deficit is half a chi-square with 15 degrees of freedom (smallest 0.9 in
  18,000 rounds).
* ``PULL_MAX``: witness estimates, and the complete-basis sum of simulated
  counts, within 6 standard errors of theory. A benchmark campaign makes
  ~1e5 such checks, so 5 would still leave a few per cent chance of a false
  alarm; 6 leaves ~2e-4.
* ``FIT_REL``, ``FIT_SHARE``: criterion 7's bar, 95% of fits with g_max
  within 2%, is a share over the run: at 1% noise one fit misses 2% in about
  0.3% of draws. A single fit fails beyond ``FIT_SINGLE_REL`` = 5%, seven
  times the measured 0.68% scatter of g_max (worst 2.9% in 24,500 fits). The
  fit's own covariance is not used: it understates that scatter (pulls up
  to 5.4).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

P_TOL = 5e-12
THEORY_TOL = 1e-12
TANGLE_TOL = 1e-7
WITNESS_TOL = 5e-12
ORACLE_TOL = 1e-10
MATRIX_TOL = 1e-11
CRITERION5_FIDELITY = 0.995
ML_FIDELITY = {1_000: 0.5, 10_000: 0.8, 100_000: 0.95}
LL_SLACK = 1e-3
PULL_MAX = 6.0
FIT_REL = 0.02
FIT_SHARE = 0.95
FIT_SINGLE_REL = 0.05

SWEEP_HEADER = ("g", "eta", "p_theory", "p_series", "tangle",
                "linear_entropy", "witness")
_NUM = r"([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))"
_ORACLE_LINE = re.compile(
    rf"^n=(\d+) eta={_NUM}: max deviation {_NUM} (ok|FAIL)$", re.MULTILINE)
_SWEEP_ERROR = re.compile(rf"^error: g={_NUM} eta={_NUM}: ", re.MULTILINE)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, other: "Verdict") -> "Verdict":
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        return self


# An operation that raised one of the package's documented errors.
REPORTED_FAILURE = Verdict(attempted=1, failed=1, wrong=0)


def werner_p(g: float, eta: float) -> float:
    """The paper's singlet weight, 1 / (2((1-eta) tanh g)^2 + 1)."""
    return 1.0 / (2.0 * ((1.0 - eta) * math.tanh(g)) ** 2 + 1.0)


def _close(a: float, b: float, rel: float = 1e-11) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_sweep(points, stdout: str, stderr: str, returncode: int) -> Verdict:
    """One operation per (g, eta) point; rows arrive in grid order.

    A missing row is a failure; it is a reported one when stderr carries the
    CLI's ``error: g=.. eta=..`` line for that point.
    """
    from spdc_werner.metrics import WernerDescriptor

    def row_ok(row, g, eta):
        p = werner_p(g, eta)
        ref = WernerDescriptor(p)
        return (abs(row["p_theory"] - p) <= THEORY_TOL
                and abs(row["p_series"] - row["p_theory"]) <= P_TOL
                and abs(row["tangle"] - ref.tangle) <= TANGLE_TOL
                and abs(row["witness"] - ref.witness_value) <= WITNESS_TOL)

    v = Verdict(attempted=len(points))
    try:
        reader = csv.DictReader(io.StringIO(stdout))
        rows = ([{k: float(x) for k, x in row.items()} for row in reader]
                if tuple(reader.fieldnames or ()) == SWEEP_HEADER else [])
    except (csv.Error, TypeError, ValueError):  # a malformed file: every row missing
        rows = []
    reported = {(float(g), float(e)) for g, e in _SWEEP_ERROR.findall(stderr)}
    it = iter(rows)
    row = next(it, None)
    for g, eta in points:
        if row is not None and _close(row["g"], g) and _close(row["eta"], eta):
            if not row_ok(row, g, eta):
                v.failed += 1
                v.wrong += 1
            row = next(it, None)
        else:
            v.failed += 1
            if not any(_close(g, rg) and _close(eta, re_) for rg, re_ in reported):
                v.wrong += 1
    if row is not None:  # rows nobody asked for
        v.wrong += 1
    if returncode != 0 and v.failed == 0:
        v.failed += 1
        v.wrong += 1
    return v


def check_oracle(blocks, stdout: str, returncode: int) -> Verdict:
    """One operation per (n, eta) block; each deviation within ``ORACLE_TOL``."""
    v = Verdict(attempted=len(blocks))
    found = {}
    for n, eta, dev, _status in _ORACLE_LINE.findall(stdout):
        found.setdefault(int(n), []).append((float(eta), float(dev)))
    for n, eta in blocks:
        match = [dev for e, dev in found.get(n, []) if _close(e, eta, 1e-11)]
        if not match or match[0] > ORACLE_TOL:
            v.failed += 1
            v.wrong += 1
    if returncode != 0 and v.failed == 0:
        v.failed += 1
        v.wrong += 1
    return v


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _single(ok: bool) -> Verdict:
    return Verdict(attempted=1, failed=int(not ok), wrong=int(not ok))


def check_matrix(g: float, eta: float, path: Path, returncode: int) -> Verdict:
    """The exported state equals p |singlet><singlet| + (1-p) I / 4."""
    data = _load_json(path)
    if returncode != 0 or data is None:
        return _single(False)
    p = werner_p(g, eta)
    diag = (1.0 - p) / 4.0
    expected = [[diag, 0, 0, 0],
                [0, diag + p / 2, -p / 2, 0],
                [0, -p / 2, diag + p / 2, 0],
                [0, 0, 0, diag]]
    try:
        ok = data["basis"] == ["HH", "HV", "VH", "VV"] and all(
            abs(data["re"][i][j] - expected[i][j]) <= MATRIX_TOL
            and abs(data["im"][i][j]) <= MATRIX_TOL
            for i in range(4) for j in range(4)
        )
    except (KeyError, IndexError, TypeError):
        ok = False
    return _single(ok)


def read_counts(path: Path) -> dict[str, tuple[int, str]] | None:
    """Counts CSV as {label: (counts, seed)}, or None when unreadable."""
    try:
        with open(path, newline="") as handle:
            return {row["label"]: (int(row["counts"]), row["seed"])
                    for row in csv.DictReader(handle)}
    except (OSError, KeyError, ValueError):
        return None


def check_counts(path: Path, n_settings: int, seed: int, per_setting: int,
                 returncode: int) -> Verdict:
    """Right number of settings, the seed recorded, and the complete basis
    summing to the flux within ``PULL_MAX`` Poisson standard deviations."""
    rows = read_counts(path)
    if returncode != 0 or rows is None or len(rows) != n_settings:
        return _single(False)
    total = sum(rows[lab][0] for lab in ("HH", "HV", "VH", "VV") if lab in rows)
    ok = (all(c >= 0 and s == str(seed) for c, s in rows.values())
          and abs(total - per_setting) <= PULL_MAX * math.sqrt(per_setting))
    return _single(ok)


def witness_pull(counts: dict[str, int], p: float) -> float:
    """(W_hat - W_theory) / stderr for the 8-setting witness protocol."""
    signed = {"HH": 1.0, "VV": 1.0, "DD": 1.0, "FF": 1.0, "LR": -1.0, "RL": -1.0}
    n_total = float(sum(counts[lab] for lab in ("HH", "HV", "VH", "VV")))
    numerator = sum(sign * counts[lab] for lab, sign in signed.items())
    variance = 0.0
    for lab, c in counts.items():
        deriv = signed.get(lab, 0.0) / (2.0 * n_total)
        if lab in ("HH", "HV", "VH", "VV"):
            deriv -= numerator / (2.0 * n_total**2)
        variance += deriv**2 * c
    return (numerator / (2.0 * n_total) - (1.0 - 3.0 * p) / 4.0) / math.sqrt(variance)


def check_witness_counts(path: Path, g: float, eta: float, seed: int,
                         per_setting: int, returncode: int) -> Verdict:
    v = check_counts(path, 8, seed, per_setting, returncode)
    if v.failed:
        return v
    counts = {lab: c for lab, (c, _s) in read_counts(path).items()}
    return _single(abs(witness_pull(counts, werner_p(g, eta))) <= PULL_MAX)


def check_reconstruct(path: Path, returncode: int) -> Verdict:
    """Criterion 5: ML fidelity to the theory state at 1e5 counts."""
    data = _load_json(path)
    if returncode != 0 or data is None:
        return _single(False)
    fid = data.get("metrics", {}).get("fidelity_vs_theory", -1.0)
    return _single(fid >= CRITERION5_FIDELITY)


def check_fit_file(path: Path, g_max: float, returncode: int) -> Verdict:
    """The demo calibration set was drawn at g_max = 1.313."""
    data = _load_json(path)
    if returncode != 0 or data is None:
        return _single(False)
    fitted = data.get("g_max")
    return _single(isinstance(fitted, float) and abs(fitted - g_max) / g_max <= FIT_REL)


def check_round(counts_level: int, fid: float, ll_ml: float, ll_truth: float,
                w_pull: float) -> Verdict:
    """One in-process tomography round trip."""
    return _single(fid >= ML_FIDELITY[counts_level]
                   and ll_ml >= ll_truth - LL_SLACK
                   and abs(w_pull) <= PULL_MAX)


def check_fit(g_max: float, truth: float) -> Verdict:
    """One in-process calibration fit."""
    return _single(abs(g_max - truth) <= FIT_SINGLE_REL * truth)
