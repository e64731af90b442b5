"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same outcomes through the test names.
"""

import math
import time

import numpy as np

from spdc_werner.calibration import fit_gain, synthetic_calibration_points
from spdc_werner.channel import (
    post_select_two_photon,
    singlet_weight,
    transmitted_reduced_state,
    two_photon_block_closed,
    two_photon_state,
)
from spdc_werner.metrics import (
    concurrence_tangle,
    fidelity,
    is_entangled_ppt,
    tangle_from_entropy_werner,
    werner_state,
    witness_expectation,
)
from spdc_werner.source import GainChannelParams, mean_photons_per_mode
from spdc_werner.tomography import (
    ml_reconstruction,
    simulate_counts,
    standard_tomography_settings,
    witness_from_counts,
    witness_settings,
)

from series_reference import pair_number_series


def _verdict(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for eta in (0.01, 0.1, 0.3, 0.5):
            brute = post_select_two_photon(transmitted_reduced_state(n, eta))
            closed = two_photon_block_closed(n, eta)
            worst = max(worst, float(np.max(np.abs(brute.entries - closed.entries))))
    elapsed = time.monotonic() - start
    _verdict(
        "1 oracle equivalence",
        worst <= 1e-10 and elapsed <= 60.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_werner_limit_identity():
    # two_photon_state is the closed form itself, so the identity is checked
    # against the pair-number series summed block by block.
    worst = 0.0
    weights = []
    for g in (0.1, 0.3, 0.5, 1.0, 1.5):
        for eta in (0.001, 0.01, 0.05):
            params = GainChannelParams(g=g, eta=eta)
            series = pair_number_series(params)
            reference = werner_state(singlet_weight(params)).entries.real
            for entry, (i, j) in (("corner", (0, 0)), ("middle", (1, 1)), ("off", (1, 2))):
                worst = max(worst, abs(getattr(series, entry) - reference[i, j]))
            weights.append(series.p)
    saturated = pair_number_series(GainChannelParams(g=20.0, eta=1e-4)).p
    ok = (
        worst <= 1e-8
        and all(p > 1.0 / 3.0 for p in weights)
        and saturated - 1.0 / 3.0 < 1e-3
    )
    _verdict(
        "2 Werner-limit identity",
        ok,
        f"worst deviation {worst:.2e}, p(g=20)-1/3 = {saturated - 1/3:.2e}",
    )


def test_criterion_3_metric_consistency():
    worst_tangle = worst_witness = 0.0
    flips_correct = True
    for p in (0.0, 0.2, 1.0 / 3.0, 0.4, 0.6, 0.8, 1.0):
        state = werner_state(p)
        _, tau = concurrence_tangle(state)
        tau_ref = tangle_from_entropy_werner(1.0 - p * p)
        worst_tangle = max(worst_tangle, abs(tau - tau_ref))
        worst_witness = max(
            worst_witness, abs(witness_expectation(state) - (1.0 - 3.0 * p) / 4.0)
        )
        flips_correct &= is_entangled_ppt(state) == (p > 1.0 / 3.0)
    ok = worst_tangle <= 1e-10 and worst_witness <= 1e-12 and flips_correct
    _verdict(
        "3 metric consistency",
        ok,
        f"tangle dev {worst_tangle:.2e}, witness dev {worst_witness:.2e}, "
        f"PPT flip at 1/3: {flips_correct}",
    )


def test_criterion_4_reported_numbers():
    n_bar = mean_photons_per_mode(1.313)
    four_mode = 4.0 * mean_photons_per_mode(1.084)
    transmitted = 0.016 * math.sinh(1.313) ** 2
    ok = (
        abs(n_bar - 2.97) <= 0.01
        and abs(four_mode - 6.85) <= 0.03
        and abs(transmitted - 0.05) <= 0.01
    )
    _verdict(
        "4 reported numbers",
        ok,
        f"sinh^2(1.313)={n_bar:.4f}, 4*sinh^2(1.084)={four_mode:.4f}, "
        f"eta*nbar={transmitted:.4f}",
    )


def test_criterion_5_tomography_round_trip():
    start = time.monotonic()
    params = GainChannelParams(g=1.313, eta=0.016)
    truth = two_photon_state(params)
    settings = standard_tomography_settings()
    fidelities = []
    for seed in range(10):
        records = simulate_counts(truth, settings, 10**5, seed=seed)
        result = ml_reconstruction(records, total_per_setting=10**5)
        fidelities.append(fidelity(result.state, truth))
    elapsed = time.monotonic() - start
    worst = min(fidelities)
    _verdict(
        "5 tomography round trip",
        worst >= 0.995 and elapsed <= 120.0,
        f"min fidelity {worst:.6f} over 10 seeds, {elapsed:.1f}s",
    )


def test_criterion_6_witness_protocol():
    params = GainChannelParams(g=1.313, eta=0.016)
    truth = two_photon_state(params)
    expected = (1.0 - 3.0 * singlet_weight(params)) / 4.0
    settings = witness_settings()
    worst_pull = 0.0
    for seed in range(20):
        records = simulate_counts(truth, settings, 10**5, seed=seed)
        estimate = witness_from_counts(records)
        worst_pull = max(worst_pull, abs(estimate.value - expected) / estimate.stderr)
    _verdict(
        "6 witness protocol",
        worst_pull <= 3.0,
        f"max |estimate - theory| = {worst_pull:.2f} sigma over 20 seeds",
    )


def test_criterion_7_calibration_fit():
    powers = np.linspace(0.05, 1.0, 12)
    hits = 0
    for seed in range(50):
        points = synthetic_calibration_points(
            1.313, {1: 0.016, 2: 0.014}, 250_000.0, powers,
            noise_fraction=0.01, seed=seed,
        )
        fit = fit_gain(points, 250_000.0)
        if abs(fit.g_max - 1.313) / 1.313 <= 0.02:
            hits += 1
    _verdict(
        "7 calibration fit",
        hits >= 48,  # 95% of 50 trials, rounded up
        f"{hits}/50 trials recovered g_max within 2%",
    )
