"""Every command in README's Command line section runs as documented."""

import shlex
import shutil
from pathlib import Path

from spdc_werner.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_commands() -> list[list[str]]:
    """The ``spdc-werner`` lines of the Command line code block, with
    backslash continuations joined, as argument lists."""
    section = README.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("spdc-werner "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPDC_WERNER_OUTDIR", raising=False)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "sweep", "matrix", "oracle-check", "tomo", "tomo", "fit",
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert "error" not in capsys.readouterr().err


def test_readme_documents_the_csv_headers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPDC_WERNER_OUTDIR", raising=False)
    main(["tomo", "simulate", "--g", "1.313", "--eta", "0.016",
          "--counts-per-setting", "100", "--seed", "1", "--out", "counts.csv"])
    counts_header = Path("counts.csv").read_text().splitlines()[0]
    calibration_header = (ROOT / "data" / "calibration_demo.csv").read_text().splitlines()[0]
    assert f"`{counts_header}`" in README
    assert f"`{calibration_header}`" in README
