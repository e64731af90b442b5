"""The CSV format rules shared by the counts and calibration files."""

import re

import pytest

from spdc_werner import _csv
from spdc_werner.calibration import (
    read_calibration_csv,
    synthetic_calibration_points,
    write_calibration_csv,
)
from spdc_werner.metrics import werner_state
from spdc_werner.tomography import (
    read_count_records,
    simulate_counts,
    witness_settings,
    write_count_records,
)

# writer, reader, sample data, header, a valid row, a malformed row
FORMATS = {
    "counts": (
        write_count_records,
        read_count_records,
        lambda: simulate_counts(werner_state(0.6), witness_settings(), 1000, seed=2),
        "label,stateA,stateB,counts,seed",
        "HH,H,H,12,0",
        "HH,H,H,twelve,0",
    ),
    "calibration": (
        write_calibration_csv,
        read_calibration_csv,
        lambda: synthetic_calibration_points(
            1.313, {1: 0.016, 2: 0.014}, 250_000.0, [0.1, 0.2, 0.5],
            noise_fraction=0.01, seed=3,
        ),
        "power,rate,detector",
        "0.5,100,1",
        "0.5,100,three",
    ),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


def test_round_trip_is_a_fixed_point(fmt, tmp_path):
    write, read, sample, header, _, _ = fmt
    data = sample()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write(data, first)
    loaded = read(first)
    assert len(loaded) == len(data)
    write(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text().splitlines()[0] == header


@pytest.mark.parametrize("text", ["", "a,b,c\n"])
def test_wrong_header_reported_at_line_1(fmt, tmp_path, text):
    _, read, _, _, _, _ = fmt
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected header")):
        read(path)


def test_malformed_row_reported_at_its_line(fmt, tmp_path):
    _, read, _, header, good, bad = fmt
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good}\n\n{bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: malformed row")):
        read(path)


def test_extra_column_is_malformed(fmt, tmp_path):
    _, read, _, header, good, _ = fmt
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good},1\n")
    with pytest.raises(ValueError, match=":2: malformed row"):
        read(path)


def test_blank_rows_skipped(fmt, tmp_path):
    _, read, _, header, good, _ = fmt
    path = tmp_path / "blank.csv"
    path.write_text(f"{header}\n\n{good}\n\n{good}\n")
    assert len(read(path)) == 2


def test_failed_write_leaves_no_file(tmp_path):
    def rows():
        yield ["HH", "H", "H", 3, ""]
        raise ValueError("row 2 cannot be built")

    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError, match="row 2"):
        _csv.write_rows(path, ("label", "stateA", "stateB", "counts", "seed"), rows())
    assert not path.exists()
