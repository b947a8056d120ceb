"""Tests for the hex-float64 text codec of saved artifacts and the CSV writer
of report artifacts."""

import struct

import numpy as np
import pytest

from cbfforge.codec import ROW_BLOCK, decode_floats, encode_floats, read_rows, write_csv, write_rows
from cbfforge.dubins import TrajectoryRecord, save_trajectory_csv
from cbfforge.experiments import MetricsRow, MetricsTable

# -0.0, the smallest subnormal, the largest finite magnitudes and a few
# values whose shortest decimal form has 17 significant digits.
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, np.pi])


def test_encodes_the_big_endian_bit_pattern():
    assert encode_floats([1.0], " ") == "3ff0000000000000"
    assert encode_floats([-0.0, 5e-324], " ") == "8000000000000000 0000000000000001"
    assert encode_floats(np.array([[1.0], [2.0]]), sep="\n") == "3ff0000000000000\n4000000000000000"


def test_special_values_round_trip_bit_for_bit():
    decoded = decode_floats(encode_floats(SPECIAL, " "), SPECIAL.size)
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == SPECIAL.tobytes()
    assert np.signbit(decoded[0]) and not np.signbit(decoded[1])


@pytest.mark.parametrize("sep", [" ", "\n"])
def test_random_values_round_trip_bit_for_bit(sep):
    rng = np.random.default_rng(3)
    values = rng.normal(size=1000) * np.exp(rng.uniform(-700.0, 700.0, size=1000))
    text = encode_floats(values, sep=sep)
    assert len(text) == 17 * values.size - 1
    decoded = decode_floats(text, values.size)
    assert decoded.tobytes() == values.tobytes()
    decoded[0] = 1.0  # a writable native-order copy


def test_wrong_count_rejected():
    text = encode_floats([1.0, 2.0, 3.0], " ")
    with pytest.raises(ValueError, match="expected 2"):
        decode_floats(text, 2)
    with pytest.raises(ValueError, match="expected 4"):
        decode_floats(text, 4)


def test_non_hex_and_misplaced_separators_rejected():
    text = encode_floats([1.0, 2.0], " ")
    with pytest.raises(ValueError, match="not hex-float64"):
        decode_floats(text.replace("f", "g"), 2)
    with pytest.raises(ValueError, match="not hex-float64"):
        decode_floats(text[:15] + " " + text[15] + text[17:], 2)  # odd-length token
    with pytest.raises(ValueError, match="expected 3 hex-float64 values, found 3.125"):
        decode_floats(encode_floats([1.0, 2.0, 3.0], " ").replace(" ", "0"), 3)  # digits in place of separators


def test_decimal_tokens_rejected():
    # A 17-digit decimal token is 17+ characters and holds a '.', so it
    # can never pass for one 16-digit bit pattern.
    with pytest.raises(ValueError):
        decode_floats("%.17g" % 0.1, 1)
    with pytest.raises(ValueError):
        decode_floats("0.1000000000000000", 1)


def _rows(*shapes):
    rng = np.random.default_rng(11)
    return [rng.normal(size=shape) for shape in shapes]


# Rows of several values, a one-value row, and one-value rows spanning
# several read blocks with a short last one.
SHAPES = [(5, 3), (1, 3), (1, 1), (2 * ROW_BLOCK + 7, 1)]


def _saved_lines(path, arrays):
    with open(path, "w") as fh:
        write_rows(fh, arrays)
    return path.read_text().splitlines(keepends=True)


def _read(path, text, shapes, labels):
    path.write_text(text)
    with open(path) as fh:
        return read_rows(fh, shapes, labels)


def test_rows_write_one_line_each_and_read_back_bit_for_bit(tmp_path):
    arrays = _rows(*SHAPES)
    lines = _saved_lines(tmp_path / "rows.txt", arrays)
    assert lines == [encode_floats(row, " ") + "\n" for a in arrays for row in a]
    outs, found = _read(tmp_path / "rows.txt", "".join(lines), SHAPES, ["a {}", "b {}", "c", ""])
    assert found == len(lines)
    for a, b in zip(arrays, outs):
        assert b.dtype == np.float64 and b.tobytes() == a.tobytes()


def test_read_rows_counts_a_short_or_long_file(tmp_path):
    # The short files keep over 16 of every 17 characters, so they pass the
    # size test and are read up to where they end.
    boundary_shapes = [(2 * ROW_BLOCK, 1), (3, 2)]
    long_shapes = [(20 * ROW_BLOCK, 1)]
    lines = _saved_lines(tmp_path / "rows.txt", _rows(*SHAPES))
    boundary = _saved_lines(tmp_path / "boundary.txt", _rows(*boundary_shapes))
    long_lines = _saved_lines(tmp_path / "long.txt", _rows(*long_shapes))
    n = len(lines)
    cases = [
        (SHAPES, lines[:-1], n - 1, 3),  # ends inside the last block
        (boundary_shapes, boundary[: 2 * ROW_BLOCK], 2 * ROW_BLOCK, 1),  # ends where an array does
        (long_shapes, long_lines[: 19 * ROW_BLOCK], 19 * ROW_BLOCK, 0),  # ends where a block does
        (SHAPES, lines + lines[-2:], n + 2, 4),
        (SHAPES, lines + ["\n", " \n"], n, 4),  # trailing blank lines are not rows
    ]
    for shapes, text, found, n_arrays in cases:
        arrays, count = _read(tmp_path / "cut.txt", "".join(text), shapes, [""] * len(shapes))
        assert (count, len(arrays)) == (found, n_arrays)


def test_read_rows_only_counts_a_file_too_small_for_its_shapes(tmp_path):
    arrays, found = _read(tmp_path / "rows.txt", "3ff0000000000000\n" * 3, [(10**12, 4)], [""])
    assert (arrays, found) == ([], 3)


def test_read_rows_names_the_bad_row(tmp_path):
    shapes = [(4, 2), (3 * ROW_BLOCK, 1)]
    lines = _saved_lines(tmp_path / "rows.txt", _rows(*shapes))
    labels = ["w row {}", "v {}"]
    bad = list(lines)
    bad[2] = bad[2].replace(bad[2][3], "x", 1)
    with pytest.raises(ValueError, match="^w row 2: not hex-float64"):
        _read(tmp_path / "bad.txt", "".join(bad), shapes, labels)
    bad = list(lines)
    bad[4 + ROW_BLOCK + 5] = "0" * 15 + "\n"  # a short line in the second block
    with pytest.raises(ValueError, match=r"^v 1029: expected 1 hex-float64 values \(16 characters\), found 15"):
        _read(tmp_path / "bad.txt", "".join(bad), shapes, labels)
    bad = list(lines)
    bad[1] = bad[1][:16] + "\n"  # a row holding one of its two values
    with pytest.raises(ValueError, match="^w row 1: expected 2 hex-float64 values"):
        _read(tmp_path / "bad.txt", "".join(bad), shapes, labels)


# ------------------------------------------------------------------- CSV


def _bits(x: float) -> bytes:
    return struct.pack(">d", x)


def test_csv_float_cells_read_back_bit_for_bit(tmp_path):
    # nan is what training_curve.csv holds for the losses before the first update.
    values = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, float("nan"), float("inf"), -float("inf")]
    values += list(SPECIAL) + list(np.random.default_rng(4).normal(size=50) * 10.0 ** np.arange(-25, 25))
    path = tmp_path / "values.csv"
    write_csv(str(path), "k,value", enumerate(values))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,value"
    for k, (line, value) in enumerate(zip(lines[1:], values, strict=True)):
        index, cell = line.split(",")
        assert index == str(k)
        assert _bits(float(cell)) == _bits(value), line


def test_csv_cells_and_line_endings(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(str(path), "a,b,c,d", [("n/a", 3, np.int64(-12), True), ("x", 0.5, np.float64(2.0), 1e17)])
    assert path.read_bytes() == b"a,b,c,d\nn/a,3,-12,1\nx,0.5,2,1e+17\n"


def test_csv_with_no_rows_is_the_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), "metric,value", [])
    assert path.read_bytes() == b"metric,value\n"


def test_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    write_csv(str(path), "metric,value", {"f1": 0.5, "tp": 0.25}.items())
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("f1,")
    assert len(lines) == 3


# Bytes of two report files as the CSV writer renders them; other bytes mean
# the artifact format changed.
PINNED_TRAJECTORY = (
    b"t,x,y,theta,a_nom,a_exec,margin,overridden,feasible_count,q_nominal,q_fallback\n"
    b"0,-1,0.5,0.25,0.5,0.5,0.10000000000000001,0,25,0.10000000000000001,0.20000000000000001\n"
    b"1,-0.90000000000000002,0.5,0.29999999999999999,-0,2,0.20000000000000001,1,3,-1e-300,4.9406564584124654e-324\n"
)
PINNED_METRICS = (
    b"method,margin_mode,alpha,safety_rate,avg_override,override_std,f1,max_step_delta_mean,max_step_delta_std\n"
    b"cbf,exact,0.84999999999999998,1,0.25,0.10000000000000001,n/a,n/a,n/a\n"
    b"margin,gp,n/a,n/a,n/a,n/a,0.90000000000000002,0.02,0.01\n"
)


def test_trajectory_csv_bytes_are_pinned(tmp_path):
    nominal, executed = np.array([0.5, -0.0]), np.array([0.5, 2.0])
    record = TrajectoryRecord(
        states=np.array([[-1.0, 0.5, 0.25], [-0.9, 0.5, 0.3], [-0.8, 0.51, 1.0 / 3.0]]),
        actions_nominal=nominal,
        actions_executed=executed,
        margin_values=np.array([0.1, 0.2, 0.3]),
        collided=False,
        override_magnitudes=np.abs(executed - nominal),
        diagnostics={
            "feasible_count": np.array([25.0, 3.0]),
            "q_nominal": np.array([0.1, -1e-300]),
            "q_fallback": np.array([0.2, 5e-324]),
        },
    )
    path = tmp_path / "trajectory.csv"
    save_trajectory_csv(record, str(path))
    assert path.read_bytes() == PINNED_TRAJECTORY


def test_metrics_table_csv_bytes_are_pinned(tmp_path):
    rows = [
        MetricsRow(method="cbf", margin_mode="exact", alpha=0.85, safety_rate=1.0, avg_override=0.25, override_std=0.1),
        MetricsRow(method="margin", margin_mode="gp", f1=0.9, max_step_delta_mean=0.02, max_step_delta_std=0.01),
    ]
    path = tmp_path / "metrics.csv"
    MetricsTable(rows).save_csv(str(path))
    assert path.read_bytes() == PINNED_METRICS
