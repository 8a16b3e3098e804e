import numpy as np
import pytest

from redunet.harness.csvio import emit_csv, read_csv, read_matrix


def test_identity_matrix_is_three_lines(tmp_path):
    path = tmp_path / "eye.csv"
    emit_csv(np.eye(2), path, ["a", "b"])
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1,0", "0,1"]


def test_reparse_recovers_exact_doubles(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-12, 12, size=(5, 4))
    path = tmp_path / "m.csv"
    emit_csv(M, path, [f"c{i}" for i in range(4)])
    back = read_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)  # bit-exact, not just close


def test_empty_series_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(np.array([]), path, ["value"])
    assert path.read_text() == "value\n"


def test_series_becomes_one_column(tmp_path):
    path = tmp_path / "s.csv"
    emit_csv(np.array([1.5, -2.0]), path, ["value"])
    header, rows = read_csv(path)
    assert header == ["value"]
    assert [float(r[0]) for r in rows] == [1.5, -2.0]


def test_mixed_rows_keep_strings_and_ints(tmp_path):
    path = tmp_path / "acc.csv"
    emit_csv([("train_accuracy", 0.975), ("count", 12)], path, ["metric", "value"])
    header, rows = read_csv(path)
    assert rows == [["train_accuracy", "0.97499999999999998"], ["count", "12"]]


def test_nonfinite_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(np.array([[np.nan]]), tmp_path / "bad.csv", ["v"])
    with pytest.raises(ValueError):
        emit_csv([(1.0, np.inf)], tmp_path / "bad2.csv", ["a", "b"])


def test_newlines_are_unix_style(tmp_path):
    path = tmp_path / "n.csv"
    emit_csv(np.ones((2, 1)), path, ["v"])
    assert b"\r" not in path.read_bytes()


def test_three_d_array_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(np.ones((2, 2, 2)), tmp_path / "x.csv", ["v"])


def _generic_bytes(M, path, header):
    # the csv.writer path that lists of row tuples take
    emit_csv([tuple(row) for row in M], path, header)
    return path.read_bytes()


def test_float_matrix_bytes_match_generic_writer(tmp_path):
    values = [0.0, -0.0, 0.1, 1.0, 5e-324, 1.7976931348623157e308, 1e16, 123456789.0]
    M = np.array(values + [-v for v in values]).reshape(4, 4)
    header = [f"c{i}" for i in range(4)]
    emit_csv(M, tmp_path / "fast.csv", header)
    assert (tmp_path / "fast.csv").read_bytes() == _generic_bytes(M, tmp_path / "slow.csv", header)
    lines = (tmp_path / "fast.csv").read_text().splitlines()
    assert lines[1] == "0,-0,0.10000000000000001,1"
    assert lines[2] == "4.9406564584124654e-324,1.7976931348623157e+308,10000000000000000,123456789"


def test_float_matrix_rejects_nan_and_inf(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        M = np.ones((3, 2))
        M[2, 1] = bad
        with pytest.raises(ValueError):
            emit_csv(M, tmp_path / "bad.csv", ["a", "b"])


def test_integer_matrix_and_row_tuples_unchanged(tmp_path):
    emit_csv(np.array([[1, -2], [30, 0]]), tmp_path / "i.csv", ["a", "b"])
    assert (tmp_path / "i.csv").read_text() == "a,b\n1,-2\n30,0\n"
    emit_csv([(0, 0.5, -1.25, 2.0), (1, np.float64(1e-7), 3, "x,y")],
             tmp_path / "t.csv", ["layer", "p", "q", "r"])
    assert (tmp_path / "t.csv").read_text() == (
        "layer,p,q,r\n0,0.5,-1.25,2\n1,9.9999999999999995e-08,3,\"x,y\"\n")
