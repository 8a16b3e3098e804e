"""`tools/artifacts.py diff` on two small artifact trees: the verdict it
prints per file and its exit code."""

import importlib.util
import os

import numpy as np
import pytest

from redunet.harness.archive import save_model
from redunet.harness.csvio import emit_csv
from redunet.rate import Partition
from redunet.spectral import construct

from oracles import labels_for, rng_for, with_last_operator_value

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("artifacts",
                                               os.path.join(ROOT, "tools", "artifacts.py"))
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


def shift_archive(path):
    rng = rng_for(40)
    model = construct(rng.standard_normal((2, 8, 5)), Partition(labels_for(5, 2, rng)),
                      L=2, eta=0.3, eps=0.5)
    return save_model(model, path)


def tree(top, cells=((1.0, 2.0), (3.0, 4.0))):
    """An artifact tree of one CSV under ``top``, its cells ``cells``."""
    os.makedirs(top / "run")
    emit_csv(np.array(cells), top / "run" / "cells.csv", ["x", "y"])
    return top


def run_diff(capsys, a, b):
    code = artifacts.main(["diff", str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_print_identical_and_exit_zero(tmp_path, capsys):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    shift_archive(a / "run" / "model.rnet")
    shift_archive(b / "run" / "model.rnet")
    assert run_diff(capsys, a, b) == (0, [f"{os.path.join('run', 'cells.csv')}: identical",
                                          f"{os.path.join('run', 'model.rnet')}: identical"])


def test_changed_csv_cell_prints_its_relative_difference(tmp_path, capsys):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b", cells=((1.0, 2.0), (3.0, 4.5)))
    code, lines = run_diff(capsys, a, b)
    # |4.5 - 4.0| over the largest entry of either file, 4.5
    assert (code, lines) == (1, [f"{os.path.join('run', 'cells.csv')}: "
                                 f"max |delta| / max |entry| = {0.5 / 4.5:.3e}"])


@pytest.mark.parametrize("side", ["a", "b"])
def test_file_on_one_side_only_is_named_with_that_side(tmp_path, capsys, side):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    extra = tmp_path / side / "run" / "extra.csv"
    emit_csv(np.array([1.0]), extra, ["x"])
    code, lines = run_diff(capsys, a, b)
    assert code == 1
    assert lines == [f"{os.path.join('run', 'cells.csv')}: identical",
                     f"{os.path.join('run', 'extra.csv')}: only in {tmp_path / side}"]


def test_archives_whose_operators_differ_are_compared_number_by_number(tmp_path, capsys):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    blob = open(shift_archive(a / "run" / "model.rnet"), "rb").read()
    (b / "run" / "model.rnet").write_bytes(with_last_operator_value(blob, 1e9))
    code, lines = run_diff(capsys, a, b)
    # the one changed number, last of the last layer's class stacks, is now
    # the largest entry: |1e9 - old| / 1e9, with |old| far below 1e9
    assert code == 1
    assert lines == [f"{os.path.join('run', 'cells.csv')}: identical",
                     f"{os.path.join('run', 'model.rnet')}: "
                     "max |delta| / max |entry| = 1.000e+00"]


def test_files_of_other_bytes_but_the_same_numbers_are_told_apart(tmp_path, capsys):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    (a / "run" / "cells.csv").write_text("x\n0\n")
    (b / "run" / "cells.csv").write_text("x\n0.0\n")
    assert run_diff(capsys, a, b) == (1, [f"{os.path.join('run', 'cells.csv')}: "
                                          "differs: same numbers, other bytes"])
