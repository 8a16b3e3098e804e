"""numpy is the package's only linear-algebra dependency.

A fresh interpreter (the same import path as criterion 10's children)
imports the package and its CLI, constructs a vector and a shift network,
and round-trips both archives; no scipy module may have been loaded.
"""

import subprocess
import sys

from test_acceptance import _package_env

CHILD = """
import os, sys, tempfile
import numpy as np
import redunet
import redunet.harness.cli
from redunet.harness.archive import load_model, save_model

rng = np.random.default_rng(0)
P = redunet.Partition([0, 1, 0, 1])
models = [redunet.construct(rng.standard_normal((3, 4)), P, L=1, eta=0.3, eps=0.5),
          redunet.construct(rng.standard_normal((2, 6, 4)), P, L=1, eta=0.3, eps=0.5)]
with tempfile.TemporaryDirectory() as tmp:
    for i, model in enumerate(models):
        back = load_model(save_model(model, os.path.join(tmp, f"{i}.rnet")))
        assert back.depth == 1
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_package_runs_without_loading_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=_package_env(), cwd=str(tmp_path), check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
