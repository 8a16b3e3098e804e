"""Property tests over random small shapes; skipped when hypothesis is absent."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from redunet.harness.experiments import _orthogonal_fraction_all_shifts

from oracles import labels_for, roll_orthogonal_fraction


@settings(max_examples=60, deadline=None)
@given(C=st.integers(1, 3), T=st.integers(1, 12), m=st.integers(3, 10),
       m_test=st.integers(3, 8), k=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_shift_sweep_equals_roll_loop(C, T, m, m_test, k, seed):
    rng = np.random.default_rng(seed)
    F_train = rng.standard_normal((C, T, m))
    F_test = rng.standard_normal((C, T, m_test))
    F_train /= np.linalg.norm(F_train.reshape(-1, m), axis=0)
    F_test /= np.linalg.norm(F_test.reshape(-1, m_test), axis=0)
    case = (F_test, labels_for(m_test, k, rng), F_train, labels_for(m, k, rng))
    assert _orthogonal_fraction_all_shifts(*case) == roll_orthogonal_fraction(*case)
