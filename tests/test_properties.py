"""Property tests: the diamond SDP on random channels and unitaries.

Examples are drawn by hypothesis from a seed derived from each test, so every
run checks the same cases; ``max_examples`` keeps the suite time bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trotopt.linalg import choi_from_super, unitary_superop
from trotopt.metrics import _diamond_sdp, diamond_distance, diamond_distance_unitary, j_distance

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng, d):
    n_kraus = int(rng.integers(1, 4))
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    kraus = np.linalg.qr(g)[0].reshape(n_kraus, d, d)
    return sum(np.kron(k.conj(), k) for k in kraus)


@pytest.mark.parametrize("d", [2, 4])
@PROPERTY
@given(seed=SEEDS)
def test_diamond_between_j_and_its_upper_bound(d, seed):
    rng = np.random.default_rng(seed)
    ta, tb = random_channel(rng, d), random_channel(rng, d)
    j = j_distance(ta, tb)
    diamond = diamond_distance(ta, tb, tol=1e-7)
    assert j - 1e-7 <= diamond <= min(2.0, d * j) + 1e-7


@pytest.mark.parametrize("d", [2, 4])
@PROPERTY
@given(seed=SEEDS)
def test_sdp_matches_unitary_fast_path(d, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    via_sdp = diamond_distance(unitary_superop(u), unitary_superop(v), tol=1e-7)
    assert via_sdp == pytest.approx(diamond_distance_unitary(u, v), abs=1e-6)


@pytest.mark.parametrize("d", [2, 4])
@PROPERTY
@given(seed=SEEDS)
def test_weak_duality_at_every_iterate(d, seed):
    rng = np.random.default_rng(seed)
    choi = choi_from_super(random_channel(rng, d) - random_channel(rng, d))
    sol = _diamond_sdp(0.5 * (choi + choi.conj().T), d, tol=1e-7, max_iter=200)
    assert sol.status == "Optimal"
    assert len(sol.trace) == sol.iterations
    primals, duals = np.array(sol.trace).T
    assert np.all(primals >= duals)
    # every primal value bounds every dual value, not just its own iterate's
    assert duals.max() <= primals.min() + 1e-9
