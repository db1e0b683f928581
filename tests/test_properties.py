"""Property tests: the diamond SDP and the see-saw heuristic on random
channels and unitaries, the Hermitian operator basis on random channels, and
the noise models on random term groups.

Examples are drawn by hypothesis from a seed derived from each test, so every
run checks the same cases; ``max_examples`` keeps the suite time bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trotopt import sdp
from trotopt.channels import (
    AveragedTimingJitter,
    Decoherence,
    Depolarizing,
    TimingJitter,
    TrotterPlan,
    faulty_trotter,
    sampled_trotter_unitary,
)
from trotopt.hamiltonians import terms_from_text
from trotopt.linalg import (
    choi_from_super,
    from_hermitian_basis,
    hermitian_basis_rows,
    partial_trace,
    trace_norm,
    unitary_superop,
)
from trotopt.metrics import (
    diamond_distance,
    diamond_norm_hp,
    diamond_distance_unitary,
    induced_trace_distance_heuristic,
    j_distance,
    j_distance_unitary,
)

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


DIAMOND_DIMS = [2, 4, 8]


def examples(d):
    """12 derandomized examples at d = 2 and 4; 2 at d = 8, where one
    diamond solve takes about a second."""
    return settings(PROPERTY, max_examples=12 if d < 8 else 2)


@pytest.mark.parametrize("d", DIAMOND_DIMS)
def test_diamond_between_j_and_its_upper_bound(d):
    @examples(d)
    @given(seed=SEEDS)
    def check(seed):
        rng = np.random.default_rng(seed)
        ta, tb = random_channel(rng, d), random_channel(rng, d)
        j = j_distance(ta, tb)
        diamond = diamond_distance(ta, tb, tol=1e-7)
        assert j - 1e-7 <= diamond <= min(2.0, d * j) + 1e-7

    check()


@pytest.mark.parametrize("d", DIAMOND_DIMS)
def test_sdp_matches_unitary_fast_path(d):
    @examples(d)
    @given(seed=SEEDS)
    def check(seed):
        rng = np.random.default_rng(seed)
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        via_sdp = diamond_distance(unitary_superop(u), unitary_superop(v), tol=1e-7)
        assert via_sdp == pytest.approx(diamond_distance_unitary(u, v), abs=1e-6)

    check()


@pytest.mark.parametrize("d", DIAMOND_DIMS)
def test_weak_duality_at_every_iterate(d):
    @examples(d)
    @given(seed=SEEDS)
    def check(seed):
        rng = np.random.default_rng(seed)
        choi = choi_from_super(random_channel(rng, d) - random_channel(rng, d))
        sol = sdp.solve(0.5 * (choi + choi.conj().T), tol=1e-7, max_iter=200)
        assert sol.status == "Optimal"
        assert len(sol.trace) == sol.iterations
        primals, duals = np.array(sol.trace).T
        assert np.all(primals >= duals)
        # every primal value bounds every dual value, not just its own iterate's
        assert duals.max() <= primals.min() + 1e-9

    check()


@pytest.mark.parametrize("d", DIAMOND_DIMS)
def test_diamond_norm_scales_linearly(d):
    # the start depends on the scale of J; the certified value must not
    @examples(d)
    @given(seed=SEEDS, c=st.floats(0.1, 10.0))
    def check(seed, c):
        rng = np.random.default_rng(seed)
        phi = random_channel(rng, d) - random_channel(rng, d)
        tol = 1e-7
        # each value lies within tol above the true norm
        assert diamond_norm_hp(c * phi, tol=tol) == pytest.approx(
            c * diamond_norm_hp(phi, tol=tol), abs=max(c, 1.0) * tol
        )

    check()


@pytest.mark.parametrize("d", DIAMOND_DIMS)
def test_identical_channels_certify_zero(d):
    @examples(d)
    @given(seed=SEEDS)
    def check(seed):
        channel = random_channel(np.random.default_rng(seed), d)
        sol = sdp.solve(choi_from_super(channel - channel), tol=1e-7)
        assert sol.status == "Optimal"
        assert 0.0 <= sol.primal <= 1e-7
        assert diamond_distance(channel, channel, tol=1e-7) <= 1e-7

    check()


@PROPERTY
@given(seed=SEEDS)
def test_heuristic_below_diamond(seed):
    rng = np.random.default_rng(seed)
    ta, tb = random_channel(rng, 2), random_channel(rng, 2)
    heuristic = induced_trace_distance_heuristic(ta, tb)
    assert heuristic <= diamond_distance(ta, tb, tol=1e-7) + 1e-6


@PROPERTY
@given(seed=SEEDS, cuts=st.sets(st.integers(1, 7)))
def test_blockwise_trace_norm_at_d8(seed, cuts):
    # a Hermitian matrix dense on the diagonal blocks cut at ``cuts`` and
    # conjugated by a random permutation: the blockwise trace norm equals
    # the dense one
    rng = np.random.default_rng(seed)
    edges = [0, *sorted(cuts), 8]
    h = np.zeros((8, 8), dtype=complex)
    for lo, hi in zip(edges, edges[1:]):
        g = rng.standard_normal((hi - lo, hi - lo)) + 1j * rng.standard_normal((hi - lo, hi - lo))
        h[lo:hi, lo:hi] = g + g.conj().T
    perm = rng.permutation(8)
    h = h[np.ix_(perm, perm)]
    assert trace_norm(h) == pytest.approx(float(np.abs(np.linalg.eigvalsh(h)).sum()), rel=1e-13)


@PROPERTY
@given(seed=SEEDS, scale=st.sampled_from([1e-6, 1e-2, 1.0, 10.0]))
def test_unitary_closed_forms_at_d8(seed, scale):
    # J of two unitary channels in closed form equals J of their
    # superoperators; the see-saw never beats the closed-form heuristic
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 8)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    evals, w = np.linalg.eigh(g + g.conj().T)
    v = (w * np.exp(1j * scale * evals)) @ w.conj().T @ u
    ta, tb = unitary_superop(u), unitary_superop(v)
    assert j_distance_unitary(u, v) == pytest.approx(j_distance(ta, tb), rel=1e-9, abs=1e-13)
    assert induced_trace_distance_heuristic(ta, tb) <= diamond_distance_unitary(u, v) + 1e-12


@st.composite
def hamiltonian_texts(draw):
    """A random term-group Hamiltonian in the text format: 1-3 sites, 1-3
    groups of 1-3 weighted Pauli strings each."""
    sites = draw(st.integers(1, 3))
    words = st.text(alphabet="xyz.", min_size=sites, max_size=sites)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    term = st.tuples(coeffs, words).map(lambda cw: f"{cw[0]!r} {cw[1]}")
    group = st.lists(term, min_size=1, max_size=3).map(" ; ".join)
    groups = st.lists(group, min_size=1, max_size=3)
    return f"{sites} | " + " | ".join(draw(groups))


@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 40))
def test_real_basis_powers_channels_at_d8(seed, n):
    # a channel difference is real in the Hermitian basis, and a channel's
    # real power converts back to its complex power
    rng = np.random.default_rng(seed)
    ta, tb = random_channel(rng, 8), random_channel(rng, 8)
    q_dag = hermitian_basis_rows(np.eye(64))
    dense = q_dag @ (ta - tb) @ q_dag.conj().T
    assert np.abs(dense.imag).max() <= 1e-13
    real_a = q_dag @ ta @ q_dag.conj().T
    assert np.abs(real_a.imag).max() <= 1e-13
    np.testing.assert_allclose(
        from_hermitian_basis(np.linalg.matrix_power(real_a.real, n)),
        np.linalg.matrix_power(ta, n),
        rtol=0,
        atol=1e-12,
    )


NOISE_MODELS = [
    TimingJitter(0.1),
    AveragedTimingJitter(0.1),
    Depolarizing(0.05),
    Decoherence(0.2),
]


@pytest.mark.parametrize("noise", NOISE_MODELS, ids=["jitter", "avg-jitter", "depol", "decoh"])
@PROPERTY
@given(
    text=hamiltonian_texts(),
    t=st.floats(0.0, 2.0),
    n=st.integers(1, 6),
    a=st.floats(0.25, 4.0),
    seed=SEEDS,
)
def test_text_hamiltonians_give_cptp_channels(noise, text, t, n, a, seed):
    # a jitter channel is one sampled run, drawn from the generator
    plan = TrotterPlan(tuple(terms_from_text(text)), t=t, n=n, a=a)
    if isinstance(noise, TimingJitter):
        rng = np.random.default_rng(seed)
        channel = unitary_superop(sampled_trotter_unitary(plan, noise.sigma, (rng,))[0])
    else:
        channel = faulty_trotter(plan, noise)
    d = plan.dim
    choi = choi_from_super(channel) / d
    np.testing.assert_allclose(choi, choi.conj().T, atol=1e-9)
    assert np.linalg.eigvalsh(choi).min() >= -1e-9
    np.testing.assert_allclose(partial_trace(choi, (d, d), 1), np.eye(d) / d, atol=1e-9)
