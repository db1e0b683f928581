"""Distance-layer tests.

Closed-form answers are checked directly; the unitary diamond fast path (the
chord of the shortest eigenvalue arc) is additionally checked against a
brute-force maximization over ancilla-assisted pure inputs, and against the
diameter of the smallest circle enclosing the eigenvalues, found by an
exhaustive pair/triple search.
"""

import itertools

import numpy as np
import pytest

from trotopt import sdp
from trotopt.channels import (
    AveragedTimingJitter,
    TrotterPlan,
    commutator_defect_map,
    complete_noise,
    faulty_trotter,
    ideal_map,
    jitter_defect_map,
)
from trotopt.hamiltonians import ising_chain
from trotopt.linalg import choi_from_super, hermitize, trace_norm, unitary_superop, unvec, vec
from trotopt.metrics import (
    METRICS,
    TRACE_ATOL,
    Diamond,
    DiamondNormError,
    InducedTraceHeuristic,
    JDistance,
    diamond_distance,
    diamond_distance_unitary,
    diamond_norm_hp,
    induced_trace_distance_heuristic,
    induced_trace_norm_heuristic,
    j_distance,
    j_distance_unitary,
    j_norm,
    noise_benchmarks,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def depolarizing_superop(p, d):
    """Supermatrix of ``rho -> (1 - p) rho + (p/d) I``."""
    return (1.0 - p) * np.eye(d * d, dtype=complex) + p * complete_noise(d)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng, d, n_kraus=3):
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    q = np.linalg.qr(g)[0]
    kraus = q.reshape(n_kraus, d, d)
    return sum(np.kron(k.conj(), k) for k in kraus)


def random_state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestTraceDistance:
    """The unhalved trace distance of two states, ``trace_norm`` of their
    difference, which the J-distance takes between Choi states."""

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert trace_norm(zero - one) == pytest.approx(2.0, abs=1e-12)

    def test_zero_versus_plus(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert trace_norm(zero - plus) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identical_states(self):
        rho = random_state(np.random.default_rng(3), 4)
        assert trace_norm(rho - rho) == pytest.approx(0.0, abs=1e-14)

    def test_pure_state_overlap_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            want = 2.0 * np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
            got = trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
            assert got == pytest.approx(want, abs=1e-10)

    def test_rejects_unnormalized(self):
        # a map that doubles every trace has no Choi state; either argument
        # is checked
        double = 2.0 * np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="first channel is not trace-preserving"):
            j_distance(double, np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="second channel is not trace-preserving"):
            j_distance(np.eye(4, dtype=complex), double)


def brute_force_circle(points):
    """Smallest circle from exhaustive pair and triple candidates."""

    def contains_all(c):
        cx, cy, r = c
        return all(np.hypot(x - cx, y - cy) <= r + 1e-9 for x, y in points)

    best = None
    for p, q in itertools.combinations(points, 2):
        cx, cy = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
        c = (cx, cy, max(np.hypot(p[0] - cx, p[1] - cy), np.hypot(q[0] - cx, q[1] - cy)))
        if contains_all(c) and (best is None or c[2] < best[2]):
            best = c
    for p, q, s in itertools.combinations(points, 3):
        d = 2.0 * (p[0] * (q[1] - s[1]) + q[0] * (s[1] - p[1]) + s[0] * (p[1] - q[1]))
        if abs(d) < 1e-14:
            continue
        ux = (
            (p[0] ** 2 + p[1] ** 2) * (q[1] - s[1])
            + (q[0] ** 2 + q[1] ** 2) * (s[1] - p[1])
            + (s[0] ** 2 + s[1] ** 2) * (p[1] - q[1])
        ) / d
        uy = (
            (p[0] ** 2 + p[1] ** 2) * (s[0] - q[0])
            + (q[0] ** 2 + q[1] ** 2) * (p[0] - s[0])
            + (s[0] ** 2 + s[1] ** 2) * (q[0] - p[0])
        ) / d
        c = (ux, uy, max(np.hypot(ux - x, uy - y) for x, y in (p, q, s)))
        if contains_all(c) and (best is None or c[2] < best[2]):
            best = c
    if best is None:
        x, y = points[0]
        best = (x, y, 0.0)
    return best


def ancilla_grid_max(u, v, n_alpha=81, n_phi=64):
    """Max output trace norm over a grid of Schmidt-form ancilla-assisted
    pure inputs; a lower bound on the diamond distance of the two unitary
    channels, tight when the optimizer lies in the computational Schmidt
    basis."""
    d = u.shape[0]
    ua = np.kron(u, np.eye(d))
    va = np.kron(v, np.eye(d))
    best = 0.0
    for alpha in np.linspace(0.0, np.pi / 2.0, n_alpha):
        for phi in np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False):
            psi = np.zeros(d * d, dtype=complex)
            psi[0] = np.cos(alpha)
            psi[-1] = np.sin(alpha) * np.exp(1j * phi)
            rho = np.outer(psi, psi.conj())
            diff = ua @ rho @ ua.conj().T - va @ rho @ va.conj().T
            best = max(best, trace_norm(diff))
    return best


class TestDiamondUnitary:
    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 2, np.pi])
    def test_relative_phase(self, theta):
        u = np.diag([1.0, np.exp(1j * theta)])
        val = diamond_distance_unitary(u, np.eye(2, dtype=complex))
        assert val == pytest.approx(2.0 * np.sin(theta / 2.0), abs=1e-12)
        grid = ancilla_grid_max(u, np.eye(2, dtype=complex))
        assert grid <= val + 1e-9
        assert val == pytest.approx(grid, abs=1e-9)

    def test_grid_never_exceeds(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 2)
            val = diamond_distance_unitary(u, v)
            assert ancilla_grid_max(u, v, n_alpha=21, n_phi=16) <= val + 1e-9

    def test_identical_unitaries(self):
        u = random_unitary(np.random.default_rng(8), 3)
        assert diamond_distance_unitary(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_is_invisible(self):
        u = random_unitary(np.random.default_rng(9), 2)
        assert diamond_distance_unitary(u, np.exp(0.3j) * u) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_orthogonal_pair_saturates(self):
        # both spectra are {1, -1}, exactly a half circle
        for u in (SX, np.diag([1.0, -1.0]).astype(complex)):
            assert diamond_distance_unitary(u, np.eye(2, dtype=complex)) == 2.0

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            diamond_distance_unitary(np.diag([1.0, 0.5]), np.eye(2, dtype=complex))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            diamond_distance_unitary(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_rejects_nan_unitary(self):
        u = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="not unitary"):
            diamond_distance_unitary(u, np.eye(2, dtype=complex))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matches_brute_force_circle(self, d):
        # the arc chord is the diameter of the smallest circle enclosing the
        # eigenvalues of U V^dag, capped at 2
        rng = np.random.default_rng(900 + d)
        for k in range(6):
            u = random_unitary(rng, d)
            if k % 2:
                v = random_unitary(rng, d)
            else:
                # near-identity pair V = U exp(i eps H), eps growing with k
                h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                evals, evecs = np.linalg.eigh(h + h.conj().T)
                eps = 0.1 * (k + 1) / np.sqrt(d)
                v = u @ (evecs * np.exp(1j * eps * evals)) @ evecs.conj().T
            spectrum = np.linalg.eigvals(u @ v.conj().T)
            _, _, r = brute_force_circle([(z.real, z.imag) for z in spectrum])
            assert diamond_distance_unitary(u, v) == pytest.approx(min(2.0 * r, 2.0), abs=1e-9)

    def test_eigenphases_straddle_branch_cut(self):
        # np.angle puts +3 and -3 at opposite ends of its range; the short
        # arc between them crosses -1 and has length 2 (pi - 3)
        u = np.diag(np.exp([3.0j, -3.0j]))
        val = diamond_distance_unitary(u, np.eye(2, dtype=complex))
        assert val == pytest.approx(2.0 * np.sin(np.pi - 3.0), abs=1e-12)

    def test_spread_spectrum_saturates(self):
        # cube roots of unity: every gap is 2 pi / 3 < pi, so no short arc
        u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        assert diamond_distance_unitary(u, np.eye(3, dtype=complex)) == 2.0

    def test_degenerate_spectrum(self):
        # four eigenvalues at 1 and two at exp(0.8i): the arc has length 0.8
        u = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.8, 0.0, 0.8, 0.0])))
        val = diamond_distance_unitary(u, np.eye(6, dtype=complex))
        assert val == pytest.approx(2.0 * np.sin(0.4), abs=1e-12)

    def test_dimension_one_is_zero(self):
        u = np.array([[np.exp(2.5j)]])
        assert diamond_distance_unitary(u, np.array([[1.0 + 0j]])) == 0.0


class TestJDistance:
    def test_identity_vs_complete_noise(self):
        assert j_distance(np.eye(4, dtype=complex), complete_noise(2)) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_identity_vs_bit_flip(self):
        assert j_distance(np.eye(4, dtype=complex), unitary_superop(SX)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_identity_vs_depolarizing(self):
        for p in (0.1, 0.5):
            got = j_distance(np.eye(4, dtype=complex), depolarizing_superop(p, 2))
            assert got == pytest.approx(1.5 * p, abs=1e-12)

    def test_j_norm_matches_distance(self):
        rng = np.random.default_rng(31)
        ta = random_channel(rng, 2)
        tb = random_channel(rng, 2)
        assert j_norm(ta - tb) == pytest.approx(j_distance(ta, tb), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_equals_difference_of_choi_states(self, d):
        # oracle: the trace norm of the difference of the two normalized Choi
        # states; for a power-of-two d the division by d is exact, so the one
        # Choi difference gives the same bits
        rng = np.random.default_rng(40 + d)
        for _ in range(3):
            ta, tb = random_channel(rng, d), random_channel(rng, d)
            want = trace_norm(choi_from_super(ta) / d - choi_from_super(tb) / d)
            assert j_distance(ta, tb) == want

    def test_trace_check_takes_every_entry(self):
        # a channel plus a traceless leak into Tr S(|0><1|) keeps its Choi
        # trace at 1, and is still refused once the leak exceeds TRACE_ATOL
        one = vec(np.eye(2))
        for leak, refused in ((0.5 * TRACE_ATOL, False), (2.0 * TRACE_ATOL, True)):
            t = np.eye(4) + leak / 2 * np.outer(one, vec(np.array([[0.0, 1.0], [0.0, 0.0]])))
            if refused:
                with pytest.raises(ValueError, match="TRACE_ATOL"):
                    j_distance(t, np.eye(4, dtype=complex))
            else:
                assert j_distance(t, np.eye(4, dtype=complex)) >= 0.0

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="differ"):
            j_distance(np.eye(4, dtype=complex), np.eye(9, dtype=complex))


def nearby_unitary(rng, u, scale):
    """``exp(i scale G) U`` for a random Hermitian ``G``."""
    d = u.shape[0]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    evals, w = np.linalg.eigh(g + g.conj().T)
    return (w * np.exp(1j * scale * evals)) @ w.conj().T @ u


class TestUnitaryClosedForms:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_stack_equals_per_pair_calls(self, d):
        # a (runs, d, d) stack gives, run by run, the same bits as one call
        # per pair, under every metric's closed form
        rng = np.random.default_rng(300 + d)
        v = random_unitary(rng, d)
        scales = (0.0, 1e-6, 0.01, 0.5, 3.0) * 4
        runs = np.array([nearby_unitary(rng, v, scale) for scale in scales])
        for metric in METRICS.values():
            stacked = metric().unitary_distance(runs, v)
            assert stacked.shape == (len(runs),)
            looped = [metric().unitary_distance(u, v) for u in runs]
            assert all(isinstance(x, float) for x in looped)
            np.testing.assert_array_equal(stacked, looped)

    def test_stack_checks_every_run(self):
        rng = np.random.default_rng(310)
        runs = np.array([random_unitary(rng, 2) for _ in range(4)])
        runs[2] *= 1.01
        with pytest.raises(ValueError, match="not unitary"):
            j_distance_unitary(runs, np.eye(2, dtype=complex))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_j_matches_superoperator_j(self, d):
        rng = np.random.default_rng(100 + d)
        for scale in (1e-7, 1e-3, 0.3, 5.0):
            u = random_unitary(rng, d)
            v = nearby_unitary(rng, u, scale)
            want = j_distance(unitary_superop(u), unitary_superop(v))
            assert j_distance_unitary(u, v) == pytest.approx(want, rel=1e-8, abs=1e-13)
            assert JDistance().unitary_distance(u, v) == j_distance_unitary(u, v)

    def test_j_keeps_digits_for_near_pairs(self):
        # eigenphases (e, -e, 0, 0) give J = sqrt(2) e to leading order; the
        # trace |tr(U^dag V)| rounds to d, so 1 - |tr|^2/d^2 would read 0
        u = np.eye(4, dtype=complex)
        v = np.diag(np.exp(1j * np.array([1e-9, -1e-9, 0.0, 0.0])))
        assert 1.0 - abs(np.trace(v)) ** 2 / 16.0 == 0.0
        assert j_distance_unitary(u, v) == pytest.approx(np.sqrt(2.0) * 1e-9, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_seesaw_never_beats_closed_form_heuristic(self, d):
        rng = np.random.default_rng(200 + d)
        for scale in (1e-3, 0.3, 5.0):
            u = random_unitary(rng, d)
            v = nearby_unitary(rng, u, scale)
            closed = InducedTraceHeuristic().unitary_distance(u, v)
            assert closed == diamond_distance_unitary(u, v)
            seesaw = induced_trace_distance_heuristic(unitary_superop(u), unitary_superop(v))
            assert seesaw <= closed + 1e-12
            assert seesaw == pytest.approx(closed, abs=1e-6)


class TestDiamondSdp:
    def test_identity_vs_depolarizing(self):
        for p in (0.1, 0.5):
            got = diamond_distance(np.eye(4, dtype=complex), depolarizing_superop(p, 2), tol=1e-7)
            assert got == pytest.approx(1.5 * p, abs=1e-6)

    def test_matches_unitary_fast_path(self):
        rng = np.random.default_rng(60)
        for d in (2, 3):
            for _ in range(10):
                u = random_unitary(rng, d)
                v = random_unitary(rng, d)
                via_sdp = diamond_distance(unitary_superop(u), unitary_superop(v), tol=1e-7)
                via_circle = diamond_distance_unitary(u, v)
                assert abs(via_sdp - via_circle) <= 1e-5

    def test_value_clamped(self):
        val = diamond_distance(np.eye(4, dtype=complex), unitary_superop(SX), tol=1e-7)
        assert 2.0 - 1e-6 <= val <= 2.0 + 1e-7

    def test_failure_carries_bounds(self):
        rng = np.random.default_rng(61)
        phi = random_channel(rng, 2) - random_channel(rng, 2)
        with pytest.raises(DiamondNormError) as exc:
            diamond_norm_hp(phi, tol=1e-13, max_iter=3)
        (sol,) = exc.value.solutions
        assert sol.status == "IterationCap"
        assert sol.iterations == 3
        assert np.isfinite(sol.primal)
        assert sol.dual <= sol.primal
        assert str(exc.value).startswith("diamond-norm SDP did not converge: map 0: status=IterationCap")

    def test_rejects_map_that_does_not_annihilate_trace(self):
        # the single-variable SDP would report 6.0 here, not the true 3.0
        with pytest.raises(ValueError, match="annihilate trace"):
            diamond_norm_hp(3.0 * np.eye(4, dtype=complex))

    def test_rejects_non_hermiticity_preserving(self):
        rng = np.random.default_rng(62)
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        with pytest.raises(ValueError, match="Hermiticity"):
            diamond_norm_hp(np.kron(a.conj(), b))


class TestInducedTraceHeuristic:
    def test_unitary_vs_complete_noise(self):
        u = random_unitary(np.random.default_rng(70), 2)
        got = induced_trace_distance_heuristic(unitary_superop(u), complete_noise(2))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_diamond(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            ta = random_channel(rng, 2)
            tb = random_channel(rng, 2)
            heur = induced_trace_distance_heuristic(ta, tb)
            diam = diamond_distance(ta, tb, tol=1e-7)
            assert heur <= diam + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(72)
        ta = random_channel(rng, 2)
        tb = random_channel(rng, 2)
        cfg = InducedTraceHeuristic(restarts=16, seed=5)
        assert induced_trace_distance_heuristic(
            ta, tb, cfg
        ) == induced_trace_distance_heuristic(ta, tb, cfg)

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(73)
        ta = random_channel(rng, 2)
        tb = random_channel(rng, 2)
        few = induced_trace_distance_heuristic(ta, tb, InducedTraceHeuristic(restarts=4))
        many = induced_trace_distance_heuristic(ta, tb, InducedTraceHeuristic(restarts=32))
        assert many >= few - 1e-15

    def test_pure_state_formula_for_unitaries(self):
        # for two unitary channels the unstabilized optimum over pure inputs
        # is 2*sqrt(1 - min_psi |<psi|U V^dag|psi>|^2); for a relative-phase
        # pair that is reached at an equal superposition
        theta = 0.7
        u = np.diag([1.0, np.exp(1j * theta)])
        got = induced_trace_distance_heuristic(
            unitary_superop(u), np.eye(4, dtype=complex)
        )
        assert got == pytest.approx(2.0 * np.sin(theta / 2.0), abs=1e-9)

    def test_restart_count_validated(self):
        with pytest.raises(ValueError, match="restarts"):
            InducedTraceHeuristic(restarts=0)


def seesaw_oracle(phi, cfg):
    """The see-saw one restart at a time: (value, ascent steps) per restart."""
    d = round(np.sqrt(phi.shape[0]))
    phi_adj = phi.conj().T
    found = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,))
        )
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        prev = -np.inf
        for step in range(1, 101):
            out = hermitize(unvec(phi @ vec(np.outer(psi, psi.conj()))))
            evals, evecs = np.linalg.eigh(out)
            val = float(np.abs(evals).sum())
            if val - prev <= 1e-13 * (1.0 + val):
                break
            prev = val
            observable = (evecs * np.sign(evals)) @ evecs.conj().T
            pulled = hermitize(unvec(phi_adj @ vec(observable)))
            psi = np.linalg.eigh(pulled)[1][:, -1]
        found.append((val, step))
    return found


def ising_difference(n_sites, n):
    plan = TrotterPlan(ising_chain(n_sites), t=0.1, n=n, a=1.0)
    return faulty_trotter(plan, AveragedTimingJitter(0.01)) - ideal_map(plan)


class TestBatchedSeeSaw:
    """The restarts ascend as one stack; each must end where it ends alone."""

    @staticmethod
    def assert_matches_oracle(phi, cfg):
        want = max(val for val, _ in seesaw_oracle(phi, cfg))
        got = induced_trace_norm_heuristic(phi, cfg)
        assert abs(got - want) <= 1e-13 * want, (got, want)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_random_channel_pairs(self, d):
        rng = np.random.default_rng(80 + d)
        for seed in range(2):
            phi = random_channel(rng, d) - random_channel(rng, d)
            self.assert_matches_oracle(phi, InducedTraceHeuristic(restarts=16, seed=seed))

    @pytest.mark.parametrize("n_sites", [2, 3])
    @pytest.mark.parametrize("defect_map", [commutator_defect_map, jitter_defect_map])
    def test_ising_defect_maps(self, n_sites, defect_map):
        self.assert_matches_oracle(defect_map(ising_chain(n_sites)), InducedTraceHeuristic())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ising3_differences_at_step_cap(self, n):
        # some restarts ascend for the full 100 steps (at n = 2 all 64 do)
        # while others leave the stack earlier (at n = 4 most, from step 52)
        phi = ising_difference(3, n)
        cfg = InducedTraceHeuristic()
        assert any(steps == 100 for _, steps in seesaw_oracle(phi, cfg))
        self.assert_matches_oracle(phi, cfg)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_single_restart_is_oracle_first_restart(self, seed):
        phi = ising_difference(2, 3)
        first = seesaw_oracle(phi, InducedTraceHeuristic(seed=seed))[0][0]
        got = induced_trace_norm_heuristic(phi, InducedTraceHeuristic(restarts=1, seed=seed))
        assert abs(got - first) <= 1e-13 * first


class TestMetricAxioms:
    def test_j_distance_axioms(self):
        rng = np.random.default_rng(80)
        for _ in range(5):
            ta, tb, tc = (random_channel(rng, 2) for _ in range(3))
            dab = j_distance(ta, tb)
            dba = j_distance(tb, ta)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab >= 0.0
            assert j_distance(ta, ta) == pytest.approx(0.0, abs=1e-12)
            assert dab <= j_distance(ta, tc) + j_distance(tc, tb) + 1e-10

    def test_diamond_axioms(self):
        rng = np.random.default_rng(81)
        for _ in range(3):
            ta, tb, tc = (random_channel(rng, 2) for _ in range(3))
            dab = diamond_distance(ta, tb, tol=1e-8)
            dba = diamond_distance(tb, ta, tol=1e-8)
            assert abs(dab - dba) <= 1e-7
            assert dab >= 0.0
            dac = diamond_distance(ta, tc, tol=1e-8)
            dcb = diamond_distance(tc, tb, tol=1e-8)
            assert dab <= dac + dcb + 1e-7

    def test_diamond_self_distance(self):
        t = random_channel(np.random.default_rng(82), 2)
        assert diamond_distance(t, t, tol=1e-8) <= 1e-7

    def test_distances_dominate_each_other(self):
        # J <= diamond, heuristic <= diamond on random pairs
        rng = np.random.default_rng(83)
        for _ in range(5):
            ta = random_channel(rng, 2)
            tb = random_channel(rng, 2)
            diam = diamond_distance(ta, tb, tol=1e-7)
            assert j_distance(ta, tb) <= diam + 1e-6
            assert induced_trace_distance_heuristic(ta, tb) <= diam + 1e-9


class TestUnitaryInvariance:
    def test_precomposition_leaves_distances_alone(self):
        rng = np.random.default_rng(90)
        ta = random_channel(rng, 2)
        tb = random_channel(rng, 2)
        w = unitary_superop(random_unitary(rng, 2))
        assert abs(j_distance(ta @ w, tb @ w) - j_distance(ta, tb)) <= 1e-8
        assert (
            abs(
                diamond_distance(ta @ w, tb @ w, tol=1e-9)
                - diamond_distance(ta, tb, tol=1e-9)
            )
            <= 1e-8
        )
        assert (
            abs(
                induced_trace_distance_heuristic(ta @ w, tb @ w)
                - induced_trace_distance_heuristic(ta, tb)
            )
            <= 1e-8
        )


class TestBenchmarks:
    def test_qubit_values(self):
        assert noise_benchmarks(2) == pytest.approx((1.0, 1.5), abs=1e-15)

    def test_two_qubit_values(self):
        assert noise_benchmarks(4) == pytest.approx((1.5, 1.875), abs=1e-15)

    def test_matches_complete_noise_distances(self):
        u = random_unitary(np.random.default_rng(95), 2)
        unstab, stab = noise_benchmarks(2)
        assert induced_trace_distance_heuristic(
            unitary_superop(u), complete_noise(2)
        ) == pytest.approx(unstab, abs=1e-9)
        assert j_distance(unitary_superop(u), complete_noise(2)) == pytest.approx(
            stab, abs=1e-12
        )
        assert diamond_distance(
            unitary_superop(u), complete_noise(2), tol=1e-7
        ) == pytest.approx(stab, abs=1e-6)

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            noise_benchmarks(1)


class TestMetricConfigs:
    def test_config_types_exist(self):
        assert Diamond() == Diamond()
        assert JDistance() == JDistance()
        cfg = InducedTraceHeuristic(restarts=8, seed=3)
        assert cfg.restarts == 8
        assert cfg.seed == 3


class TestMetricDispatch:
    def test_reprs_are_stable(self):
        # config_hash hashes these, so a changed repr moves every CSV header
        assert [repr(cls()) for cls in METRICS.values()] == [
            "JDistance()",
            "Diamond()",
            "InducedTraceHeuristic(restarts=64, seed=0)",
        ]

    def test_names_and_benchmarks(self):
        assert {name: cls().name for name, cls in METRICS.items()} == {
            "j": "j", "diamond": "diamond", "heuristic": "heuristic"
        }
        assert [cls().benchmark(2) for cls in METRICS.values()] == [1.5, 1.5, 1.0]

    def test_unitary_distance_matches_channel_distance(self):
        rng = np.random.default_rng(31)
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        for cls in METRICS.values():
            metric = cls()
            want = metric.distance(unitary_superop(u), unitary_superop(v))
            assert metric.unitary_distance(u, v) == pytest.approx(want, abs=1e-6)

    def test_norm_is_not_clipped_but_distance_is(self):
        # a trace-annihilating map whose J, diamond and heuristic norms are 6
        scaled = 3.0 * (unitary_superop(SX) - np.eye(4, dtype=complex))
        for cls in METRICS.values():
            assert cls().norm(scaled) == pytest.approx(6.0, abs=1e-6)
        assert induced_trace_distance_heuristic(scaled, -scaled) == 2.0


class TestStackedMetrics:
    """Each metric's ``norm`` and ``distance`` take a stack of maps: one value
    per map, equal to the value of the map alone, and a float for one map."""

    @staticmethod
    def channel_pairs(d):
        rng = np.random.default_rng(90 + d)
        ta = np.array([random_channel(rng, d) for _ in range(3)])
        tb = np.array([random_channel(rng, d) for _ in range(3)])
        return ta, tb

    @pytest.mark.parametrize("d", [2, 4])
    def test_distance_and_norm_per_map(self, d):
        ta, tb = self.channel_pairs(d)
        for metric in (JDistance(), Diamond(), InducedTraceHeuristic(restarts=4)):
            single = [metric.distance(a, b) for a, b in zip(ta, tb)]
            assert all(type(v) is float for v in single)
            assert np.array_equal(metric.distance(ta, tb), single)
            norms = [metric.norm(phi) for phi in ta - tb]
            assert np.array_equal(metric.norm(ta - tb), norms)

    def test_diamond_functions_take_stacks(self):
        ta, tb = self.channel_pairs(2)
        want = [diamond_norm_hp(a - b) for a, b in zip(ta, tb)]
        assert np.array_equal(diamond_norm_hp(ta - tb), want)
        # the identity against a bit flip reaches the clip of 2 + tol
        flip = np.array([np.eye(4, dtype=complex), unitary_superop(SX)])
        got = diamond_distance(flip, flip[::-1], tol=1e-7)
        assert got.shape == (2,) and np.all(got <= 2.0 + 1e-7)

    def test_uncertified_map_carries_the_others(self):
        # at tol 1e-13 and three iterations no map certifies
        ta, tb = self.channel_pairs(2)
        maps = ta - tb
        with pytest.raises(DiamondNormError) as exc:
            diamond_norm_hp(maps[:2], tol=1e-13, max_iter=3)
        err = exc.value
        assert [(sol.status, sol.iterations) for sol in err.solutions] == [("IterationCap", 3)] * 2
        assert np.all(np.isnan(err.values))
        assert "map 0: status=IterationCap" in str(err) and "map 1:" in str(err)
        # capped at the iterations the faster of two maps needs, that map
        # certifies with its value alone and the other stops at the cap
        pair = np.array([maps[0], 1e-3 * (unitary_superop(SX) - np.eye(4))])
        needs = [sdp.solve(hermitize(choi_from_super(phi)), 1e-7).iterations for phi in pair]
        assert needs[1] < needs[0]
        with pytest.raises(DiamondNormError) as exc:
            diamond_norm_hp(pair, tol=1e-7, max_iter=needs[1])
        err = exc.value
        assert [sol.status for sol in err.solutions] == ["IterationCap", "Optimal"]
        assert np.isnan(err.values[0])
        assert err.values[1] == diamond_norm_hp(pair[1], tol=1e-7)
        assert "map 0: status=IterationCap" in str(err) and "map 1" not in str(err)
