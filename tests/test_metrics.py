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

from trotopt.channels import complete_noise, depolarizing_superop
from trotopt.linalg import trace_norm, unitary_superop
from trotopt.metrics import (
    METRICS,
    Diamond,
    DiamondNormError,
    InducedTraceHeuristic,
    JDistance,
    diamond_distance,
    diamond_distance_unitary,
    diamond_norm_hp,
    induced_trace_distance_heuristic,
    j_distance,
    j_norm,
    noise_benchmarks,
    trace_distance,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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
    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(zero, one) == pytest.approx(2.0, abs=1e-12)

    def test_zero_versus_plus(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert trace_distance(zero, plus) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identical_states(self):
        rho = random_state(np.random.default_rng(3), 4)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_pure_state_overlap_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            want = 2.0 * np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
            got = trace_distance(np.outer(a, a.conj()), np.outer(b, b.conj()))
            assert got == pytest.approx(want, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="trace"):
            trace_distance(2.0 * np.eye(2), np.eye(2) / 2.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            trace_distance(np.eye(2) / 2.0, np.eye(3) / 3.0)


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

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="differ"):
            j_distance(np.eye(4, dtype=complex), np.eye(9, dtype=complex))


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
        err = exc.value
        assert err.status == "IterationCap"
        assert err.iterations == 3
        assert np.isfinite(err.primal)
        assert err.dual <= err.primal

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
