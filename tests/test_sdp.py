"""Solver-level tests: the Newton block and its vec convention, SDPs with
known answers, weak duality along the iteration, argument checks, and the
diamond-norm runtime budget."""

import time

import numpy as np
import pytest

from trotopt import sdp
from trotopt.linalg import choi_from_super, partial_trace, unitary_superop
from trotopt.metrics import diamond_distance, diamond_distance_unitary


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def random_pd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T + 0.1 * np.eye(d)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# Choi matrix of the map Z(.)Z - id, whose diamond norm is 2
PHASE_FLIP = choi_from_super(unitary_superop(np.diag([1.0, -1.0]).astype(complex)) - np.eye(4))


def tr_out_matrix(d):
    """``P``: row-major ``vec(Z)`` -> ``vec(Tr_out Z)`` for ``Z`` on out (x) in."""
    p = np.zeros((d * d, d**4))
    for a in range(d):
        for b in range(d):
            for bp in range(d):
                p[b * d + bp, (a * d + b) * d * d + a * d + bp] = 1.0
    return p


def newton_operator(g0, g1, g2, dz):
    """The Newton block applied to a matrix: ``G0 dZ G0 + G1 dZ G1 + I (x) G2 Tr_out(dZ) G2``."""
    d = g2.shape[0]
    return g0 @ dz @ g0 + g1 @ dz @ g1 + np.kron(np.eye(d), g2 @ partial_trace(dz, (d, d), 1) @ g2)


def random_scalings(rng, d):
    return random_pd(rng, d * d), random_pd(rng, d * d), random_pd(rng, d)


class TestParametrization:
    def test_round_trip(self):
        # the block acting on row-major vec(dZ) reproduces the operator on dZ
        rng = np.random.default_rng(11)
        for d in (2, 3):
            gs = random_scalings(rng, d)
            dz = random_hermitian(rng, d * d)
            back = (sdp._newton_block(*gs) @ dz.reshape(-1)).reshape(d * d, d * d)
            want = newton_operator(*gs, dz)
            assert np.max(np.abs(back - want)) < 1e-12 * np.max(np.abs(want))

    def test_param_count(self):
        # one complex unknown per entry of dZ; the block is Hermitian positive definite
        rng = np.random.default_rng(12)
        for d in (1, 2, 3):
            block = sdp._newton_block(*random_scalings(rng, d))
            assert block.shape == (d**4, d**4)
            assert np.max(np.abs(block - block.conj().T)) < 1e-12 * np.max(np.abs(block))
            assert np.linalg.eigvalsh(block)[0] > 0.0


def lambda_max_solution(a, tol=1e-9):
    """Solve for ``J = |0><0| (x) A``, whose value is ``2 max(lambda_max(A), 0)``:
    ``Z = |0><0| (x) A_+`` is feasible, and every feasible ``Z`` has
    ``Tr_out Z >= <0|Z|0> >= A`` and ``Tr_out Z >= 0``."""
    a = np.asarray(a, dtype=complex)
    corner = np.zeros((a.shape[0], a.shape[0]))
    corner[0, 0] = 1.0
    return sdp.solve(np.kron(corner, a), tol=tol)


class TestLambdaMax:
    def test_diagonal(self):
        sol = lambda_max_solution(np.diag([1.0, 3.0, -2.0]), tol=1e-9)
        assert sol.status == "Optimal"
        assert sol.gap <= 1e-9
        assert abs(sol.primal - 6.0) <= 1e-8

    def test_identity(self):
        sol = lambda_max_solution(np.eye(3), tol=1e-9)
        assert sol.status == "Optimal"
        assert abs(sol.primal - 2.0) <= 1e-8

    @pytest.mark.parametrize("scale", [2, 5, 16, 40])
    def test_random_hermitian(self, scale):
        # the start depends on the scale of J through beta
        rng = np.random.default_rng(100 + scale)
        a = scale * random_hermitian(rng, 3)
        want = 2.0 * float(np.linalg.eigvalsh(a)[-1])
        assert want > 0.0
        sol = lambda_max_solution(a, tol=1e-8)
        assert sol.status == "Optimal"
        assert abs(sol.primal - want) <= 1e-7

    def test_weak_duality_every_iterate(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 4)
        want = 2.0 * max(float(np.linalg.eigvalsh(a)[-1]), 0.0)
        sol = lambda_max_solution(a, tol=1e-8)
        assert sol.status == "Optimal"
        assert len(sol.trace) == sol.iterations
        for primal, dual in sol.trace:
            assert primal - dual >= -1e-12
            assert primal >= want - 1e-9
            assert dual <= want + 1e-9

    def test_gap_is_primal_minus_dual(self):
        sol = lambda_max_solution(np.diag([0.0, 2.0]), tol=1e-9)
        assert sol.gap == pytest.approx(abs(sol.primal - sol.dual), abs=1e-15)
        assert abs(sol.primal - 4.0) <= 1e-8


class TestLinearPlacement:
    def test_negative_eigenvalue_sum(self):
        # rho -> tr(rho) sigma with traceless sigma: the diamond norm is
        # |sigma|_1, twice the magnitude of its negative eigenvalue sum
        rng = np.random.default_rng(21)
        sigma = random_hermitian(rng, 4)
        sigma -= np.trace(sigma) / 4 * np.eye(4)
        evals = np.linalg.eigvalsh(sigma)
        sol = sdp.solve(np.kron(sigma, np.eye(4)), tol=1e-9)
        assert sol.status == "Optimal"
        assert abs(sol.primal + 2.0 * float(evals[evals < 0.0].sum())) <= 1e-7

    def test_linear_placement_matches_direct(self):
        # the indexed placement of the Tr_out term equals P^T kron(G2, G2^T) P
        rng = np.random.default_rng(22)
        for d in (1, 2, 3):
            g0, g1, g2 = random_scalings(rng, d)
            p = tr_out_matrix(d)
            direct = np.kron(g0, g0.T) + np.kron(g1, g1.T) + p.T @ np.kron(g2, g2.T) @ p
            placed = sdp._newton_block(g0, g1, g2)
            assert np.max(np.abs(placed - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_conjugated_objective_invariant(self):
        # unitaries before and after a map leave its diamond norm unchanged
        rng = np.random.default_rng(23)
        mixed = 0.5 * (unitary_superop(random_unitary(rng, 2)) + unitary_superop(random_unitary(rng, 2)))
        j = choi_from_super(mixed - unitary_superop(random_unitary(rng, 2)))
        uv = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        sol_a = sdp.solve(j, tol=1e-9)
        sol_b = sdp.solve(uv @ j @ uv.conj().T, tol=1e-9)
        assert sol_a.status == "Optimal"
        assert sol_b.status == "Optimal"
        assert abs(sol_a.primal - sol_b.primal) <= 1e-8


class TestValidation:
    def test_tol_positive(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                sdp.solve(PHASE_FLIP, tol=tol)

    def test_choi_shape_checked(self):
        with pytest.raises(ValueError, match="d\\^2 x d\\^2"):
            sdp.solve(np.zeros((3, 3)), tol=1e-7)

    def test_no_variables(self):
        # d = 0 leaves no Z to optimize over
        with pytest.raises(ValueError, match="d >= 1"):
            sdp.solve(np.zeros((0, 0)), tol=1e-7)

    def test_no_blocks(self):
        # an array that is not a matrix defines none of the three blocks
        for shape in ((), (4,), (1, 4, 4)):
            with pytest.raises(ValueError, match="d\\^2 x d\\^2"):
                sdp.solve(np.zeros(shape), tol=1e-7)

    def test_constant_must_be_hermitian(self):
        # J is the constant term of the block Z - J
        bad = PHASE_FLIP.astype(complex)
        bad[0, 1] = 1.0
        for j in (bad, np.full((4, 4), np.nan), np.full((4, 4), np.inf)):
            with pytest.raises(ValueError, match="Hermitian"):
                sdp.solve(j, tol=1e-7)


class TestSolution:
    def test_certified_value_and_trace(self):
        sol = sdp.solve(PHASE_FLIP, tol=1e-9)
        assert sol.status == "Optimal"
        assert abs(sol.primal - 2.0) <= 1e-8
        assert sol.gap == pytest.approx(abs(sol.primal - sol.dual), abs=1e-15)
        assert sol.gap <= 1e-9
        assert len(sol.trace) == sol.iterations
        assert sol.trace[-1] == (sol.primal, sol.dual)

    def test_iteration_cap_keeps_bounds(self):
        sol = sdp.solve(PHASE_FLIP, tol=1e-9, max_iter=2)
        assert sol.status == "IterationCap"
        assert sol.iterations == 2
        assert sol.dual <= 2.0 <= sol.primal


class TestDiamondThroughSolver:
    def test_bit_flip_distance(self):
        ident = np.eye(4, dtype=complex)
        flip = unitary_superop(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        val = diamond_distance(ident, flip, tol=1e-7)
        assert abs(val - 2.0) <= 1e-6

    def test_dimension_four_within_budget(self):
        rng = np.random.default_rng(404)
        u = random_unitary(rng, 4)
        start = time.perf_counter()
        val = diamond_distance(unitary_superop(u), np.eye(16, dtype=complex), tol=1e-7)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        want = diamond_distance_unitary(u, np.eye(4, dtype=complex))
        assert abs(val - want) <= 1e-5
