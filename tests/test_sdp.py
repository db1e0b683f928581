"""Solver-level tests: eigenvalue problems with known answers, placement
helpers, weak duality along the iteration, and the diamond-norm runtime
budget."""

import time

import numpy as np
import pytest

from trotopt import sdp
from trotopt.linalg import unitary_superop
from trotopt.metrics import diamond_distance, diamond_distance_unitary


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lambda_max_solution(a, tol=1e-9):
    """min s subject to s*I - A >= 0."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    prob = sdp.SdpProblem()
    s = prob.add_scalar()
    blk = prob.add_block(d, const=-a)
    prob.place_scalar(blk, s)
    prob.set_objective_scalar(s, 1.0)
    bound = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    return sdp.solve(prob, tol=tol, x0=np.array([bound]), z0=[np.eye(d, dtype=complex) / d])


class TestParametrization:
    def test_round_trip(self):
        # a placed variable evaluated at the parameters of m reproduces m
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 5)
        prob = sdp.SdpProblem()
        prob.place_hermitian(prob.add_block(5), prob.add_hermitian(5))
        [(n, f0, a)] = prob.compiled_blocks()
        back = f0 + (a.T @ sdp.params_from_hermitian(m)).reshape(n, n, order="F")
        assert np.max(np.abs(back - m)) < 1e-15

    def test_param_count(self):
        prob = sdp.SdpProblem()
        y = prob.add_hermitian(6)
        assert y.n_params == 36
        assert prob.n_params == 36


class TestLambdaMax:
    def test_diagonal(self):
        sol = lambda_max_solution(np.diag([1.0, 3.0, -2.0]), tol=1e-9)
        assert sol.status == "Optimal"
        assert sol.gap <= 1e-9
        assert abs(sol.primal - 3.0) <= 1e-8

    def test_identity(self):
        sol = lambda_max_solution(np.eye(3), tol=1e-9)
        assert sol.status == "Optimal"
        assert abs(sol.primal - 1.0) <= 1e-8

    @pytest.mark.parametrize("d", [2, 5, 16, 40])
    def test_random_hermitian(self, d):
        rng = np.random.default_rng(100 + d)
        a = random_hermitian(rng, d)
        want = float(np.linalg.eigvalsh(a)[-1])
        sol = lambda_max_solution(a, tol=1e-8)
        assert sol.status == "Optimal"
        assert abs(sol.primal - want) <= 1e-7

    def test_weak_duality_every_iterate(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        want = float(np.linalg.eigvalsh(a)[-1])
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


def bounded_trace_problem(gamma, conjugate_by=None):
    """min <Gamma, Y> over 0 <= Y <= I, optionally posing the PSD constraint
    as U Y U^dag >= 0 through a linear placement (same feasible set)."""
    d = gamma.shape[0]
    prob = sdp.SdpProblem()
    y = prob.add_hermitian(d)
    b1 = prob.add_block(d)
    if conjugate_by is None:
        prob.place_hermitian(b1, y)
    else:
        u = conjugate_by
        prob.place_linear(b1, y, lambda m: u @ m @ u.conj().T)
    b2 = prob.add_block(d, const=np.eye(d, dtype=complex))
    prob.place_hermitian(b2, y, coeff=-1.0)
    prob.set_objective_matrix(y, gamma)
    x0 = np.zeros(prob.n_params)
    x0[y.start : y.start + d] = 0.5
    return prob, x0


def negative_part_sum(gamma):
    evals = np.linalg.eigvalsh(gamma)
    return float(evals[evals < 0.0].sum())


class TestLinearPlacement:
    def test_negative_eigenvalue_sum(self):
        rng = np.random.default_rng(21)
        gamma = random_hermitian(rng, 4)
        prob, x0 = bounded_trace_problem(gamma)
        sol = sdp.solve(prob, tol=1e-9, x0=x0)
        assert sol.status == "Optimal"
        assert abs(sol.primal - negative_part_sum(gamma)) <= 1e-7

    def test_linear_placement_matches_direct(self):
        rng = np.random.default_rng(22)
        gamma = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        direct, x0 = bounded_trace_problem(gamma)
        placed, x1 = bounded_trace_problem(gamma, conjugate_by=u)
        sol_a = sdp.solve(direct, tol=1e-9, x0=x0)
        sol_b = sdp.solve(placed, tol=1e-9, x0=x1)
        assert sol_a.status == "Optimal"
        assert sol_b.status == "Optimal"
        assert abs(sol_a.primal - sol_b.primal) <= 1e-8

    def test_conjugated_objective_invariant(self):
        rng = np.random.default_rng(23)
        gamma = random_hermitian(rng, 5)
        u = random_unitary(rng, 5)
        prob_a, x0a = bounded_trace_problem(gamma)
        prob_b, x0b = bounded_trace_problem(u @ gamma @ u.conj().T)
        sol_a = sdp.solve(prob_a, tol=1e-9, x0=x0a)
        sol_b = sdp.solve(prob_b, tol=1e-9, x0=x0b)
        assert abs(sol_a.primal - sol_b.primal) <= 1e-8


class TestValidation:
    def test_tol_positive(self):
        prob, x0 = bounded_trace_problem(np.eye(2))
        with pytest.raises(ValueError, match="tol"):
            sdp.solve(prob, tol=0.0, x0=x0)

    def test_no_variables(self):
        with pytest.raises(ValueError, match="variable"):
            sdp.solve(sdp.SdpProblem(), tol=1e-8)

    def test_no_blocks(self):
        prob = sdp.SdpProblem()
        prob.add_scalar()
        with pytest.raises(ValueError, match="block"):
            sdp.solve(prob, tol=1e-8)

    def test_block_dimension_cap(self):
        prob = sdp.SdpProblem()
        with pytest.raises(ValueError, match="block dimension"):
            prob.add_block(sdp.MAX_BLOCK_DIM + 1)

    def test_constant_must_be_hermitian(self):
        prob = sdp.SdpProblem()
        with pytest.raises(ValueError, match="Hermitian"):
            prob.add_block(2, const=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_infeasible_start_reported(self):
        a = np.diag([1.0, 3.0, -2.0])
        d = a.shape[0]
        prob = sdp.SdpProblem()
        s = prob.add_scalar()
        blk = prob.add_block(d, const=-a)
        prob.place_scalar(blk, s)
        prob.set_objective_scalar(s, 1.0)
        sol = sdp.solve(prob, tol=1e-9, x0=np.array([0.0]))
        assert sol.status == "NumericalFailure"

    def test_dual_start_shape_checked(self):
        prob, x0 = bounded_trace_problem(np.eye(2))
        with pytest.raises(ValueError, match="dual start"):
            sdp.solve(prob, tol=1e-8, x0=x0, z0=[np.eye(3), np.eye(2)])


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
