"""Solver-level tests: the structured Newton step against the dense bordered
system, SDPs with known answers, weak duality along the iteration, the dual
certificate, argument checks, and the diamond-norm runtime budget."""

import time

import numpy as np
import pytest

from trotopt import sdp
from trotopt.channels import TrotterPlan, faulty_trotter, ideal_map
from trotopt.experiments import build_config
from trotopt.linalg import choi_from_super, unitary_superop
from trotopt.metrics import diamond_distance, diamond_distance_unitary
from trotopt.tradeoff import commutator_defect_map, jitter_defect_map


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


def random_channel(rng, d):
    n_kraus = int(rng.integers(1, 4))
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    kraus = np.linalg.qr(g)[0].reshape(n_kraus, d, d)
    return sum(np.kron(k.conj(), k) for k in kraus)


def certificate_set():
    """Hermitian Choi matrices of the README sweep's 15 diamond solves (its
    two defect maps, then its 13 grid points) and of 20 seeded random
    channel differences, alternately d = 2 and d = 4."""
    config = build_config(
        {"hamiltonian": "ising:2", "noise": "avg-jitter:0.01", "n_grid": "log:1:64:8", "seed": "7"}
    )
    terms = list(config.terms)
    maps = [commutator_defect_map(terms), jitter_defect_map(terms)]
    for n in config.n_grid:
        plan = TrotterPlan(config.terms, t=config.t, n=n, a=config.a)
        maps.append(faulty_trotter(plan, config.noise) - ideal_map(plan))
    rng = np.random.default_rng(2024)
    for k in range(20):
        d = 2 if k % 2 == 0 else 4
        maps.append(random_channel(rng, d) - random_channel(rng, d))
    chois = [choi_from_super(phi) for phi in maps]
    return [0.5 * (j + j.conj().T) for j in chois]


# Choi matrix of the map Z(.)Z - id, whose diamond norm is 2
PHASE_FLIP = choi_from_super(unitary_superop(np.diag([1.0, -1.0]).astype(complex)) - np.eye(4))


def full(d):
    """The sectors of a Choi matrix on all of out (x) in, both of dimension ``d``."""
    return sdp._sectors(np.ones(d * d, dtype=bool))


def support(j):
    """The sectors of a Choi matrix, from its nonzero rows."""
    return sdp._sectors(np.any(j != 0, axis=-1))


def tr_out_matrix(sectors):
    """``P``: row-major ``vec(Z)`` -> ``vec(Tr_out Z)`` for ``Z`` on the rows of
    ``sectors`` (ordered sector, out, in), sector by sector onto the covered
    inputs."""
    m, r = len(sectors.rows), sectors.r
    p = np.zeros((r * r, m * m))
    row = col = 0
    for count, outs, ins, _ in sectors.runs:
        for _ in range(count):
            for a in range(outs):
                for b in range(ins):
                    for bp in range(ins):
                        p[(col + b) * r + col + bp, (row + a * ins + b) * m + row + a * ins + bp] = 1.0
            row, col = row + outs * ins, col + ins
    return p


def dense_newton(g0, g1, g2, sectors=None):
    """The bordered ``(m^2 + 1)``-square Newton matrix on row-major
    ``(vec dZ, ds)``: block ``kron(G0, G0^T) + kron(G1, G1^T) + P^T kron(G2, G2^T) P``,
    border ``-P^T vec(G2^2)``, corner ``tr G2^2``; on all of out (x) in
    unless ``sectors`` are given."""
    p = tr_out_matrix(sectors or full(g2.shape[0]))
    n = p.shape[1]
    border = p.T @ (g2 @ g2).reshape(-1)
    m = np.empty((n + 1, n + 1), dtype=complex)
    m[:n, :n] = np.kron(g0, g0.T) + np.kron(g1, g1.T) + p.T @ np.kron(g2, g2.T) @ p
    m[:n, n] = -border
    m[n, :n] = -border.conj()
    m[n, n] = np.trace(g2 @ g2).real
    return m


def random_scalings(rng, d):
    return random_pd(rng, d * d), random_pd(rng, d * d), random_pd(rng, d)


def random_rhs(rng, d):
    """A right-hand side as the solver builds it: Hermitian ``dZ`` part, real ``ds`` part."""
    rhs = np.empty(d**4 + 1, dtype=complex)
    rhs[:-1] = random_hermitian(rng, d * d).reshape(-1)
    rhs[-1] = rng.standard_normal()
    return rhs


def newton_step(gs, rhs, sectors=None):
    """``sdp._newton_step`` on one system, as a stack of one, on all of
    out (x) in unless ``sectors`` are given."""
    sectors = sectors or full(gs[2].shape[0])
    return sdp._newton_step(sectors, *(g[None] for g in gs), rhs[None])[0]


def newton_apply(gs, v, sectors=None):
    """``sdp._newton_apply`` on one vector, as a stack of one, on all of
    out (x) in unless ``sectors`` are given."""
    sectors = sectors or full(gs[2].shape[0])
    return sdp._newton_apply(sectors, *(g[None] for g in gs), v[None])[0]


def relative_residual(m, x, rhs):
    return np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs)


def graded_pd(rng, k, cond):
    """Random positive definite ``k x k`` matrix with condition number ``cond``."""
    u = random_unitary(rng, k)
    return (u * np.logspace(-0.5, 0.5, k) ** np.log10(cond)) @ u.conj().T


class TestParametrization:
    def test_round_trip(self):
        # the step, fed back through the dense bordered matrix, returns its right-hand side
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            gs = random_scalings(rng, d)
            rhs = random_rhs(rng, d)
            step = newton_step(gs, rhs)
            assert relative_residual(dense_newton(*gs), step, rhs) <= 1e-12

    def test_param_count(self):
        # one unknown per entry of dZ plus ds; the dense matrix is Hermitian
        # positive definite, and the step keeps dZ Hermitian and ds real and
        # agrees with LU on it
        rng = np.random.default_rng(12)
        for d in (1, 2, 3):
            gs = random_scalings(rng, d)
            newton = dense_newton(*gs)
            assert newton.shape == (d**4 + 1, d**4 + 1)
            assert np.max(np.abs(newton - newton.conj().T)) < 1e-12 * np.max(np.abs(newton))
            assert np.linalg.eigvalsh(newton)[0] > 0.0
            rhs = random_rhs(rng, d)
            step = newton_step(gs, rhs)
            assert step.shape == rhs.shape
            dz = step[:-1].reshape(d * d, d * d)
            assert np.max(np.abs(dz - dz.conj().T)) <= 1e-12 * np.max(np.abs(dz))
            assert step[-1].imag == 0.0
            want = np.linalg.solve(newton, rhs)
            assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want)

    def test_ill_conditioned_scalings_match_lu(self):
        # near convergence cond(G) grows past 1e8; the step must stay within
        # 100x of the residual of a dense LU there
        rng = np.random.default_rng(13)
        for d in (2, 3):
            for _ in range(3):
                gs = (graded_pd(rng, d * d, 1e8), graded_pd(rng, d * d, 1e8), graded_pd(rng, d, 1e8))
                newton = dense_newton(*gs)
                rhs = random_rhs(rng, d)
                lu = relative_residual(newton, np.linalg.solve(newton, rhs), rhs)
                assert relative_residual(newton, newton_step(gs, rhs), rhs) <= 100.0 * lu


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
        # the matrix-free Newton operator, Tr_out term included, equals the
        # dense matrix built with P^T kron(G2, G2^T) P, and the step inverts it
        rng = np.random.default_rng(22)
        for d in (1, 2, 3):
            gs = random_scalings(rng, d)
            newton = dense_newton(*gs)
            x = random_rhs(rng, d)
            want = newton @ x
            placed = newton_apply(gs, x)
            assert np.linalg.norm(placed - want) <= 1e-12 * np.linalg.norm(want)
            back = newton_step(gs, want)
            assert relative_residual(newton, back, want) <= 1e-12
            assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

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
        # an array that is neither a matrix nor a stack of them defines none
        # of the three blocks
        for shape in ((), (4,), (1, 1, 4, 4)):
            with pytest.raises(ValueError, match="d\\^2 x d\\^2"):
                sdp.solve(np.zeros(shape), tol=1e-7)

    def test_constant_must_be_hermitian(self):
        # J is the constant term of the block Z - J
        bad = PHASE_FLIP.astype(complex)
        bad[0, 1] = 1.0
        for j in (bad, np.full((4, 4), np.nan), np.full((4, 4), np.inf)):
            with pytest.raises(ValueError, match="Hermitian"):
                sdp.solve(j, tol=1e-7)


# primal values at tol 1e-9 on certificate_set() of the solver this
# structured step replaced (a dense LU of the bordered Newton matrix); every
# status there was "Optimal"
REFERENCE_VALUES = (
    8.0000000003, 10.00000000022, 0.04026582793595, 0.0208561939666,
    0.01479182459704, 0.01209540022568, 0.01023073216349, 0.01033263717197,
    0.01201953388154, 0.01446601372547, 0.02002668382208, 0.02580754467587,
    0.03452871938281, 0.04706314204602, 0.06232346445618, 1.960388381894,
    1.910702007451, 1.40271086366, 1.996190740497, 1.720362225271,
    2.000000000461, 1.174348489091, 2.000000000439, 1.905125705632,
    2.000000000424, 1.600432000236, 2.000000000732, 1.310730106792,
    1.957913946533, 1.84819564092, 2.000000000433, 1.838304305114,
    2.000000000694, 1.257338499741, 2.000000000633,
)


@pytest.fixture(scope="module")
def certificate_chois():
    return certificate_set()


class TestSolution:
    @pytest.mark.parametrize("tol, bound", [(1e-7, 1e-7), (1e-9, 1e-5)])
    def test_dual_certificate_on_fixed_set(self, certificate_chois, tol, bound):
        # the dense-LU solver reached largest dual residuals of 9.1e-8 at
        # tol 1e-7 and 6.2e-6 at tol 1e-9 on this set
        sols = [sdp.solve(j, tol) for j in certificate_chois]
        assert [sol.status for sol in sols] == ["Optimal"] * len(REFERENCE_VALUES)
        # the start is exactly dual feasible, so drift shows only when the
        # residual is read at the reported iterate
        assert 0.0 < max(sol.dual_residual for sol in sols) <= bound
        for sol, want in zip(sols, REFERENCE_VALUES):
            assert abs(sol.primal - want) <= tol

    def test_certified_value_and_trace(self):
        sol = sdp.solve(PHASE_FLIP, tol=1e-9)
        assert sol.status == "Optimal"
        assert abs(sol.primal - 2.0) <= 1e-8
        assert sol.gap == pytest.approx(abs(sol.primal - sol.dual), abs=1e-15)
        assert sol.gap <= 1e-9
        assert len(sol.trace) == sol.iterations
        assert sol.trace[-1] == (sol.primal, sol.dual)
        assert 0.0 <= sol.dual_residual <= 1e-6

    def test_iteration_cap_keeps_bounds(self):
        sol = sdp.solve(PHASE_FLIP, tol=1e-9, max_iter=2)
        assert sol.status == "IterationCap"
        assert sol.iterations == 2
        assert sol.dual <= 2.0 <= sol.primal
        assert sdp.solve(PHASE_FLIP, tol=1e-9, max_iter=1).dual_residual == 0.0


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

    @pytest.mark.parametrize("spread", [np.pi, 1e-3])
    def test_dimension_eight_matches_circle(self, spread):
        # a far and a near random pair of 3-qubit unitaries: the SDP certifies
        # the enclosing-circle value in the time budget, with weak duality
        # at every iterate
        rng = np.random.default_rng(808)
        u = random_unitary(rng, 8)
        evals, vecs = np.linalg.eigh(random_hermitian(rng, 8))
        v = u @ (vecs * np.exp(1j * spread * evals / np.max(np.abs(evals)))) @ vecs.conj().T
        choi = choi_from_super(unitary_superop(u) - unitary_superop(v))
        start = time.perf_counter()
        sol = sdp.solve(0.5 * (choi + choi.conj().T), tol=1e-7)
        assert time.perf_counter() - start < 10.0
        assert sol.status == "Optimal"
        assert abs(sol.primal - diamond_distance_unitary(u, v)) <= 1e-6
        primals, duals = np.array(sol.trace).T
        assert np.all(primals >= duals)
        assert duals.max() <= primals.min() + 1e-9


def trace_annihilating_choi(rng, d):
    """Hermitian Choi matrix of a random Hermiticity-preserving map that
    annihilates trace: a random Hermitian ``J`` less ``I (x) Tr_out J / d``."""
    j = random_hermitian(rng, d * d)
    red = np.einsum("ijil->jl", j.reshape(d, d, d, d))
    return j - np.kron(np.eye(d), red / d)


def stack_set(d):
    """Hermitian Choi matrices at dimension ``d``: random trace-annihilating
    maps, random channel differences, both defect maps of a Hamiltonian and
    Trotter channel differences under averaged jitter."""
    rng = np.random.default_rng(500 + d)
    if d == 2:
        config = build_config({"hamiltonian": "1 | x | z ; 0.5 y", "noise": "avg-jitter:0.02"})
    else:
        config = build_config({"hamiltonian": "ising:2", "noise": "avg-jitter:0.01"})
    terms = list(config.terms)
    maps = [commutator_defect_map(terms), jitter_defect_map(terms)]
    for n in (1, 3, 40):
        plan = TrotterPlan(config.terms, t=0.1, n=n, a=1.0)
        maps.append(faulty_trotter(plan, config.noise) - ideal_map(plan))
    maps += [random_channel(rng, d) - random_channel(rng, d) for _ in range(3)]
    chois = [choi_from_super(phi) for phi in maps]
    chois = [0.5 * (j + j.conj().T) for j in chois]
    return chois + [trace_annihilating_choi(rng, d) for _ in range(3)]


def same_solution(a, b):
    """Bit for bit: status, iterations, bounds, gap, dual residual and trace."""
    assert (a.status, a.iterations) == (b.status, b.iterations)
    for field in ("primal", "dual", "gap", "dual_residual"):
        x, y = getattr(a, field), getattr(b, field)
        assert x == y or (np.isnan(x) and np.isnan(y)), field
    assert a.trace == b.trace


def no_slack_root(out):
    half, invhalf, lo = out
    lo = lo.copy()
    lo[0] = -1.0
    return half, invhalf, lo


def failed_scaling(out):
    g, w_invhalf, ok = out
    ok = ok.copy()
    ok[0] = False
    return g, w_invhalf, ok


def non_finite_step(out):
    out[0] = np.nan
    return out


def no_room(out):
    out[0] = 0.0
    return out


# each NumericalFailure exit of the iteration, forced on row 0 of the stack
# as (stage, first poisoned call, poisoned calls, poison of the stage's
# result, iterations and recorded iterates of the failed problem); rows keep
# stack order, so row 0 is the lowest-index problem still running.  An
# iteration takes six _psd_sqrt_pair calls (three slack roots, then three
# inside _nt_scaling), three _nt_scaling calls, one _newton_step and six
# _max_step calls, so each poison strikes in iteration 3.
FAILURE_EXITS = {
    # the slack exit comes before the iterate is recorded
    "slack-root": ("_psd_sqrt_pair", 13, 1, no_slack_root, 3, 2),
    "nt-scaling": ("_nt_scaling", 7, 1, failed_scaling, 3, 3),
    "newton-step": ("_newton_step", 3, 1, non_finite_step, 3, 3),
    # both step bounds 0 in iterations 3, 4 and 5, after which the problem
    # leaves; the poison stops there, or the next row 0 would stall too
    "stall": ("_max_step", 13, 18, no_room, 5, 5),
}


class TestStack:
    @pytest.mark.parametrize("d", [2, 4])
    def test_each_problem_as_if_alone(self, d):
        # a problem's result does not depend on which problems share its
        # stack: the whole set, its reverse and every problem alone agree
        chois = stack_set(d)
        alone = [sdp.solve(j[None], 1e-7)[0] for j in chois]
        assert [sol.status for sol in alone] == ["Optimal"] * len(chois)
        stacked = sdp.solve(np.array(chois), 1e-7)
        reverse = sdp.solve(np.array(chois[::-1]), 1e-7)[::-1]
        assert len(stacked) == len(chois)
        for a, b, c in zip(alone, stacked, reverse):
            same_solution(a, b)
            same_solution(a, c)
        # the iterations differ across the stack, so problems left it at
        # different times
        assert len({sol.iterations for sol in alone}) > 1

    def test_a_matrix_is_a_stack_of_one(self):
        j = stack_set(2)[0]
        same_solution(sdp.solve(j, 1e-7), sdp.solve(j[None], 1e-7)[0])

    def test_uncertified_problem_leaves_others_alone(self):
        # on the README sweep config the n = 1 point needs 17 iterations and
        # the n = 64 point 16, on the same support: with a cap of 16 the
        # first stops at the cap and the second certifies, each as if alone
        chois = certificate_set()
        pair = [chois[2], chois[14]]
        assert np.array_equal(support(pair[0]).rows, support(pair[1]).rows)
        alone = [sdp.solve(j[None], 1e-7, max_iter=16)[0] for j in pair]
        stops = [(sol.status, sol.iterations) for sol in alone]
        assert stops == [("IterationCap", 16), ("Optimal", 16)]
        for a, b in zip(alone, sdp.solve(np.array(pair), 1e-7, max_iter=16)):
            same_solution(a, b)

    @pytest.mark.parametrize("exit_", list(FAILURE_EXITS))
    def test_failed_problem_leaves_others_alone(self, monkeypatch, exit_):
        # a problem that fails mid-stack ends as it does alone under the same
        # fault, and every other problem as it does alone without one
        stage, first, calls, poison, iterations, recorded = FAILURE_EXITS[exit_]
        real = getattr(sdp, stage)

        def solve_poisoned(chois):
            count = 0

            def poisoned(*args):
                nonlocal count
                count += 1
                out = real(*args)
                return poison(out) if first <= count < first + calls else out

            with monkeypatch.context() as patch:
                patch.setattr(sdp, stage, poisoned)
                return sdp.solve(np.array(chois), 1e-7)

        chois = stack_set(2)
        assert len({support(j).rows.tobytes() for j in chois}) == 1
        stacked = solve_poisoned(chois)
        failed = solve_poisoned(chois[:1])[0]
        assert (failed.status, failed.iterations) == ("NumericalFailure", iterations)
        assert len(failed.trace) == recorded
        same_solution(stacked[0], failed)
        for j, sol in zip(chois[1:], stacked[1:]):
            same_solution(sdp.solve(j[None], 1e-7)[0], sol)
        # the others were still running when the failed problem left
        assert min(sol.iterations for sol in stacked[1:]) > failed.iterations

    def test_iterations_total(self):
        # the stack reports its total iteration count as one int, beside
        # each problem's own
        chois = stack_set(2)[:3]
        sols = sdp.solve(np.array(chois), 1e-7)
        assert isinstance(sols.iterations, int)
        assert sols.iterations == sum(sol.iterations for sol in sols)
        assert sdp.solve(np.zeros((0, 4, 4)), 1e-7) == ()

    def test_failed_newton_factor_stays_in_its_row(self):
        # a row whose G0 is not positive definite comes back NaN; the other
        # rows get the step they get alone
        rng = np.random.default_rng(14)
        gs = [random_scalings(rng, 2) for _ in range(3)]
        rhs = np.array([random_rhs(rng, 2) for _ in range(3)])
        stacks = [np.array(g) for g in zip(*gs)]
        stacks[0][1] = -stacks[0][1]
        step = sdp._newton_step(full(2), *stacks, rhs)
        assert np.all(np.isnan(step[1]))
        for k in (0, 2):
            assert np.array_equal(step[k], newton_step(gs[k], rhs[k]))


def used_rows(d, edges):
    """The nonzero-row mask of a Choi matrix on out (x) in, both of dimension
    ``d``, whose nonzero rows are the ``(out, in)`` pairs ``edges``."""
    used = np.zeros(d * d, dtype=bool)
    for a, i in edges:
        used[a * d + i] = True
    return used


# output 0 with inputs 1 and 2, outputs 1 and 2 with input 0, outputs 3 and
# 4 with inputs 3 and 4, and outputs 5 and 6 each with its own input: runs of
# two sectors of size (1, 1), one of (1, 2), one of (2, 1) and one of (2, 2)
UNEQUAL = used_rows(7, [(0, 1), (0, 2), (1, 0), (2, 0), (3, 3), (3, 4), (4, 4), (5, 5), (6, 6)])


def block_diagonal_pd(rng, sectors):
    """A random positive definite matrix on the inputs that ``sectors``
    cover, block-diagonal over them."""
    g = np.zeros((sectors.r, sectors.r), dtype=complex)
    col = 0
    for count, _, ins, _ in sectors.runs:
        for _ in range(count):
            g[col : col + ins, col : col + ins] = random_pd(rng, ins)
            col += ins
    return g


def trotter_difference_choi(hamiltonian, n=4):
    """Hermitian Choi matrix of the averaged-jitter Trotter channel less the
    ideal map, at t = 0.1."""
    config = build_config({"hamiltonian": hamiltonian, "noise": "avg-jitter:0.01"})
    plan = TrotterPlan(config.terms, t=0.1, n=n, a=1.0)
    j = choi_from_super(faulty_trotter(plan, config.noise) - ideal_map(plan))
    return 0.5 * (j + j.conj().T)


def defect_chois(hamiltonian):
    """Hermitian Choi matrices of the commutator and jitter defect maps."""
    terms = list(build_config({"hamiltonian": hamiltonian}).terms)
    chois = [choi_from_super(phi) for phi in (commutator_defect_map(terms), jitter_defect_map(terms))]
    return [0.5 * (j + j.conj().T) for j in chois]


class TestSupport:
    def test_parity_sectors_of_the_ising_pair(self):
        # the Trotter difference keeps the two parity sectors; the
        # commutator defect map splits more finely
        sectors = support(trotter_difference_choi("ising:2", n=16))
        assert sorted(sectors.rows.tolist()) == [0, 3, 5, 6, 9, 10, 12, 15]
        assert sectors.runs == ((2, 2, 2, 0),)
        assert (sectors.r, sectors.max_out) == (4, 2)
        assert support(defect_chois("ising:2")[0]).runs == ((2, 1, 1, 0), (1, 2, 2, 2))

    def test_connected_rows_give_one_full_sector(self):
        # rows (0, 0), (1, 0) and (1, 1) join both outputs and both inputs;
        # a map with no nonzero row is solved on the full space too
        for used in (used_rows(2, [(0, 0), (1, 0), (1, 1)]), np.zeros(4, dtype=bool)):
            sectors = sdp._sectors(used)
            assert sectors.rows.tolist() == [0, 1, 2, 3]
            assert sectors.runs == ((1, 2, 2, 0),)
            assert (sectors.r, sectors.max_out) == (2, 2)

    def test_unequal_sectors(self):
        sectors = sdp._sectors(UNEQUAL)
        # ordered by size; row (a, i) is 7 a + i, and (4, 3) joins (3, 4)
        assert sectors.rows.tolist() == [40, 48, 1, 2, 7, 14, 24, 25, 31, 32]
        assert sectors.runs == ((2, 1, 1, 0), (1, 1, 2, 2), (1, 2, 1, 4), (1, 2, 2, 6))
        assert (sectors.r, sectors.max_out) == (7, 2)
        blocks = np.eye(7, dtype=bool)
        blocks[2:4, 2:4] = blocks[5:7, 5:7] = True
        assert np.array_equal(sectors.mask, blocks)

    def test_newton_operator_on_unequal_sectors(self):
        # the matrix-free operator equals the dense matrix built with the
        # sector-restricted Tr_out, the structured inverse inverts it, and
        # the step returns the vector it was applied to
        rng = np.random.default_rng(31)
        sectors = sdp._sectors(UNEQUAL)
        m = len(sectors.rows)
        for _ in range(3):
            gs = random_pd(rng, m), random_pd(rng, m), block_diagonal_pd(rng, sectors)
            newton = dense_newton(*gs, sectors)
            assert np.linalg.eigvalsh(newton)[0] > 0.0
            x = np.empty(m * m + 1, dtype=complex)
            x[:-1] = random_hermitian(rng, m).reshape(-1)
            x[-1] = rng.standard_normal()
            want = newton @ x
            placed = newton_apply(gs, x, sectors)
            assert np.linalg.norm(placed - want) <= 1e-12 * np.linalg.norm(want)
            ok, factors = sdp._structured_inverse(sectors, *(g[None] for g in gs))
            assert ok.all()
            assert relative_residual(newton, sdp._inverse_apply(factors, want[None])[0], want) <= 1e-12
            back = newton_step(gs, want, sectors)
            assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    def test_reduced_matches_full(self):
        # a conjugation by U (x) V keeps the diamond norm and leaves no
        # exact zero, so the conjugated map is solved on the full space
        rng = np.random.default_rng(41)
        tol = 1e-7
        chois = [*defect_chois("ising:2"), trotter_difference_choi("ising:2")]
        chois += [trotter_difference_choi("ising:3"), defect_chois("3 | xx. ; yy. | .xx ; .yy")[0]]
        for j in chois:
            d = int(round(np.sqrt(j.shape[0])))
            uv = np.kron(random_unitary(rng, d), random_unitary(rng, d))
            turned = uv @ j @ uv.conj().T
            assert len(support(j).rows) < d * d
            assert support(turned).rows.tolist() == list(range(d * d))
            reduced, whole = sdp.solve(j, tol), sdp.solve(turned, tol)
            assert (reduced.status, whole.status) == ("Optimal", "Optimal")
            assert abs(reduced.primal - whole.primal) <= tol


def tr_out_oracle(sectors, z):
    """``Tr_out`` of each matrix of a stack on the rows of ``sectors``, by a
    plain loop over the sectors, each entry's terms added in output order."""
    m, r = len(sectors.rows), sectors.r
    out = np.zeros((len(z), r, r), dtype=z.dtype)
    row = col = 0
    for count, outs, ins, _ in sectors.runs:
        for _ in range(count):
            block = z[:, row : row + outs * ins, row : row + outs * ins].reshape(-1, outs, ins, outs, ins)
            out[:, col : col + ins, col : col + ins] = sum(block[:, a, :, a, :] for a in range(outs))
            row, col = row + outs * ins, col + ins
    assert (row, col) == (m, r)
    return out


class TestTrOut:
    LAYOUTS = {
        "ising:2": lambda: support(trotter_difference_choi("ising:2")),
        "ising:3": lambda: support(trotter_difference_choi("ising:3")),
        "unequal": lambda: sdp._sectors(UNEQUAL),
        "full": lambda: full(3),
        "zero-map": lambda: sdp._sectors(np.zeros(9, dtype=bool)),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_adjoint_of_lift_and_loop_oracle(self, layout):
        rng = np.random.default_rng(53)
        sectors = self.LAYOUTS[layout]()
        m, r = len(sectors.rows), sectors.r
        for count in (0, 1, 4):
            shape = (count, m, m)
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            y = rng.standard_normal((count, r, r)) + 1j * rng.standard_normal((count, r, r))
            y = np.where(sectors.mask, y, 0.0)
            reduced = sdp._tr_out(sectors, z)
            assert reduced.shape == (count, r, r)
            assert np.array_equal(reduced, tr_out_oracle(sectors, z))
            # exactly block-diagonal over the sectors
            assert not np.any(reduced[:, ~sectors.mask])
            lhs = sdp._dot(sdp._lift(sectors, y), z)
            rhs = sdp._dot(y, reduced)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
