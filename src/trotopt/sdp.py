"""Interior-point solver for the one semidefinite program behind the diamond
norm.

For a Hermiticity-preserving, trace-annihilating map whose Choi matrix ``J``
lives on output (x) input, both of dimension ``d``, Watrous's single-variable
dual (arXiv:1207.5726) gives the diamond norm as

    min 2 s  over Hermitian Z (d^2 x d^2) and real s,
    subject to  S0 = Z - J >= 0,  S1 = Z >= 0,  S2 = s I - Tr_out Z >= 0.

The program is solved on the support of ``J``.  Its sectors are the
connected components of the bipartite graph that joins output ``a`` to input
``i`` wherever row ``(a, i)`` of ``J`` is nonzero; with ``Pi_k`` and
``Pi'_k`` the output and input projectors of sector ``k``, ``J`` is exactly
zero outside ``P = sum_k Pi_k (x) Pi'_k``.  For a feasible ``Z``, ``PZP`` is
feasible too, and ``Tr_out(PZP) = sum_k Pi'_k A_k Pi'_k`` with
``A_k = Tr_out[(Pi_k (x) I) Z (Pi_k (x) I)] >= 0`` and
``sum_k A_k <= Tr_out Z``: it lies below the pinching of ``Tr_out Z``, so
its norm is no larger and the program restricted to ``P`` has the same
optimum (a support of single coordinates would not do, as its ``Tr_out`` is
no pinching).  There ``Z`` has the ``m = sum_k |out_k| |in_k|`` rows of
``P``, ordered (sector, out, in), and ``Tr_out`` maps it to a block-diagonal
matrix on the ``r = sum_k |in_k|`` inputs that the sectors cover; ``S2``,
``W2`` and the scaling ``G2`` are block-diagonal too.  The README's
``ising:2`` maps keep 8 of 16 rows, and ``ising:3`` maps 32 of 64.  A map
with one sector, or with none (``J = 0``), is solved on all of out (x) in,
its rows in their own order.

The dual blocks ``W0, W1`` (``m x m``) and ``W2`` (``r x r``) are PSD with
``W0 + W1 = lift(W2)`` and ``tr W2 = 2``, where ``lift``, the adjoint of
``Tr_out``, puts ``I (x) Y_k`` on the rows of sector ``k``.  Weak duality
``2 s - <J, W0> = sum_k <S_k, W_k> >= 0`` holds for every feasible pair; the
reported dual value is ``2 s - sum_k <S_k, W_k>``, which equals ``<J, W0>``
while the dual equalities hold exactly and stays a weak-duality partner of the
primal value under floating-point drift of those equalities, so the reported
gap is always the complementarity of a strictly PSD pair.  Both values are
recorded at every iterate.

The start is strictly feasible by construction: ``Z = beta I`` with
``beta = max |eig J| + 1``, ``s = beta max_k |out_k| + 1`` (so ``S2 >= I``),
``W0 = W1 = I/r`` and ``W2 = 2I/r``.  The iteration is a feasible-start
primal-dual method with Nesterov-Todd scaling ``G_k`` (``G_k S_k G_k = W_k``;
Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998), a fixed barrier reduction
factor ``SIGMA = 0.3``, fraction-to-boundary 0.98 and an iteration cap of 200.
Each iteration solves the Newton system on ``(dZ, ds)``

    G0 dZ G0 + G1 dZ G1 + lift(G2 (Tr_out dZ - ds I) G2) = R,
    tr(G2^2) ds - <lift(G2^2), dZ>                        = r_s,

whose operator is Hermitian positive definite, without forming it.  The
``G0 dZ G0 + G1 dZ G1`` part is inverted by simultaneous diagonalization of
``G0`` and ``G1``, the ``Tr_out`` term, of rank ``R = sum_k |in_k|^2``,
through Woodbury and ``ds`` through a scalar Schur complement
(:func:`_structured_inverse`).  That inverse, exact in exact arithmetic,
preconditions at most ``CG_MAX_ITER`` conjugate-gradient steps on the
operator applied matrix-free, which restore the accuracy the structured
inverse loses as ``cond(G_k)`` approaches 1e10 near convergence.  One
iteration costs O(m^2 R^2 + m^3) time and O(m^2 R) memory, O(d^8) and O(d^6)
on the full space, against O(m^6) and O(m^4) for a dense LU of the
``(m^2 + 1)``-square system.

:func:`solve` takes a stack of problems.  Those with the same support step in
lockstep: every array of the iteration has one row per problem still running,
every operation acts row by row (one stacked LAPACK or BLAS call per matrix
of the stack), and each problem leaves the stack at its own stopping test,
where all those arrays are cut together; what outlives its exit is written
into its :class:`SdpSolution`.  Problems with another support form their own
stack.  So a problem's result does not depend on the others in its stack,
while the cost of each numpy call is paid once per stack rather than once
per problem; at d = 4 that cost, about 1.3 ms per iteration, is most of a
solve.

Everything is dense numpy and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .linalg import blocks, hermitize

SIGMA = 0.3
BOUNDARY_FRACTION = 0.98
DEFAULT_MAX_ITER = 200
CG_RTOL = 1e-13
CG_MAX_ITER = 10
# the largest max |J - J^dag| of a Choi matrix taken as Hermitian
CHOI_HERMITIAN_ATOL = 1e-10


@dataclass
class SdpSolution:
    """One problem's result.  ``iterations``, ``status`` (``"Optimal"``,
    ``"IterationCap"`` or ``"NumericalFailure"``) and ``trace``, the
    ``(primal, dual)`` pair of each recorded iterate, are written in place as
    the problem runs; ``primal``, ``dual``, their ``gap`` and
    ``dual_residual = max(|W0 + W1 - lift(W2)|_max, |tr W2 - 2|)`` are filled
    from its last recorded iterate when it leaves."""

    primal: float
    dual: float
    gap: float
    iterations: int
    status: str
    trace: list[tuple[float, float]] = field(default_factory=list)
    dual_residual: float = np.nan


class SdpStack(tuple):
    """The :class:`SdpSolution` of each problem of a stack, in stack order."""

    @property
    def iterations(self) -> int:
        """The iterations of all problems of the stack, summed."""
        return sum(sol.iterations for sol in self)


@dataclass(frozen=True)
class _Sectors:
    """The support ``P = sum_k Pi_k (x) Pi'_k`` of a Choi matrix on out (x) in.

    ``rows`` are the rows of out (x) in that ``P`` keeps, ordered (sector,
    out, in).  Sectors of equal size sit next to each other, one entry of
    ``runs`` per size: ``(sectors, outs, ins, row)`` has ``sectors`` sectors
    of ``outs`` outputs and ``ins`` inputs each, whose rows start at ``row``
    of the support.  On an ``r x r`` matrix over the covered inputs,
    ``cells`` are the flat positions of the diagonal blocks, sector by
    sector and row-major in each, and ``mask`` is True there; ``lift_to``
    are the flat positions of an ``m x m`` matrix that ``lift`` fills, from
    the flat positions ``lift_from`` of the ``r x r`` one.
    """

    rows: np.ndarray
    runs: tuple[tuple[int, int, int, int], ...]
    r: int
    max_out: int
    cells: np.ndarray
    mask: np.ndarray
    lift_to: np.ndarray
    lift_from: np.ndarray


def _sectors(used: np.ndarray) -> _Sectors:
    """The sectors of a Choi matrix on out (x) in, both of dimension ``d``,
    from the mask ``used`` (length ``d^2``) of its nonzero rows: the
    connected components of the bipartite graph with an edge ``a - i`` for
    each used row ``(a, i)``, ordered by size (outputs, then inputs) and
    within a size as :func:`linalg.blocks` orders them.  A component without
    an output or an input keeps no row, and a mask with no used row gives
    one sector of all of out (x) in."""
    d = math.isqrt(used.size)
    graph = np.zeros((2 * d, 2 * d), dtype=bool)
    graph[:d, d:] = used.reshape(d, d)
    parts = [(c[c < d], c[c >= d] - d) for c in blocks(graph)]
    parts = [(outs, ins) for outs, ins in parts if outs.size and ins.size]
    parts = sorted(parts or [(np.arange(d), np.arange(d))], key=lambda p: (p[0].size, p[1].size))
    m = sum(outs.size * ins.size for outs, ins in parts)
    r = sum(ins.size for _, ins in parts)
    rows, runs, cells, lift_to, lift_from = [], [], [], [], []
    row = col = 0
    for outs, ins in parts:
        if runs and runs[-1][1:3] == [outs.size, ins.size]:
            runs[-1][0] += 1
        else:
            runs.append([1, outs.size, ins.size, row])
        rows.append((outs[:, None] * d + ins).ravel())
        at = np.arange(ins.size)
        cell = ((col + at[:, None]) * r + col + at).ravel()
        lifted = row + np.arange(outs.size)[:, None] * ins.size + at
        cells.append(cell)
        lift_to.append((lifted[:, :, None] * m + lifted[:, None, :]).ravel())
        lift_from.append(np.tile(cell, outs.size))
        row, col = row + lifted.size, col + ins.size
    cells = np.concatenate(cells)
    mask = np.zeros(r * r, dtype=bool)
    mask[cells] = True
    return _Sectors(
        np.concatenate(rows), tuple(map(tuple, runs)), r, max(outs.size for outs, _ in parts),
        cells, mask.reshape(r, r), np.concatenate(lift_to), np.concatenate(lift_from),
    )


def _rows(keep: np.ndarray, items):
    """``items`` with every array cut to the rows where the mask ``keep`` is
    True; lists and tuples are cut item by item, and None stays None."""
    if items is None:
        return None
    if isinstance(items, (list, tuple)):
        return type(items)(_rows(keep, item) for item in items)
    return items[keep]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re <A_k, B_k>`` for each row ``k``, as ``np.vdot`` computes it."""
    rows = (len(a), math.prod(a.shape[1:]))
    return np.vecdot(a.reshape(rows), b.reshape(rows)).real


def _norm(v: np.ndarray) -> np.ndarray:
    """The norm of each row of ``v``, as ``np.linalg.norm`` computes it."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A_k x_k`` for each row ``k``."""
    return (a @ x[:, :, None])[:, :, 0]


def _adj(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _psd_sqrt_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(M^(1/2), M^(-1/2), min eigenvalue)`` of each Hermitian ``M`` of a
    stack; the roots mean nothing where the eigenvalue is not positive."""
    evals, vecs = np.linalg.eigh(m)
    lo = evals[:, 0]
    root = np.sqrt(np.where(lo[:, None] > 0.0, evals, 1.0))[:, None, :]
    vecs_adj = _adj(vecs)
    return (vecs * root) @ vecs_adj, (vecs / root) @ vecs_adj, lo


def _max_step(shrink_half: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Largest alpha with ``M + alpha * D > 0`` given ``M^(-1/2)``, per row."""
    lo = np.linalg.eigvalsh(hermitize(shrink_half @ direction @ shrink_half))[:, 0]
    return np.divide(-1.0, lo, out=np.full(len(lo), np.inf), where=lo < 0.0)


def _newton_apply(sectors: _Sectors, g0, g1, g2, v: np.ndarray) -> np.ndarray:
    """The Newton operator on each row ``v = (vec dZ, ds)``:
    ``(G0 dZ G0 + G1 dZ G1 + lift(G2 (Tr_out dZ - ds I) G2),
    tr(G2^2) ds - <lift(G2^2), dZ>)``."""
    count, m = len(v), g0.shape[-1]
    dz = v[:, :-1].reshape(count, m, m)
    red = _tr_out(sectors, dz)
    shift = v[:, -1].real[:, None, None] * np.eye(sectors.r)
    out = np.empty_like(v)
    image = g0 @ dz @ g0 + g1 @ dz @ g1 + _lift(sectors, g2 @ (red - shift) @ g2)
    out[:, :-1] = image.reshape(count, m * m)
    out[:, -1] = _dot(g2, g2 @ (shift - red))
    return out


def _structured_inverse(sectors: _Sectors, g0, g1, g2):
    """The inverse of the Newton operator of :func:`_newton_apply`, as
    ``(ok, factors)`` for :func:`_inverse_apply`; ``ok`` is False on the rows
    where ``G0`` is not positive definite, and their factors mean nothing.
    ``G2`` must be block-diagonal over the sectors.

    ``K(X) = G0 X G0 + G1 X G1`` is inverted by simultaneous
    diagonalization: with ``G0 = L L^+`` and ``L^-1 G1 L^-+ = V diag(lam) V^+``,
    ``T = L^-+ V`` gives ``K^-1 = S S^+`` with ``S(Y) = T (Y / D^(1/2)) T^+``
    and ``D = 1 + lam lam^T`` (entry by entry).  The ``Tr_out`` term is
    ``U C U^+`` with ``U Y = lift(Y)`` and ``C Y = G2 Y G2`` on the
    block-diagonal ``Y``, of rank ``R = sum_k |in_k|^2``.
    With ``Phi = S^+ U C^(1/2)`` and ``Phi^+ Phi = P diag(sigma^2) P^+``,
    ``Q = Phi P / sigma`` has orthonormal columns and Woodbury gives
    ``(K + U C U^+)^-1 = S (I - Q diag(sigma^2 / (1 + sigma^2)) Q^+) S^+``.
    Near convergence ``sigma^2`` reaches 1e10; applying the inverse of the
    capacitance ``I + Phi^+ Phi`` instead loses about that factor in accuracy.
    The ``ds`` border is the scalar Schur complement
    ``w^+ (I + Phi^+ Phi)^-1 w > 0`` with ``w = vec G2`` over its blocks.
    """
    count, n = len(g0), g0.shape[-1]
    # L = q diag(mu)^(1/2) rather than a Cholesky factor: numpy has no
    # triangular solve, and inverting the Cholesky factor gave negative lam
    # near convergence
    mu, q = np.linalg.eigh(g0)
    ok = mu[:, 0] > 0.0
    root_inv = q / np.sqrt(np.where(ok[:, None], mu, 1.0))[:, None, :]  # L^-+
    lam, vecs = np.linalg.eigh(hermitize(_adj(root_inv) @ g1 @ root_inv))
    t = root_inv @ vecs
    t_adj = _adj(t)
    # lam > 0 in exact arithmetic; roundoff can push the smallest below zero
    lam = np.maximum(lam, 0.0)
    root_d = np.sqrt(1.0 + lam[:, :, None] * lam[:, None, :])

    # Phi column (k, a, b) is S^+(lift_k(H E_ab H)) with H = G2_k^(1/2) on
    # sector k, one stack per run of equal sectors.  With the sector's rows of
    # T split as T[c, b, l] (c an output, b an input), entry (l, l') of
    # T^+ lift_k(H E_ab H) T is sum_c conj(Y[c, a, l]) Y[c, b, l'], Y[c] = H T[c].
    w = g2.reshape(count, sectors.r**2)[:, sectors.cells]
    phis, col = [], 0
    for sectors_, outs, ins, row in sectors.runs:
        g2_k = w[:, col : col + sectors_ * ins * ins].reshape(count, sectors_, ins, ins)
        col += sectors_ * ins * ins
        g2_evals, g2_vecs = np.linalg.eigh(g2_k)
        half = (g2_vecs * np.sqrt(np.maximum(g2_evals, 0.0))[..., None, :]) @ _adj(g2_vecs)
        t_k = t[:, row : row + sectors_ * outs * ins].reshape(count, sectors_, outs, ins, n)
        y_rows = (half[:, :, None] @ t_k).reshape(count, sectors_, outs, ins * n)
        lifted = (_adj(y_rows) @ y_rows).reshape(count, sectors_, ins, n, ins, n)
        lifted = lifted / root_d[:, None, None, :, None, :]
        phis.append(lifted.transpose(0, 3, 5, 1, 2, 4).reshape(count, n * n, sectors_ * ins * ins))
    phi = np.concatenate(phis, axis=-1)
    sigma2, p_vecs = np.linalg.eigh(hermitize(_adj(phi) @ phi))
    sigma2 = np.maximum(sigma2, 0.0)
    sigma = np.sqrt(sigma2)
    q_phi = (phi @ p_vecs) / np.where(sigma > 0.0, sigma, 1.0)[:, None, :]
    shrink = sigma2 / (1.0 + sigma2)
    # the border column lift(G2^2) is U C^(1/2) w, so S^+ maps it to Phi w,
    # and the middle factor maps that to Q diag(sigma / (1 + sigma^2)) P^+ w
    pw = _mv(_adj(p_vecs), w)
    schur = np.sum(np.abs(pw) ** 2 / (1.0 + sigma2), axis=-1)
    border = t @ (_mv(q_phi, sigma / (1.0 + sigma2) * pw).reshape(count, n, n) / root_d) @ t_adj
    return ok, (t, t_adj, root_d, q_phi, _adj(q_phi), shrink, border, schur)


def _inverse_apply(factors, v: np.ndarray) -> np.ndarray:
    """The structured inverse of :func:`_structured_inverse` on each row of ``v``."""
    t, t_adj, root_d, q_phi, q_adj, shrink, border, schur = factors
    count, n = len(v), t.shape[-1]
    r = v[:, :-1].reshape(count, n, n)
    y = ((t_adj @ r @ t) / root_d).reshape(count, n * n)
    middle = (y - _mv(q_phi, shrink * _mv(q_adj, y))).reshape(count, n, n)
    dz = t @ (middle / root_d) @ t_adj
    ds = (v[:, -1].real + _dot(border, r)) / schur
    out = np.empty_like(v)
    out[:, :-1] = (dz + ds[:, None, None] * border).reshape(count, n * n)
    out[:, -1] = ds
    return out


def _newton_step(sectors: _Sectors, g0, g1, g2, rhs: np.ndarray) -> np.ndarray:
    """Solve ``_newton_apply(sectors, g0, g1, g2, v) = rhs`` row by row by
    conjugate gradients on the real inner product ``Re <u, v>``,
    preconditioned with the structured inverse; each row stops at its own
    residual test, and a row whose ``G0`` is not positive definite comes back
    NaN.

    On the last Newton systems of seeded random d = 2 and 4 solves at
    tol 1e-9, where ``cond(G_k)`` reaches 1e10, the structured inverse alone
    left relative residuals up to 2e-6 and the CG steps 3e-11, against 2e-9
    for a dense LU.
    """
    ok, factors = _structured_inverse(sectors, g0, g1, g2)
    step = np.full_like(rhs, np.nan)
    live = np.flatnonzero(ok)
    gs, r = (g0, g1, g2), rhs.copy()
    if not ok.all():
        gs, factors, r = _rows(ok, (gs, factors, r))
    x = np.zeros_like(r)
    stop = CG_RTOL * _norm(r)
    p = None
    rz = np.zeros(len(live))
    for _ in range(CG_MAX_ITER):
        going = _norm(r) > stop
        if not going.all():
            step[live[~going]] = x[~going]
            state = (live, gs, factors, x, r, stop, rz, p)
            live, gs, factors, x, r, stop, rz, p = _rows(going, state)
        if not live.size:
            return step
        z = _inverse_apply(factors, r)
        rz, rz_old = _dot(r, z), rz
        p = z if p is None else z + (rz / rz_old)[:, None] * p
        q = _newton_apply(sectors, *gs, p)
        alpha = (rz / _dot(p, q))[:, None]
        x += alpha * p
        r -= alpha * q
    step[live] = x
    return step


def _lift(sectors: _Sectors, y: np.ndarray) -> np.ndarray:
    """``I (x) Y_k`` on the rows of each sector ``k``, for each block-diagonal
    ``Y`` of a stack on the covered inputs: the adjoint of :func:`_tr_out`."""
    m = len(sectors.rows)
    out = np.zeros((len(y), m * m), dtype=y.dtype)
    out[:, sectors.lift_to] = y.reshape(len(y), sectors.r**2)[:, sectors.lift_from]
    return out.reshape(len(y), m, m)


def _tr_out(sectors: _Sectors, z: np.ndarray) -> np.ndarray:
    """``Tr_out`` of each matrix of a stack on the support, sector by sector,
    as a block-diagonal matrix on the covered inputs: the adjoint of
    :func:`_lift` over the same maps, gathering at ``lift_to`` and adding onto
    ``lift_from``, each entry's terms in output order."""
    count, m, r = len(z), len(sectors.rows), sectors.r
    out = np.zeros((count, r * r), dtype=z.dtype)
    at = np.arange(count)[:, None] * r * r + sectors.lift_from
    np.add.at(out.reshape(-1), at.ravel(), z.reshape(count, m * m)[:, sectors.lift_to].ravel())
    return out.reshape(count, r, r)


def _nt_scaling(s_half: np.ndarray, s_invhalf: np.ndarray, w: np.ndarray):
    """``(G, W^(-1/2), ok)`` per row, with
    ``G = S^(-1/2) (S^(1/2) W S^(1/2))^(1/2) S^(-1/2)``; ``ok`` is False
    where ``W`` or the middle product is not positive definite."""
    _, w_invhalf, w_lo = _psd_sqrt_pair(w)
    in_evals, in_vecs = np.linalg.eigh(hermitize(s_half @ w @ s_half))
    ok = (w_lo > 0.0) & (in_evals[:, 0] > 0.0)
    root = np.sqrt(np.where(ok[:, None], in_evals, 1.0))[:, None, :]
    inner_half = (in_vecs * root) @ _adj(in_vecs)
    return hermitize(s_invhalf @ inner_half @ s_invhalf), w_invhalf, ok


def solve(j: np.ndarray, tol: float, max_iter: int = DEFAULT_MAX_ITER):
    """Minimize ``2 s`` for each Hermitian, trace-annihilating Choi matrix of
    a ``(B, d^2, d^2)`` stack of maps on dimension ``d``, until its duality
    gap is at most ``tol``.

    Each problem is solved on the support of its Choi matrix.  The problems
    with the same support step in lockstep and each leaves the stack at its
    own stopping test, with its own status, trace and best iterate; its result
    is bit for bit the one it gets when solved alone.  Returns an
    :class:`SdpStack`, whose ``iterations`` is the stack's total.  A single
    ``d^2 x d^2`` matrix is solved as a stack of one, and its
    :class:`SdpSolution` is returned.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    j = np.asarray(j)
    chois = j[None] if j.ndim == 2 else j
    d = math.isqrt(chois.shape[-1]) if chois.ndim == 3 else 0
    if d < 1 or chois.shape[1:] != (d * d, d * d):
        raise ValueError(f"Choi matrix must be d^2 x d^2 with d >= 1, got shape {j.shape}")
    if not (
        np.all(np.isfinite(chois))
        and np.abs(chois - _adj(chois)).max(initial=0.0) <= CHOI_HERMITIAN_ATOL
    ):
        raise ValueError("Choi matrix must be finite and Hermitian")
    nonzero = chois != 0
    stacks: dict = {}
    for k, used in enumerate(nonzero.any(axis=-1) | nonzero.any(axis=-2)):
        sectors = _sectors(used)
        key = (sectors.rows.tobytes(), sectors.runs)
        stacks.setdefault(key, (sectors, []))[1].append(k)
    solutions: list = [None] * len(chois)
    for sectors, members in stacks.values():
        rows = sectors.rows
        part = chois[members][:, rows[:, None], rows]
        for k, sol in zip(members, _solve_stack(sectors, part, tol, max_iter)):
            solutions[k] = sol
    return solutions[0] if j.ndim == 2 else SdpStack(solutions)


def _solve_stack(sectors: _Sectors, chois: np.ndarray, tol: float, max_iter: int):
    """:func:`solve` on a stack of Choi matrices gathered onto the support
    ``sectors``, as a list of :class:`SdpSolution`.  Every attribute of the
    holder ``st`` has one row per live problem (``st.k`` their indices), and
    ``retire`` cuts all of them together; what must outlive a problem's exit
    goes into its :class:`SdpSolution` or into ``recorded``."""
    count, m, r = len(chois), len(sectors.rows), sectors.r
    n = m * m
    eye_in = np.eye(r)

    beta = np.max(np.abs(np.linalg.eigvalsh(chois)), axis=-1) + 1.0
    w_start = np.repeat(np.eye(m, dtype=complex)[None] / r, count, axis=0)
    st = SimpleNamespace(k=np.arange(count), chois=chois, stalls=np.zeros(count, dtype=int))
    st.z = beta[:, None, None] * np.eye(m, dtype=complex)
    st.s = beta * sectors.max_out + 1.0
    st.ws = [w_start, w_start, np.repeat(2.0 * np.eye(r, dtype=complex)[None] / r, count, axis=0)]
    solutions = [SdpSolution(np.nan, np.nan, np.inf, 0, "IterationCap") for _ in range(count)]
    # (ws, row) of each problem's last recorded iterate, for its dual residual
    recorded: list = [None] * count
    # keep the barrier target from collapsing below what double precision can
    # certify; iterates then hover near the tolerance scale instead of
    # grinding into singular S, W
    total_dim = 2 * m + r
    mu_floor = 0.25 * tol / total_dim

    def retire(out, why):
        """End the problems flagged in ``out`` with status ``why``, and cut
        every attribute of ``st`` to the rows of the others."""
        if out.any():
            for k in st.k[out]:
                solutions[k].status = why
            vars(st).update({name: _rows(~out, value) for name, value in vars(st).items()})

    for it in range(1, max_iter + 1):
        if not st.k.size:
            break
        for k in st.k:
            solutions[k].iterations = it
        st.slacks = [
            hermitize(st.z - st.chois), st.z,
            hermitize(st.s[:, None, None] * eye_in - _tr_out(sectors, st.z)),
        ]
        st.roots = [_psd_sqrt_pair(sk) for sk in st.slacks]
        retire(np.min([lo for *_, lo in st.roots], axis=0) <= 0.0, "NumericalFailure")

        primal = 2.0 * st.s
        comp = (
            _dot(st.slacks[0], st.ws[0]) + _dot(st.slacks[1], st.ws[1]) + _dot(st.slacks[2], st.ws[2])
        )
        for row, (k, pair) in enumerate(zip(st.k, zip(primal.tolist(), (primal - comp).tolist()))):
            solutions[k].trace.append(pair)
            recorded[k] = (st.ws, row)
        st.mu = np.maximum(comp / total_dim, mu_floor)
        retire(comp <= tol, "Optimal")

        st.scalings = [_nt_scaling(*root[:2], wk) for root, wk in zip(st.roots, st.ws)]
        retire(~np.logical_and.reduce([ok for *_, ok in st.scalings]), "NumericalFailure")
        target = (SIGMA * st.mu)[:, None, None]
        st.rcs = [target * (wih @ wih) - sk for sk, (_, wih, _) in zip(st.slacks, st.scalings)]
        # S2 and W2 are block-diagonal; cut the roundoff of their eigh-built
        # functions off the blocks, so G2, the W2 step and W2 stay so exactly
        st.gs = [g for g, *_ in st.scalings[:2]] + [np.where(sectors.mask, st.scalings[2][0], 0.0)]
        st.rcs[2] = np.where(sectors.mask, st.rcs[2], 0.0)
        grg = [g @ rc @ g for g, rc in zip(st.gs, st.rcs)]

        # the dual residual of the current W is zero up to roundoff drift;
        # the step works on Hermitian dZ, and grg is Hermitian up to roundoff
        rhs = np.empty((len(st.k), n + 1), dtype=complex)
        rhs_z = hermitize(grg[0] + grg[1] + st.ws[0] + st.ws[1] - _lift(sectors, grg[2] + st.ws[2]))
        rhs[:, :n] = rhs_z.reshape(len(st.k), n)
        rhs[:, n] = (
            np.trace(grg[2], axis1=1, axis2=2).real + np.trace(st.ws[2], axis1=1, axis2=2).real - 2.0
        )
        st.step = _newton_step(sectors, *st.gs, rhs)
        retire(~np.all(np.isfinite(st.step), axis=1), "NumericalFailure")
        st.dz = hermitize(st.step[:, :n].reshape(len(st.k), m, m))
        st.ds = st.step[:, n].real

        dslacks = [st.dz, st.dz, hermitize(st.ds[:, None, None] * eye_in - _tr_out(sectors, st.dz))]
        st.dws = [hermitize(g @ (rc - dsk) @ g) for g, rc, dsk in zip(st.gs, st.rcs, dslacks)]
        # the fraction scales every step bound alike, so it may scale their least
        steps_p = [_max_step(root[1], dsk) for root, dsk in zip(st.roots, dslacks)]
        steps_d = [_max_step(wih, dw) for (_, wih, _), dw in zip(st.scalings, st.dws)]
        st.alpha_p = np.minimum(1.0, BOUNDARY_FRACTION * np.minimum.reduce(steps_p))
        st.alpha_d = np.minimum(1.0, BOUNDARY_FRACTION * np.minimum.reduce(steps_d))

        st.stalls = np.where((st.alpha_p < 1e-10) & (st.alpha_d < 1e-10), st.stalls + 1, 0)
        retire(st.stalls >= 3, "NumericalFailure")

        st.z = st.z + st.alpha_p[:, None, None] * st.dz
        st.s = st.s + st.alpha_p * st.ds
        st.ws = [wk + st.alpha_d[:, None, None] * dw for wk, dw in zip(st.ws, st.dws)]

    for sol, rec in zip(solutions, recorded):
        if rec is None:
            continue
        sol.primal, sol.dual = sol.trace[-1]
        if np.isfinite(sol.primal) and np.isfinite(sol.dual):
            sol.gap = abs(sol.primal - sol.dual)
        ws, row = rec
        w0, w1, w2 = (w[row] for w in ws)
        sol.dual_residual = max(
            float(np.max(np.abs(w0 + w1 - _lift(sectors, w2[None])[0]))),
            abs(float(np.trace(w2).real) - 2.0),
        )
    return solutions
