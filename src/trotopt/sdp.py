"""Interior-point solver for the one semidefinite program behind the diamond
norm.

For a Hermiticity-preserving, trace-annihilating map whose Choi matrix ``J``
lives on output (x) input, both of dimension ``d``, Watrous's single-variable
dual (arXiv:1207.5726) gives the diamond norm as

    min 2 s  over Hermitian Z (d^2 x d^2) and real s,
    subject to  S0 = Z - J >= 0,  S1 = Z >= 0,  S2 = s I - Tr_out Z >= 0.

The dual blocks ``W0, W1`` (``d^2 x d^2``) and ``W2`` (``d x d``) are PSD with
``W0 + W1 = I (x) W2`` and ``tr W2 = 2``.  Weak duality
``2 s - <J, W0> = sum_k <S_k, W_k> >= 0`` holds for every feasible pair; the
reported dual value is ``2 s - sum_k <S_k, W_k>``, which equals ``<J, W0>``
while the dual equalities hold exactly and stays a weak-duality partner of the
primal value under floating-point drift of those equalities, so the reported
gap is always the complementarity of a strictly PSD pair.  Both values are
recorded at every iterate.

The start is strictly feasible by construction: ``Z = beta I`` with
``beta = max |eig J| + 1``, ``s = beta d + 1`` (so ``S2 = I``),
``W0 = W1 = I/d`` and ``W2 = 2I/d``.  The iteration is a feasible-start
primal-dual method with Nesterov-Todd scaling ``G_k`` (``G_k S_k G_k = W_k``;
Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998), a fixed barrier reduction
factor ``SIGMA = 0.3``, fraction-to-boundary 0.98 and an iteration cap of 200.
Each iteration solves the Newton system on ``(dZ, ds)``

    G0 dZ G0 + G1 dZ G1 + I (x) G2 (Tr_out dZ - ds I) G2 = R,
    tr(G2^2) ds - <I (x) G2^2, dZ>                       = r_s,

whose operator is Hermitian positive definite, without forming it.  The
``G0 dZ G0 + G1 dZ G1`` part is inverted by simultaneous diagonalization of
``G0`` and ``G1``, the rank-``d^2`` ``Tr_out`` term through Woodbury and
``ds`` through a scalar Schur complement (:func:`_structured_inverse`).  That
inverse, exact in exact arithmetic, preconditions at most ``CG_MAX_ITER``
conjugate-gradient steps on the operator applied matrix-free, which restore
the accuracy the structured inverse loses as ``cond(G_k)`` approaches 1e10
near convergence.  One iteration costs O(d^8) time and O(d^6) memory, against
O(d^12) and O(d^8) for a dense LU of the ``(d^4 + 1)``-square system.

:func:`solve` takes a stack of problems, which step in lockstep: each array
holds one row per problem still running, every operation acts row by row
(one stacked LAPACK or BLAS call per matrix of the stack), and each problem
leaves the stack at its own stopping test.  So a problem's result does not
depend on the others in its stack, while the cost of each numpy call is paid
once per stack rather than once per problem; at d = 4 that cost, about
1.3 ms per iteration, is most of a solve.

Everything is dense numpy and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitize, partial_trace

SIGMA = 0.3
BOUNDARY_FRACTION = 0.98
DEFAULT_MAX_ITER = 200
CG_RTOL = 1e-13
CG_MAX_ITER = 10


@dataclass
class SdpSolution:
    primal: float
    dual: float
    gap: float
    iterations: int
    status: str  # "Optimal" | "IterationCap" | "NumericalFailure"
    trace: list[tuple[float, float]] = field(default_factory=list)
    # max(|W0 + W1 - I (x) W2|_max, |tr W2 - 2|) at the reported iterate
    dual_residual: float = np.nan


class SdpStack(tuple):
    """The :class:`SdpSolution` of each problem of a stack, in stack order."""

    @property
    def iterations(self) -> int:
        """The iterations of all problems of the stack, summed."""
        return sum(sol.iterations for sol in self)


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


def _newton_apply(g0, g1, g2, v: np.ndarray) -> np.ndarray:
    """The Newton operator on each row ``v = (vec dZ, ds)``:
    ``(G0 dZ G0 + G1 dZ G1 + I (x) G2 (Tr_out dZ - ds I) G2,
    tr(G2^2) ds - <I (x) G2^2, dZ>)``."""
    count, d = len(v), g2.shape[-1]
    dz = v[:, :-1].reshape(count, d * d, d * d)
    red = _tr_out(dz)
    shift = v[:, -1].real[:, None, None] * np.eye(d)
    out = np.empty_like(v)
    image = g0 @ dz @ g0 + g1 @ dz @ g1 + _lift(g2 @ (red - shift) @ g2)
    out[:, :-1] = image.reshape(count, d**4)
    out[:, -1] = _dot(g2, g2 @ (shift - red))
    return out


def _structured_inverse(g0, g1, g2):
    """The inverse of the Newton operator of :func:`_newton_apply`, as
    ``(ok, factors)`` for :func:`_inverse_apply`; ``ok`` is False on the rows
    where ``G0`` is not positive definite, and their factors mean nothing.

    ``K(X) = G0 X G0 + G1 X G1`` is inverted by simultaneous
    diagonalization: with ``G0 = L L^+`` and ``L^-1 G1 L^-+ = V diag(lam) V^+``,
    ``T = L^-+ V`` gives ``K^-1 = S S^+`` with ``S(Y) = T (Y / D^(1/2)) T^+``
    and ``D = 1 + lam lam^T`` (entry by entry).  The ``Tr_out`` term is
    ``U C U^+`` with ``U Y = I (x) Y`` and ``C Y = G2 Y G2``, of rank ``d^2``.
    With ``Phi = S^+ U C^(1/2)`` and ``Phi^+ Phi = P diag(sigma^2) P^+``,
    ``Q = Phi P / sigma`` has orthonormal columns and Woodbury gives
    ``(K + U C U^+)^-1 = S (I - Q diag(sigma^2 / (1 + sigma^2)) Q^+) S^+``.
    Near convergence ``sigma^2`` reaches 1e10; applying the inverse of the
    capacitance ``I + Phi^+ Phi`` instead loses about that factor in accuracy.
    The ``ds`` border is the scalar Schur complement
    ``w^+ (I + Phi^+ Phi)^-1 w > 0`` with ``w = vec G2``.
    """
    count, d = len(g2), g2.shape[-1]
    n = d * d
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

    # Phi column (a, b) is S^+(I (x) H E_ab H) with H = G2^(1/2).  With T
    # split as T[c, b, k] (row index (c, b) on out (x) in), entry (k, l) of
    # T^+ (I (x) H E_ab H) T is sum_c conj(Y[c, a, k]) Y[c, b, l], Y[c] = H T[c].
    g2_evals, g2_vecs = np.linalg.eigh(g2)
    half = (g2_vecs * np.sqrt(np.maximum(g2_evals, 0.0))[:, None, :]) @ _adj(g2_vecs)
    y_rows = (half[:, None] @ t.reshape(count, d, d, n)).reshape(count, d, d * n)
    lifted = (_adj(y_rows) @ y_rows).reshape(count, d, n, d, n) / root_d[:, None, :, None, :]
    phi = lifted.transpose(0, 2, 4, 1, 3).reshape(count, n * n, n)
    sigma2, p_vecs = np.linalg.eigh(hermitize(_adj(phi) @ phi))
    sigma2 = np.maximum(sigma2, 0.0)
    sigma = np.sqrt(sigma2)
    q_phi = (phi @ p_vecs) / np.where(sigma > 0.0, sigma, 1.0)[:, None, :]
    shrink = sigma2 / (1.0 + sigma2)
    # the border column I (x) G2^2 is U C^(1/2) vec(G2), so S^+ maps it to
    # Phi w, and the middle factor maps that to Q diag(sigma / (1 + sigma^2)) P^+ w
    pw = _mv(_adj(p_vecs), g2.reshape(count, n))
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


def _newton_step(g0, g1, g2, rhs: np.ndarray) -> np.ndarray:
    """Solve ``_newton_apply(g0, g1, g2, v) = rhs`` row by row by conjugate
    gradients on the real inner product ``Re <u, v>``, preconditioned with the
    structured inverse; each row stops at its own residual test, and a row
    whose ``G0`` is not positive definite comes back NaN.

    On the last Newton systems of seeded random d = 2 and 4 solves at
    tol 1e-9, where ``cond(G_k)`` reaches 1e10, the structured inverse alone
    left relative residuals up to 2e-6 and the CG steps 3e-11, against 2e-9
    for a dense LU.
    """
    ok, factors = _structured_inverse(g0, g1, g2)
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
        q = _newton_apply(*gs, p)
        alpha = (rz / _dot(p, q))[:, None]
        x += alpha * p
        r -= alpha * q
    step[live] = x
    return step


def _lift(y: np.ndarray) -> np.ndarray:
    """``I (x) Y`` for each ``Y`` of a stack, the adjoint of ``Tr_out``."""
    count, d = len(y), y.shape[-1]
    out = np.zeros((count, d, d, d, d), dtype=y.dtype)
    diag = np.arange(d)
    out[:, diag, :, diag, :] = y
    return out.reshape(count, d * d, d * d)


def _tr_out(m: np.ndarray) -> np.ndarray:
    """``Tr_out`` of each matrix of a stack on out (x) in, both of dimension ``d``."""
    d = math.isqrt(m.shape[-1])
    return partial_trace(m, (d, d), 1)


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

    The problems step in lockstep and each leaves the stack at its own
    stopping test, with its own status, trace and best iterate; its result
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
    if not (np.all(np.isfinite(chois)) and np.abs(chois - _adj(chois)).max(initial=0.0) <= 1e-10):
        raise ValueError("Choi matrix must be finite and Hermitian")
    count, n = len(chois), d**4
    eye_in = np.eye(d)

    beta = np.max(np.abs(np.linalg.eigvalsh(chois)), axis=-1) + 1.0
    z = beta[:, None, None] * np.eye(d * d, dtype=complex)
    s = beta * d + 1.0
    w_start = np.repeat(np.eye(d * d, dtype=complex)[None] / d, count, axis=0)
    ws = [w_start, w_start, np.repeat(2.0 * np.eye(d, dtype=complex)[None] / d, count, axis=0)]
    stalls = np.zeros(count, dtype=int)

    status = ["IterationCap"] * count
    iterations = np.zeros(count, dtype=int)
    traces: list[list[tuple[float, float]]] = [[] for _ in range(count)]
    # (ws, row) of each problem's last recorded iterate, for its dual residual
    recorded: list = [None] * count
    # the problems still in the stack, as indices into it; chois and every
    # array of the iteration hold their rows in this order
    live = np.arange(count)
    # keep the barrier target from collapsing below what double precision can
    # certify; iterates then hover near the tolerance scale instead of
    # grinding into singular S, W
    total_dim = 2 * d * d + d
    mu_floor = 0.25 * tol / total_dim

    def retire(out, why, *arrays):
        """End the live problems flagged in ``out`` with status ``why``, and
        return ``arrays`` cut to the rows of the others."""
        nonlocal live
        if not out.any():
            return arrays
        for k in live[out]:
            status[k] = why
        live = live[~out]
        return _rows(~out, arrays)

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        iterations[live] = it
        slacks = [hermitize(z - chois), z, hermitize(s[:, None, None] * eye_in - _tr_out(z))]
        roots = [_psd_sqrt_pair(sk) for sk in slacks]
        failed = np.min([lo for *_, lo in roots], axis=0) <= 0.0
        chois, z, s, ws, stalls, slacks, roots = retire(
            failed, "NumericalFailure", chois, z, s, ws, stalls, slacks, roots
        )

        primal = 2.0 * s
        comp = _dot(slacks[0], ws[0]) + _dot(slacks[1], ws[1]) + _dot(slacks[2], ws[2])
        for row, (k, pair) in enumerate(zip(live, zip(primal.tolist(), (primal - comp).tolist()))):
            traces[k].append(pair)
            recorded[k] = (ws, row)
        chois, z, s, ws, stalls, slacks, roots, comp = retire(
            comp <= tol, "Optimal", chois, z, s, ws, stalls, slacks, roots, comp
        )

        mu = np.maximum(comp / total_dim, mu_floor)
        scalings = [_nt_scaling(*root[:2], wk) for root, wk in zip(roots, ws)]
        failed = ~np.logical_and.reduce([ok for *_, ok in scalings])
        chois, z, s, ws, stalls, slacks, roots, mu, scalings = retire(
            failed, "NumericalFailure", chois, z, s, ws, stalls, slacks, roots, mu, scalings
        )
        gs = [g for g, *_ in scalings]
        target = (SIGMA * mu)[:, None, None]
        rcs = [target * (wih @ wih) - sk for sk, (_, wih, _) in zip(slacks, scalings)]
        grg = [g @ rc @ g for g, rc in zip(gs, rcs)]

        # the dual residual of the current W is zero up to roundoff drift;
        # the step works on Hermitian dZ, and grg is Hermitian up to roundoff
        rhs = np.empty((len(live), n + 1), dtype=complex)
        rhs_z = hermitize(grg[0] + grg[1] + ws[0] + ws[1] - _lift(grg[2] + ws[2]))
        rhs[:, :n] = rhs_z.reshape(len(live), n)
        rhs[:, n] = (
            np.trace(grg[2], axis1=1, axis2=2).real + np.trace(ws[2], axis1=1, axis2=2).real - 2.0
        )
        step = _newton_step(*gs, rhs)
        chois, z, s, ws, stalls, roots, scalings, gs, rcs, step = retire(
            ~np.all(np.isfinite(step), axis=1),
            "NumericalFailure",
            chois, z, s, ws, stalls, roots, scalings, gs, rcs, step,
        )
        dz = hermitize(step[:, :n].reshape(len(live), d * d, d * d))
        ds = step[:, n].real

        dslacks = [dz, dz, hermitize(ds[:, None, None] * eye_in - _tr_out(dz))]
        dws = [hermitize(g @ (rc - dsk) @ g) for g, rc, dsk in zip(gs, rcs, dslacks)]
        # the fraction scales every step bound alike, so it may scale their least
        steps_p = [_max_step(root[1], dsk) for root, dsk in zip(roots, dslacks)]
        steps_d = [_max_step(wih, dw) for (_, wih, _), dw in zip(scalings, dws)]
        alpha_p = np.minimum(1.0, BOUNDARY_FRACTION * np.minimum.reduce(steps_p))
        alpha_d = np.minimum(1.0, BOUNDARY_FRACTION * np.minimum.reduce(steps_d))

        stalls = np.where((alpha_p < 1e-10) & (alpha_d < 1e-10), stalls + 1, 0)
        chois, z, s, ws, stalls, dz, ds, dws, alpha_p, alpha_d = retire(
            stalls >= 3, "NumericalFailure", chois, z, s, ws, stalls, dz, ds, dws, alpha_p, alpha_d
        )

        z = z + alpha_p[:, None, None] * dz
        s = s + alpha_p * ds
        ws = [wk + alpha_d[:, None, None] * dw for wk, dw in zip(ws, dws)]

    solutions = []
    for k in range(count):
        primal, dual = traces[k][-1] if traces[k] else (np.nan, np.nan)
        gap = abs(primal - dual) if np.isfinite(primal) and np.isfinite(dual) else np.inf
        dual_residual = np.nan
        if recorded[k] is not None:
            ws, row = recorded[k]
            w0, w1, w2 = (w[row] for w in ws)
            dual_residual = max(
                float(np.max(np.abs(w0 + w1 - _lift(w2[None])[0]))),
                abs(float(np.trace(w2).real) - 2.0),
            )
        solutions.append(
            SdpSolution(primal, dual, gap, int(iterations[k]), status[k], traces[k], dual_residual)
        )
    return solutions[0] if j.ndim == 2 else SdpStack(solutions)
