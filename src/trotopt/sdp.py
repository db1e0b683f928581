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

Everything is dense numpy and deterministic.
"""

from __future__ import annotations

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


def _psd_sqrt_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(M^(1/2), M^(-1/2), min eigenvalue) of a Hermitian matrix."""
    evals, vecs = np.linalg.eigh(m)
    lo = float(evals[0])
    if lo <= 0.0:
        return np.empty(0), np.empty(0), lo
    root = np.sqrt(evals)
    return (vecs * root) @ vecs.conj().T, (vecs / root) @ vecs.conj().T, lo


def _max_step(shrink_half: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with ``M + alpha * D > 0`` given ``M^(-1/2)``."""
    scaled = hermitize(shrink_half @ direction @ shrink_half)
    lo = float(np.linalg.eigvalsh(scaled)[0])
    return np.inf if lo >= 0.0 else -1.0 / lo


def _newton_apply(g0, g1, g2, v: np.ndarray) -> np.ndarray:
    """The Newton operator on ``v = (vec dZ, ds)``:
    ``(G0 dZ G0 + G1 dZ G1 + I (x) G2 (Tr_out dZ - ds I) G2,
    tr(G2^2) ds - <I (x) G2^2, dZ>)``."""
    d = g2.shape[0]
    dz = v[:-1].reshape(d * d, d * d)
    ds = v[-1].real
    red = _tr_out(dz)
    out = np.empty_like(v)
    out[:-1] = (g0 @ dz @ g0 + g1 @ dz @ g1 + _lift(g2 @ (red - ds * np.eye(d)) @ g2)).reshape(-1)
    out[-1] = np.vdot(g2, g2 @ (ds * np.eye(d) - red)).real
    return out


def _structured_inverse(g0, g1, g2):
    """The inverse of the Newton operator of :func:`_newton_apply`, as a
    function of ``v``.

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
    d = g2.shape[0]
    n = d * d
    # L = q diag(mu)^(1/2) rather than a Cholesky factor: numpy has no
    # triangular solve, and inverting the Cholesky factor gave negative lam
    # near convergence
    mu, q = np.linalg.eigh(g0)
    if not mu[0] > 0.0:
        raise np.linalg.LinAlgError("G0 is not positive definite")
    root_inv = q / np.sqrt(mu)  # L^-+
    lam, vecs = np.linalg.eigh(hermitize(root_inv.conj().T @ g1 @ root_inv))
    t = root_inv @ vecs
    t_adj = t.conj().T
    # lam > 0 in exact arithmetic; roundoff can push the smallest below zero
    lam = np.maximum(lam, 0.0)
    root_d = np.sqrt(1.0 + lam[:, None] * lam[None, :])

    def s_adj(x):
        return (t_adj @ x @ t) / root_d

    def s_op(y):
        return t @ (y / root_d) @ t_adj

    # Phi column (a, b) is S^+(I (x) H E_ab H) with H = G2^(1/2).  With T
    # split as T[c, b, k] (row index (c, b) on out (x) in), entry (k, l) of
    # T^+ (I (x) H E_ab H) T is sum_c conj(Y[c, a, k]) Y[c, b, l], Y[c] = H T[c].
    g2_evals, g2_vecs = np.linalg.eigh(g2)
    half = (g2_vecs * np.sqrt(np.maximum(g2_evals, 0.0))) @ g2_vecs.conj().T
    y_rows = (half @ t.reshape(d, d, n)).reshape(d, d * n)
    lifted = (y_rows.conj().T @ y_rows).reshape(d, n, d, n) / root_d[None, :, None, :]
    phi = lifted.transpose(1, 3, 0, 2).reshape(n * n, n)
    sigma2, p_vecs = np.linalg.eigh(hermitize(phi.conj().T @ phi))
    sigma2 = np.maximum(sigma2, 0.0)
    sigma = np.sqrt(sigma2)
    q_phi = (phi @ p_vecs) / np.where(sigma > 0.0, sigma, 1.0)
    q_adj = q_phi.conj().T
    shrink = sigma2 / (1.0 + sigma2)
    # the border column I (x) G2^2 is U C^(1/2) vec(G2), so S^+ maps it to
    # Phi w, and the middle factor maps that to Q diag(sigma / (1 + sigma^2)) P^+ w
    pw = p_vecs.conj().T @ g2.reshape(-1)
    schur = float(np.sum(np.abs(pw) ** 2 / (1.0 + sigma2)))
    border = s_op((q_phi @ (sigma / (1.0 + sigma2) * pw)).reshape(n, n))

    def inverse(v):
        r = v[:-1].reshape(n, n)
        y = s_adj(r).reshape(-1)
        dz = s_op((y - q_phi @ (shrink * (q_adj @ y))).reshape(n, n))
        ds = (v[-1].real + np.vdot(border, r).real) / schur
        out = np.empty_like(v)
        out[:-1] = (dz + ds * border).reshape(-1)
        out[-1] = ds
        return out

    return inverse


def _newton_step(g0, g1, g2, rhs: np.ndarray) -> np.ndarray:
    """Solve ``_newton_apply(g0, g1, g2, v) = rhs`` by conjugate gradients on
    the real inner product ``Re <u, v>``, preconditioned with the structured
    inverse.

    On the last Newton systems of seeded random d = 2 and 4 solves at
    tol 1e-9, where ``cond(G_k)`` reaches 1e10, the structured inverse alone
    left relative residuals up to 2e-6 and the CG steps 3e-11, against 2e-9
    for a dense LU.
    """
    precond = _structured_inverse(g0, g1, g2)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    stop = CG_RTOL * np.linalg.norm(rhs)
    p = None
    rz = 0.0
    for _ in range(CG_MAX_ITER):
        if not np.linalg.norm(r) > stop:
            break
        z = precond(r)
        rz, rz_old = np.vdot(r, z).real, rz
        p = z if p is None else z + (rz / rz_old) * p
        q = _newton_apply(g0, g1, g2, p)
        alpha = rz / np.vdot(p, q).real
        x += alpha * p
        r -= alpha * q
    return x


def _lift(y: np.ndarray) -> np.ndarray:
    """``I (x) Y``, the adjoint of ``Tr_out``."""
    return np.kron(np.eye(y.shape[0]), y)


def _tr_out(m: np.ndarray) -> np.ndarray:
    """``Tr_out`` of a matrix on out (x) in, both of dimension ``d``."""
    d = int(round(np.sqrt(m.shape[0])))
    return partial_trace(m, (d, d), 1)


def _nt_scaling(s: np.ndarray, s_half: np.ndarray, s_invhalf: np.ndarray, w: np.ndarray):
    """``(G, W^(-1/2))`` with ``G = S^(-1/2) (S^(1/2) W S^(1/2))^(1/2) S^(-1/2)``,
    or None when ``W`` or the middle product is not positive definite."""
    _, w_invhalf, w_lo = _psd_sqrt_pair(w)
    if w_lo <= 0.0:
        return None
    in_evals, in_vecs = np.linalg.eigh(hermitize(s_half @ w @ s_half))
    if in_evals[0] <= 0.0:
        return None
    inner_half = (in_vecs * np.sqrt(in_evals)) @ in_vecs.conj().T
    return hermitize(s_invhalf @ inner_half @ s_invhalf), w_invhalf


def solve(j: np.ndarray, tol: float, max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Minimize ``2 s`` for the Hermitian, trace-annihilating Choi matrix ``j``
    of a map on dimension ``d`` (``j`` is ``d^2 x d^2``) until the duality
    gap is at most ``tol``."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    d = int(round(np.sqrt(j.shape[0]))) if j.ndim == 2 else 0
    if d < 1 or j.shape != (d * d, d * d):
        raise ValueError(f"Choi matrix must be d^2 x d^2 with d >= 1, got shape {j.shape}")
    if not (np.all(np.isfinite(j)) and float(np.max(np.abs(j - j.conj().T))) <= 1e-10):
        raise ValueError("Choi matrix must be finite and Hermitian")
    n = d**4
    eye_in = np.eye(d)

    beta = float(np.max(np.abs(np.linalg.eigvalsh(j)))) + 1.0
    z = beta * np.eye(d * d, dtype=complex)
    s = beta * d + 1.0
    w_start = np.eye(d * d, dtype=complex) / d
    ws = [w_start, w_start, 2.0 * np.eye(d, dtype=complex) / d]

    trace: list[tuple[float, float]] = []
    best = (np.nan, np.nan)
    best_ws = None
    status = "IterationCap"
    iterations = 0
    stalls = 0
    # keep the barrier target from collapsing below what double precision can
    # certify; iterates then hover near the tolerance scale instead of
    # grinding into singular S, W
    total_dim = 2 * d * d + d
    mu_floor = 0.25 * tol / total_dim

    for iterations in range(1, max_iter + 1):
        slacks = [hermitize(z - j), z, hermitize(s * eye_in - _tr_out(z))]
        roots = [_psd_sqrt_pair(sk) for sk in slacks]
        if min(lo for *_, lo in roots) <= 0.0:
            status = "NumericalFailure"
            break

        primal = 2.0 * s
        comp = sum(float(np.vdot(sk, wk).real) for sk, wk in zip(slacks, ws))
        dual = primal - comp
        trace.append((primal, dual))
        best = (primal, dual)
        best_ws = ws
        if comp <= tol:
            status = "Optimal"
            break

        mu = max(comp / total_dim, mu_floor)
        scalings = [_nt_scaling(sk, *root[:2], wk) for sk, root, wk in zip(slacks, roots, ws)]
        if any(sc is None for sc in scalings):
            status = "NumericalFailure"
            break
        gs = [g for g, _ in scalings]
        rcs = [SIGMA * mu * (wih @ wih) - sk for sk, (_, wih) in zip(slacks, scalings)]
        grg = [g @ rc @ g for g, rc in zip(gs, rcs)]

        # the dual residual of the current W is zero up to roundoff drift;
        # the step works on Hermitian dZ, and grg is Hermitian up to roundoff
        rhs = np.empty(n + 1, dtype=complex)
        rhs[:n] = hermitize(grg[0] + grg[1] + ws[0] + ws[1] - _lift(grg[2] + ws[2])).reshape(-1)
        rhs[n] = np.trace(grg[2]).real + np.trace(ws[2]).real - 2.0
        try:
            step = _newton_step(*gs, rhs)
        except np.linalg.LinAlgError:
            step = rhs * np.nan
        if not np.all(np.isfinite(step)):
            status = "NumericalFailure"
            break
        dz = hermitize(step[:n].reshape(d * d, d * d))
        ds = float(step[n].real)

        dslacks = [dz, dz, hermitize(ds * eye_in - _tr_out(dz))]
        dws = [hermitize(g @ (rc - dsk) @ g) for g, rc, dsk in zip(gs, rcs, dslacks)]
        alpha_p = min(
            [1.0] + [BOUNDARY_FRACTION * _max_step(root[1], dsk) for root, dsk in zip(roots, dslacks)]
        )
        alpha_d = min(
            [1.0] + [BOUNDARY_FRACTION * _max_step(wih, dw) for (_, wih), dw in zip(scalings, dws)]
        )

        if alpha_p < 1e-10 and alpha_d < 1e-10:
            stalls += 1
            if stalls >= 3:
                status = "NumericalFailure"
                break
        else:
            stalls = 0

        z = z + alpha_p * dz
        s = s + alpha_p * ds
        ws = [wk + alpha_d * dw for wk, dw in zip(ws, dws)]

    primal, dual = best
    gap = abs(primal - dual) if np.isfinite(primal) and np.isfinite(dual) else np.inf
    dual_residual = np.nan
    if best_ws is not None:
        w0, w1, w2 = best_ws
        dual_residual = max(
            float(np.max(np.abs(w0 + w1 - _lift(w2)))), abs(float(np.trace(w2).real) - 2.0)
        )
    return SdpSolution(primal, dual, gap, iterations, status, trace, dual_residual)
