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
Each iteration solves the Newton system on ``(vec dZ, ds)`` (row-major
``vec``) as one dense complex system of size ``d^4 + 1``:

    [ K0 + K1 + P^T K2 P    -vec(I (x) G2^2) ] [vec dZ]
    [ -vec(I (x) G2^2)^dag       tr G2^2     ] [  ds  ]

with ``K_k = kron(G_k, G_k^T)`` and ``P`` the fixed matrix of ``Tr_out``.

Everything is dense numpy and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import partial_trace

SIGMA = 0.3
BOUNDARY_FRACTION = 0.98
DEFAULT_MAX_ITER = 200


@dataclass
class SdpSolution:
    primal: float
    dual: float
    gap: float
    iterations: int
    status: str  # "Optimal" | "IterationCap" | "NumericalFailure"
    trace: list[tuple[float, float]] = field(default_factory=list)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


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
    scaled = _hermitize(shrink_half @ direction @ shrink_half)
    lo = float(np.linalg.eigvalsh(scaled)[0])
    return np.inf if lo >= 0.0 else -1.0 / lo


def _kron4(g: np.ndarray) -> np.ndarray:
    """``kron(G, G^T)`` with its row and column index each split in two."""
    return g[:, None, :, None] * g.T[None, :, None, :]


def _newton_block(g0: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """``K0 + K1 + P^T K2 P``, the ``d^4 x d^4`` block of the Newton matrix."""
    d = g2.shape[0]
    diag_a, diag_c = np.arange(d)[:, None], np.arange(d)[None, :]
    zz = _kron4(g0) + _kron4(g1)
    # + P^T kron(G2, G2^T) P: entry ((a, b, a, b'), (c, e, c, e')) is G2[b, e] G2[e', b']
    zz.reshape((d,) * 8)[diag_a, :, diag_a, :, diag_c, :, diag_c, :] += _kron4(g2)
    return zz.reshape(d**4, d**4)


def _lift(y: np.ndarray) -> np.ndarray:
    """``I (x) Y``, the adjoint of ``Tr_out``."""
    return np.kron(np.eye(y.shape[0]), y)


def _nt_scaling(s: np.ndarray, s_half: np.ndarray, s_invhalf: np.ndarray, w: np.ndarray):
    """``(G, W^(-1/2))`` with ``G = S^(-1/2) (S^(1/2) W S^(1/2))^(1/2) S^(-1/2)``,
    or None when ``W`` or the middle product is not positive definite."""
    _, w_invhalf, w_lo = _psd_sqrt_pair(w)
    if w_lo <= 0.0:
        return None
    in_evals, in_vecs = np.linalg.eigh(_hermitize(s_half @ w @ s_half))
    if in_evals[0] <= 0.0:
        return None
    inner_half = (in_vecs * np.sqrt(in_evals)) @ in_vecs.conj().T
    return _hermitize(s_invhalf @ inner_half @ s_invhalf), w_invhalf


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

    def tr_out(m):
        return partial_trace(m, (d, d), 1)

    beta = float(np.max(np.abs(np.linalg.eigvalsh(j)))) + 1.0
    z = beta * np.eye(d * d, dtype=complex)
    s = beta * d + 1.0
    w_start = np.eye(d * d, dtype=complex) / d
    ws = [w_start, w_start, 2.0 * np.eye(d, dtype=complex) / d]

    trace: list[tuple[float, float]] = []
    best = (np.nan, np.nan)
    status = "IterationCap"
    iterations = 0
    stalls = 0
    # keep the barrier target from collapsing below what double precision can
    # certify; iterates then hover near the tolerance scale instead of
    # grinding into singular S, W
    total_dim = 2 * d * d + d
    mu_floor = 0.25 * tol / total_dim

    for iterations in range(1, max_iter + 1):
        slacks = [_hermitize(z - j), z, _hermitize(s * eye_in - tr_out(z))]
        roots = [_psd_sqrt_pair(sk) for sk in slacks]
        if min(lo for *_, lo in roots) <= 0.0:
            status = "NumericalFailure"
            break

        primal = 2.0 * s
        comp = sum(float(np.vdot(sk, wk).real) for sk, wk in zip(slacks, ws))
        dual = primal - comp
        trace.append((primal, dual))
        best = (primal, dual)
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

        g2sq = gs[2] @ gs[2]
        newton = np.empty((n + 1, n + 1), dtype=complex)
        newton[:n, :n] = _newton_block(*gs)
        border = _lift(g2sq).reshape(-1)
        newton[:n, n] = -border
        newton[n, :n] = -border.conj()
        newton[n, n] = np.trace(g2sq).real
        # the dual residual of the current W is zero up to roundoff drift
        rhs = np.empty(n + 1, dtype=complex)
        rhs[:n] = (grg[0] + grg[1] + ws[0] + ws[1] - _lift(grg[2] + ws[2])).reshape(-1)
        rhs[n] = np.trace(grg[2]).real + np.trace(ws[2]).real - 2.0
        try:
            step = np.linalg.solve(newton, rhs)
        except np.linalg.LinAlgError:
            step = rhs * np.nan
        if not np.all(np.isfinite(step)):
            status = "NumericalFailure"
            break
        dz = _hermitize(step[:n].reshape(d * d, d * d))
        ds = float(step[n].real)

        dslacks = [dz, dz, _hermitize(ds * eye_in - tr_out(dz))]
        dws = [_hermitize(g @ (rc - dsk) @ g) for g, rc, dsk in zip(gs, rcs, dslacks)]
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
    return SdpSolution(primal, dual, gap, iterations, status, trace)
