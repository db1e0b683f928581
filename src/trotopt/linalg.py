"""Dense linear-algebra kernel shared by every other module.

All channel representations in this package use the column-stacking
convention: ``vec(A)[i + d*j] == A[i, j]``, i.e. columns of a matrix are
stacked on top of each other.  With that convention the supermatrix of the
unitary channel ``rho -> U rho U^dag`` is ``kron(conj(U), U)``, which is the
form produced by :func:`unitary_superop`.  The Choi matrix produced by
:func:`super_to_choi` lives on output (x) input and is normalized to unit
trace for trace-preserving maps.

Everything here is plain dense numpy; matrices are expected to be small
(system dimension up to 16, superoperators up to 256 x 256).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def require_hermitian(m: np.ndarray, name: str = "matrix", atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Return ``m`` as an ndarray, raising ``ValueError`` if it is not Hermitian."""
    m = _as_square(m, name)
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= atol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} > {atol:.1e}")
    return m


def hermitian_exp(h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary ``exp(i * theta * H)`` of a Hermitian matrix via eigendecomposition.

    :param h: Hermitian matrix.  Rejected if it deviates from Hermiticity by
        more than ``1e-12`` in max-abs entry.
    :param theta: real angle multiplying ``H`` in the exponent.  Note the
        positive sign convention ``exp(+i theta H)``.
    :return: unitary matrix of the same shape as ``h``.
    """
    h = require_hermitian(h, "hermitian_exp argument")
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(1j * float(theta) * evals)
    return (evecs * phases) @ evecs.conj().T


def trace_norm(m: np.ndarray) -> float:
    """Trace norm (sum of singular values) of a square matrix."""
    m = _as_square(m, "trace_norm argument")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: ``vec(M)[i + d*j] == M[i, j]``."""
    m = _as_square(m, "vec argument")
    return m.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; the length of ``v`` must be a perfect square."""
    v = np.asarray(v).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"unvec argument has length {v.size}, not a perfect square")
    return v.reshape((d, d), order="F")


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Supermatrix of ``rho -> U rho U^dag`` in the column-stacking convention.

    Satisfies ``unitary_superop(U) @ vec(rho) == vec(U rho U^dag)``.
    """
    u = _as_square(u, "unitary_superop argument")
    return np.kron(u.conj(), u)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Partial trace of a matrix on a bipartite space.

    :param m: square matrix of size ``dims[0] * dims[1]``.
    :param dims: dimensions ``(dA, dB)`` of the two tensor factors, with the
        first factor on the left of the Kronecker product.
    :param keep: ``0`` to trace out the second factor (keeping A), ``1`` to
        trace out the first (keeping B).
    :return: reduced matrix of size ``dims[keep]``.
    """
    da, db = int(dims[0]), int(dims[1])
    m = _as_square(m, "partial_trace argument")
    if m.shape[0] != da * db:
        raise ValueError(f"matrix of size {m.shape[0]} does not factor as {da} x {db}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    t = m.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def _reshuffle(t: np.ndarray) -> np.ndarray:
    """Involution-like index shuffle between supermatrix and (unnormalized) Choi."""
    t = _as_square(t, "superoperator")
    d = int(round(np.sqrt(t.shape[0])))
    if d * d != t.shape[0]:
        raise ValueError(f"superoperator of size {t.shape[0]} is not d^2 x d^2")
    return t.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def choi_from_super(t: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij E(|i><j|) (x) |i><j|`` of a supermatrix.

    The output lives on output (x) input; a trace-preserving map gives trace
    ``d``.  Most callers want :func:`super_to_choi`, which divides by ``d``.
    """
    return _reshuffle(t)


def super_to_choi(t: np.ndarray) -> np.ndarray:
    """Choi state of a supermatrix, normalized so TP maps give unit trace."""
    j = _reshuffle(t)
    d = int(round(np.sqrt(t.shape[0])))
    return j / d


def choi_to_super(j: np.ndarray) -> np.ndarray:
    """Supermatrix of a normalized Choi state; inverse of :func:`super_to_choi`."""
    j = _as_square(j, "choi matrix")
    d = int(round(np.sqrt(j.shape[0])))
    if d * d != j.shape[0]:
        raise ValueError(f"choi matrix of size {j.shape[0]} is not d^2 x d^2")
    return (j * d).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
