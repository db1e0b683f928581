"""Dense linear-algebra kernel shared by every other module.

All channel representations in this package use the column-stacking
convention: ``vec(A)[i + d*j] == A[i, j]``, i.e. columns of a matrix are
stacked on top of each other.  With that convention the supermatrix of the
unitary channel ``rho -> U rho U^dag`` is ``kron(conj(U), U)``, which is the
form produced by :func:`unitary_superop`.  The Choi matrix produced by
:func:`choi_from_super` lives on output (x) input and has trace ``d`` for
trace-preserving maps.

A Hermiticity-preserving map is a *real* matrix in any orthonormal basis of
Hermitian operators (its Pauli transfer matrix when the basis is Pauli
strings).  :func:`hermitian_basis_rows` re-expresses vec positions in the
basis of matrix units ``E_ii``, ``(E_ij + E_ji)/sqrt2`` and
``i(E_ij - E_ji)/sqrt2`` (``i > j``), which exists for every ``d``, and
:func:`from_hermitian_basis` turns a real matrix in that basis back into a
supermatrix; each element of the basis touches at most two vec positions, so
a change of basis costs O(d^4) instead of two dense products.  Those two
positions are ``i + d*j`` and its transpose ``j + d*i``, so the basis keeps
apart only position sets closed under that swap: it merges the operators
``|s><t|`` and ``|t><s|`` between two sectors ``s != t``, and converting
such a merged block back leaves roundoff where the map is exactly zero.

Everything here is numpy on small matrices (system dimension up to 16,
superoperators up to 256 x 256), split where the matrix allows it:
:func:`blocks` reads the connected components of a matrix's *exact*
nonzero pattern, and the eigensystems (:func:`block_eigh`,
:func:`hermitian_exp`, :func:`trace_norm`) run block by block, one stacked
call per block size.  Only entries that are exactly 0.0 separate blocks, with
no tolerance, so a blockwise value is the value of the same matrix; a matrix
with no exact zeros is one block and takes the dense path.  Eigenvectors sit
at their block's own indices, so the zeros survive the products and powers
built from them.  :func:`trace_norm` first drops the indices whose row and
column are exactly zero, so its check and its split run on the support alone.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_ATOL = 1e-12
# trace_norm's Hermiticity check.  Every caller passes the Choi matrix of a
# Hermiticity-preserving map.  The worst deviation the package produces is
# 1.1e-16 at 2 and 4 qubits with n up to MAX_STEPS (the unnormalized Choi
# matrix of a channel difference under averaged jitter, depolarizing and
# decoherence, t = 0.1 and 1); the defect maps' Choi matrices deviate by 0.
TRACE_NORM_HERMITIAN_ATOL = 1e-8


def _as_square(m: np.ndarray, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """``m`` as an ndarray, raising ``ValueError`` unless it is a square
    matrix, or with ``stacked`` a stack of them along the leading axes."""
    m = np.asarray(m)
    if not (m.ndim == 2 or (stacked and m.ndim > 2)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_hermitian(m: np.ndarray, m_adj: np.ndarray, name: str, atol: float):
    dev = float(np.max(np.abs(m - m_adj))) if m.size else 0.0
    if not dev <= atol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} > {atol:.1e}")


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as an ndarray, raising ``ValueError`` if it is not Hermitian."""
    m = _as_square(m, name)
    _check_hermitian(m, m.conj().T, name, HERMITIAN_ATOL)
    return m


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part ``(M + M^dag) / 2``, which strips the roundoff asymmetry
    of a product that is Hermitian in exact arithmetic; a stack of matrices
    along the leading axes is taken matrix by matrix."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def blocks(m: np.ndarray) -> list[np.ndarray]:
    """Connected components of the symmetrized exact nonzero pattern
    ``(m != 0) | (m != 0).T``, as ascending index arrays ordered by their
    smallest index.

    Every index starts labelled by itself; each round it takes the least
    label among itself and its neighbours and then its label's label, until
    no label moves.  Labels only fall and stay inside their component, so
    each component ends labelled by its smallest index.
    """
    m = _as_square(m, "blocks argument")
    linked = m != 0
    linked = linked | linked.T | np.eye(m.shape[0], dtype=bool)
    label = np.arange(m.shape[0])
    while True:
        nxt = np.where(linked, label, label.size).min(axis=1)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order])) + 1
    return np.split(order, starts)


def block_stacks(m: np.ndarray) -> list[np.ndarray]:
    """The :func:`blocks` of ``m`` grouped by size, one ``(count, size)``
    index array per size in order of first appearance: ``x[i[:, :, None],
    i[:, None, :]]`` gathers the ``count`` diagonal blocks of that size of any
    matrix ``x`` as one stack, and assigning to it scatters one back."""
    parts = blocks(m)
    sizes = np.fromiter(map(len, parts), int, len(parts))
    starts = np.cumsum(sizes) - sizes
    order = np.concatenate(parts)
    return [order[starts[sizes == s, None] + np.arange(s)] for s in dict.fromkeys(sizes.tolist())]


def block_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian matrix block by block: eigenvalues ``e`` and a
    unitary ``W`` with ``h == W diag(e) W^dag``, ``W`` exactly zero outside
    the blocks of ``h`` and each block's eigenpairs at its own indices
    (ascending within a block).  One stacked ``eigh`` per block size."""
    evals = np.empty(h.shape[0])
    evecs = np.zeros(h.shape, dtype=np.result_type(h.dtype, float))
    for i in block_stacks(h):
        e, w = np.linalg.eigh(h[i[:, :, None], i[:, None, :]])
        evals[i] = e
        evecs[i[:, :, None], i[:, None, :]] = w
    return evals, evecs


def hermitian_exp(h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary ``exp(i * theta * H)`` of a Hermitian matrix via its blockwise
    eigendecomposition; exactly zero outside the blocks of ``H``.

    :param h: Hermitian matrix.  Rejected if it deviates from Hermiticity by
        more than ``1e-12`` in max-abs entry.
    :param theta: real angle multiplying ``H`` in the exponent.  Note the
        positive sign convention ``exp(+i theta H)``.
    :return: unitary matrix of the same shape as ``h``.
    """
    h = require_hermitian(h, "hermitian_exp argument")
    evals, evecs = block_eigh(h)
    phases = np.exp(1j * float(theta) * evals)
    return (evecs * phases) @ evecs.conj().T


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of ``|eigvalsh|`` of its
    Hermitian part, taken block by block, one stacked call per block size.
    Indices whose row and column are exactly zero are dropped first; each
    would add only a zero eigenvalue and a zero deviation.

    Raises ``ValueError`` for a matrix farther than
    ``TRACE_NORM_HERMITIAN_ATOL`` from Hermitian in max-abs entry.
    """
    m = _as_square(m, "trace_norm argument")
    linked = m != 0
    keep = np.flatnonzero(linked.any(axis=0) | linked.any(axis=1))
    if not keep.size:
        return 0.0
    m = m[keep[:, None], keep]
    # one adjoint serves the check and the Hermitian part
    m_adj = m.conj().T
    _check_hermitian(m, m_adj, "trace_norm argument", TRACE_NORM_HERMITIAN_ATOL)
    m = 0.5 * (m + m_adj)
    evals = [np.linalg.eigvalsh(m[i[:, :, None], i[:, None, :]]).ravel() for i in block_stacks(m)]
    return float(np.sum(np.abs(np.concatenate(evals))))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: ``vec(M)[i + d*j] == M[i, j]``."""
    m = _as_square(m, "vec argument")
    return m.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; the length of ``v`` must be a perfect square.

    A stack of vectors along the last axis becomes a stack of matrices.
    """
    v = np.asarray(v)
    d = int(round(np.sqrt(v.shape[-1])))
    if d * d != v.shape[-1]:
        raise ValueError(f"unvec argument has length {v.shape[-1]}, not a perfect square")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Supermatrix of ``rho -> U rho U^dag`` in the column-stacking convention.

    Satisfies ``unitary_superop(U) @ vec(rho) == vec(U rho U^dag)``.
    """
    u = _as_square(u, "unitary_superop argument")
    return np.kron(u.conj(), u)


def choi_from_super(t: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij E(|i><j|) (x) |i><j|`` of a
    supermatrix, or of each supermatrix of a stack: an index shuffle, matrix
    by matrix along the leading axes.

    The output lives on output (x) input; a trace-preserving map gives trace
    ``d``, and dividing by ``d`` gives its Choi state.
    """
    t = _as_square(t, "superoperator", stacked=True)
    d = int(round(np.sqrt(t.shape[-1])))
    if d * d != t.shape[-1]:
        raise ValueError(f"superoperator of size {t.shape[-1]} is not d^2 x d^2")
    lead = t.ndim - 2
    shuffled = t.reshape(t.shape[:-2] + (d, d, d, d)).transpose(
        *range(lead), lead + 1, lead + 3, lead, lead + 2
    )
    return shuffled.reshape(t.shape)


def hermitian_basis_rows(t: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``Q^dag t`` (or ``Q t`` with ``inverse``) for the unitary ``Q`` whose
    columns are the vec'd Hermitian matrix-unit basis: the rows of a
    ``(d^2, m)`` array, read as vec positions, re-expressed in that basis (or
    back).  A Hermiticity-preserving supermatrix ``S`` has the real matrix
    ``Q^dag S Q`` there, with entries ``tr(B_k S(B_l))``.

    Basis element ``p = a + d*b`` takes the place of vec position ``p``:
    ``E_aa`` when ``a == b``, ``(E_ab + E_ba)/sqrt2`` when ``a < b`` and
    ``i(E_ab - E_ba)/sqrt2`` when ``a > b``.  Rows of ``t`` reshape to
    ``(d, d, m)`` with ``[b, a]`` holding vec position ``a + d*b``; with
    ``x`` at ``[r, c]`` and ``y`` at ``[c, r]`` (``r > c``), ``Q^dag`` writes
    ``(x + y)/sqrt2`` and ``i(x - y)/sqrt2`` there, and ``Q`` writes
    ``(x - i y)/sqrt2`` and ``(x + i y)/sqrt2``.
    """
    t = np.asarray(t)
    d = math.isqrt(t.shape[0])
    z = t.reshape(d, d, -1).astype(complex)
    r, c = np.tril_indices(d, -1)
    x, y = z[r, c], z[c, r]
    s = math.sqrt(0.5)
    if inverse:
        z[r, c] = (x - 1j * y) * s
        z[c, r] = (x + 1j * y) * s
    else:
        z[r, c] = (x + y) * s
        z[c, r] = (x - y) * (1j * s)
    return z.reshape(t.shape)


def from_hermitian_basis(r: np.ndarray) -> np.ndarray:
    """Supermatrix ``Q R Q^dag`` of a real matrix ``R`` in the Hermitian
    basis of :func:`hermitian_basis_rows`."""
    r = _as_square(r, "basis matrix")
    left = hermitian_basis_rows(r, inverse=True).conj().T
    return hermitian_basis_rows(left, inverse=True).conj().T
