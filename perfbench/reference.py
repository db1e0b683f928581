"""Reference computations for the benchmark's output checks.

Nothing here calls trotopt: the checks receive only the Hamiltonian terms
from it.  Channels are never built as supermatrices.  Instead the Choi state
of a circuit is propagated gate by gate, starting from the maximally
entangled state on system (x) ancilla, with the system factor on the left:

    Choi(Phi) = (Phi (x) id)(|Omega><Omega|),  |Omega> = sum_i |i>|i> / sqrt(d).

A gate applies ``exp(+i theta H)``, the package's sign convention.  The
Gaussian average over a gate's timing error is taken by Gauss-Hermite
quadrature over ``scipy.linalg.expm``, so it shares no code with the
closed-form dephasing factors the program uses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Nodes of the Gauss-Hermite rule.  The rule integrates exp(i g delta) against
# N(0, sigma^2) exactly up to the Taylor term of degree 2 * GH_NODES - 1; at
# the benchmark's g * sigma <= 0.1 the remainder is far below 1e-15.
GH_NODES = 12


def gate(h: np.ndarray, theta) -> np.ndarray:
    """``exp(i theta H)``; ``theta`` may be an array, giving a stack of gates."""
    theta = np.asarray(theta, dtype=float)
    return expm(1j * theta[..., None, None] * h)


def _apply_left(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``(U (x) I) rho (U (x) I)^dag`` for ``rho`` on system (x) ancilla."""
    d = u.shape[0]
    m = rho.shape[0] // d
    r = rho.reshape(d, m * rho.shape[1])
    r = (u @ r).reshape(rho.shape)
    r = r.conj().T.reshape(d, m * rho.shape[0])
    return (u @ r).reshape(rho.shape).conj().T


def max_entangled(d: int) -> np.ndarray:
    omega = np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d)
    return np.outer(omega, omega.conj())


def ideal_choi(terms, t: float) -> np.ndarray:
    """Choi state of the exact evolution ``exp(i t sum_j H_j)``."""
    total = sum(terms[1:], start=np.array(terms[0], dtype=complex))
    return _apply_left(gate(total, t), max_entangled(total.shape[0]))


def averaged_jitter_choi(terms, t: float, n: int, sigma: float) -> np.ndarray:
    """Choi state of ``n`` first-order steps, each gate averaged over a
    Gaussian duration error of width ``sigma``.  Terms act in list order
    within a step."""
    x, w = np.polynomial.hermite.hermgauss(GH_NODES)
    weights = w / math.sqrt(math.pi)
    offsets = math.sqrt(2.0) * sigma * x
    tau = t / n
    stacks = [gate(np.asarray(h, dtype=complex), tau + offsets) for h in terms]
    rho = max_entangled(terms[0].shape[0])
    for _ in range(n):
        for stack in stacks:
            rho = sum(wk * _apply_left(u, rho) for wk, u in zip(weights, stack))
    return rho


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def trace_norm_hermitian(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(_hermitian(m))).sum())


def averaged_jitter_delta(terms, t: float, n: int, sigma: float) -> np.ndarray:
    """Choi state of ``Delta``, the averaged-jitter circuit minus the exact
    evolution."""
    return averaged_jitter_choi(terms, t, n, sigma) - ideal_choi(terms, t)


def averaged_jitter_j(terms, t: float, n: int, sigma: float) -> float:
    """J-distance of the averaged-jitter circuit from the exact evolution."""
    return trace_norm_hermitian(averaged_jitter_delta(terms, t, n, sigma))


# -- bounds on the stabilized and unstabilized norms of Delta ----------------
#
# The Choi state C of Delta holds its action on matrix units:
# Delta(|i><j|)[a, b] = d * C[(a, i), (b, j)].


def _map_tensor(choi: np.ndarray) -> np.ndarray:
    """``T[a, i, b, j] = Delta(|i><j|)[a, b]`` from the Choi state of Delta."""
    d = math.isqrt(choi.shape[0])
    return d * choi.reshape(d, d, d, d)


def diamond_lower_bound(choi: np.ndarray, iterations: int = 200) -> float:
    """See-saw lower bound on ``||Delta||_diamond``: the trace norm of
    ``(Delta (x) id)(psi psi^dag)`` at a pure input ``psi`` on system (x) a
    d-dimensional ancilla.

    It starts at the maximally entangled input, whose value is the J-norm.
    For a fixed input the best observable is the sign of the output; for a
    fixed observable the best input is the top eigenvector of the output
    pulled back through ``Delta^dag (x) id``.  Neither step lowers the value,
    and every value it passes through is attained, so it is a lower bound
    wherever it stops.
    """
    t = _map_tensor(choi)
    d = t.shape[0]
    psi = np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d)
    best = 0.0
    for _ in range(iterations):
        state = np.outer(psi, psi.conj()).reshape(d, d, d, d)  # [i, k, j, l]
        out = _hermitian(np.einsum("aibj,ikjl->akbl", t, state).reshape(d * d, d * d))
        evals, evecs = np.linalg.eigh(out)
        value = float(np.abs(evals).sum())
        if value <= best * (1.0 + 1e-14):
            break
        best = value
        sign = ((evecs * np.sign(evals)) @ evecs.conj().T).reshape(d, d, d, d)  # [a, k, b, l]
        pulled = _hermitian(np.einsum("aibj,akbl->ikjl", t.conj(), sign).reshape(d * d, d * d))
        psi = np.linalg.eigh(pulled)[1][:, -1]
    return best


def diamond_upper_bound(choi: np.ndarray) -> float:
    """``||tr_out P||_inf + ||tr_out N||_inf`` with ``P - N`` the Jordan
    split of Delta's unnormalized Choi matrix: Delta is the difference of
    the completely positive maps with Choi matrices P and N, and such a map's
    diamond norm is the largest eigenvalue of its Choi matrix's partial trace
    over the output."""
    evals, evecs = np.linalg.eigh(_hermitian(choi))
    d = math.isqrt(choi.shape[0])
    bound = 0.0
    for part in (np.clip(evals, 0.0, None), np.clip(-evals, 0.0, None)):
        m = (d * (evecs * part) @ evecs.conj().T).reshape(d, d, d, d)
        bound += float(np.linalg.eigvalsh(_hermitian(np.einsum("aiaj->ij", m)))[-1])
    return bound


def basis_input_lower_bound(choi: np.ndarray) -> float:
    """``max_i ||Delta(|i><i|)||_1``, a lower bound on the unstabilized
    induced trace norm of Delta (inputs restricted to the computational
    basis)."""
    t = _map_tensor(choi)
    return max(trace_norm_hermitian(t[:, i, :, i]) for i in range(t.shape[0]))


# -- defect maps ------------------------------------------------------------


def _choi_of(apply, d: int) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij Phi(|i><j|) (x) |i><j|`` of a linear map."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out += np.kron(apply(e), e)
    return out


def commutator_defect_j_norm(terms) -> float:
    """J-norm of ``rho -> [C, rho]`` with ``C = sum_{j<l} [H_j, H_l]``."""
    d = terms[0].shape[0]
    c = np.zeros((d, d), dtype=complex)
    for j in range(len(terms)):
        for l in range(j + 1, len(terms)):
            c += terms[j] @ terms[l] - terms[l] @ terms[j]
    return trace_norm_hermitian(_choi_of(lambda r: c @ r - r @ c, d)) / d


def jitter_defect_j_norm(terms) -> float:
    """J-norm of ``rho -> sum_j (H_j^2 rho + rho H_j^2) / 2 - H_j rho H_j``,
    the second-order generator of one Gaussian timing error per gate."""
    d = terms[0].shape[0]

    def apply(r):
        return sum(0.5 * (h @ h @ r + r @ h @ h) - h @ r @ h for h in terms)

    return trace_norm_hermitian(_choi_of(apply, d)) / d


# -- sampled jitter ---------------------------------------------------------


def sampled_unitaries(terms, t: float, n: int, sigma: float, seed: int, runs: int):
    """The ``runs`` sampled circuit unitaries of one Monte-Carlo point.

    Run ``r`` draws its ``(n, k)`` table of duration errors, row-major, from
    ``default_rng(SeedSequence(seed, spawn_key=(r, n)))``; gate ``(i, j)``
    runs ``exp(i H_j (t/n + delta_ij))``.  Returns a ``(runs, d, d)`` array.
    """
    k = len(terms)
    deltas = np.empty((runs, n, k))
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r, n)))
        deltas[r] = rng.normal(0.0, sigma, size=(n, k))
    gates = [gate(np.asarray(h, dtype=complex), t / n + deltas[:, :, j]) for j, h in enumerate(terms)]
    d = terms[0].shape[0]
    u = np.broadcast_to(np.eye(d, dtype=complex), (runs, d, d))
    for i in range(n):
        for j in range(k):
            u = gates[j][:, i] @ u
    return u


def unitary_j(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J-distance of unitary channels: ``2 sqrt(1 - |tr(U^dag V) / d|^2)``.
    ``u`` may be a stack."""
    d = v.shape[-1]
    overlap = np.abs(np.einsum("...ij,ij->...", u.conj(), v)) / d
    return 2.0 * np.sqrt(np.clip(1.0 - overlap**2, 0.0, None))


def unitary_diamond(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diamond distance of unitary channels: ``2 sqrt(1 - r^2)`` with ``r``
    the distance from 0 to the convex hull of the eigenvalues of ``U V^dag``.

    The eigenvalues lie on the unit circle.  If they fit in an arc shorter
    than pi, the nearest hull point is the midpoint of the chord joining the
    arc's ends, at ``r = cos(arc / 2)``; otherwise the hull holds 0.
    """
    evals = np.linalg.eigvals(u @ v.conj().T)
    angles = np.sort(np.angle(evals), axis=-1)
    gaps = np.diff(angles, axis=-1, append=angles[..., :1] + 2.0 * math.pi)
    arc = 2.0 * math.pi - gaps.max(axis=-1)
    return np.where(arc < math.pi, 2.0 * np.sin(arc / 2.0), 2.0)


# -- step grid --------------------------------------------------------------


def log_grid(lo: int, hi: int, per_decade: int) -> list[int]:
    """The integer grid ``log:lo:hi:per_decade`` of the config format:
    ``per_decade`` log-spaced points per decade from ``lo`` to ``hi``,
    rounded to integers, duplicates removed."""
    count = max(2, round(math.log10(hi / lo) * per_decade) + 1)
    step = math.log10(hi / lo) / (count - 1)
    return sorted({round(lo * 10 ** (i * step)) for i in range(count)})


def best_integer_steps(step_cost: float, noise_cost: float, n_max: int) -> int:
    """Brute-force minimizer of ``step_cost / n + noise_cost * n`` over
    ``1 <= n <= n_max``; ties go to the smaller ``n``."""
    return min(range(1, n_max + 1), key=lambda n: (step_cost / n + noise_cost * n, n))
