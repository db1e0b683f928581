"""Statistical distances between states and channels.

Trace distances here follow the unhalved convention
``D(rho, sigma) = trace_norm(rho - sigma)`` with range [0, 2], matching the
channel-level measures: the J-distance is the trace distance of normalized
Choi states and the diamond distance the completely-bounded (stabilized)
norm of the difference map.  For a pair of unitary channels the diamond
distance collapses to the chord spanning the shortest arc of the unit circle
that holds the eigenvalues of ``U V^dag`` (2 when no arc shorter than pi
holds them), which avoids the SDP entirely.

The unstabilized induced trace norm has no closed form; it is estimated by
multistart alternating ascent over pure input states and always reported as
a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import (
    choi_from_super,
    partial_trace,
    super_to_choi,
    trace_norm,
    unitary_superop,
    unvec,
    vec,
)


class _ChannelMetric:
    """Everything the harness asks of a metric, dispatched by the metric itself.

    ``name`` is the config spelling; ``benchmark(d)`` the distance of complete
    noise from a unitary channel; ``norm`` applies to Hermiticity-preserving
    maps, ``distance`` to a pair of channels and ``unitary_distance`` to a
    pair of unitaries.  Channel distances cannot exceed 2, so the diamond and
    heuristic distances clip values above that; norms are never clipped.
    ``max_dim`` is the largest system dimension the metric can evaluate.
    The methods look the module-level functions up at call time, so wrapping
    those wraps every path.
    """

    max_dim = math.inf

    def benchmark(self, d: int) -> float:
        return noise_benchmarks(d)[1]


@dataclass(frozen=True)
class Diamond(_ChannelMetric):
    """Diamond (completely bounded trace) distance."""

    name = "diamond"

    @property
    def max_dim(self) -> int:
        return DIAMOND_MAX_DIM

    def norm(self, phi, sdp_tol: float = 1e-7) -> float:
        return diamond_norm_hp(phi, tol=sdp_tol)

    def distance(self, ta, tb, sdp_tol: float = 1e-7) -> float:
        return diamond_distance(ta, tb, tol=sdp_tol)

    def unitary_distance(self, u, v) -> float:
        return diamond_distance_unitary(u, v)


@dataclass(frozen=True)
class JDistance(_ChannelMetric):
    """Trace distance between the Choi states of the two channels."""

    name = "j"

    def norm(self, phi, sdp_tol: float = 1e-7) -> float:
        return j_norm(phi)

    def distance(self, ta, tb, sdp_tol: float = 1e-7) -> float:
        return j_distance(ta, tb)

    def unitary_distance(self, u, v) -> float:
        return j_distance(unitary_superop(u), unitary_superop(v))


@dataclass(frozen=True)
class InducedTraceHeuristic(_ChannelMetric):
    """Multistart lower-bound search for the unstabilized induced trace norm."""

    name = "heuristic"
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")

    def benchmark(self, d: int) -> float:
        return noise_benchmarks(d)[0]

    def norm(self, phi, sdp_tol: float = 1e-7) -> float:
        return induced_trace_norm_heuristic(phi, self)

    def distance(self, ta, tb, sdp_tol: float = 1e-7) -> float:
        return induced_trace_distance_heuristic(ta, tb, self)

    def unitary_distance(self, u, v) -> float:
        return self.distance(unitary_superop(u), unitary_superop(v))


Metric = Diamond | JDistance | InducedTraceHeuristic
METRICS = {cls.name: cls for cls in (JDistance, Diamond, InducedTraceHeuristic)}


class DiamondNormError(RuntimeError):
    """Raised when the diamond-norm SDP fails to certify; carries best bounds."""

    def __init__(self, status: str, primal: float, dual: float, iterations: int):
        super().__init__(
            f"diamond-norm SDP did not converge: status={status}, "
            f"best bounds [{dual:.6g}, {primal:.6g}] after {iterations} iterations"
        )
        self.status = status
        self.primal = primal
        self.dual = dual
        self.iterations = iterations


def _superop_dim(t: np.ndarray, name: str) -> int:
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"{name} must be a square supermatrix, got shape {t.shape}")
    d = int(round(np.sqrt(t.shape[0])))
    if d * d != t.shape[0]:
        raise ValueError(f"{name} has size {t.shape[0]}, not a perfect square")
    return d


def _check_pair(ta: np.ndarray, tb: np.ndarray) -> int:
    da = _superop_dim(ta, "first channel")
    db = _superop_dim(tb, "second channel")
    if da != db:
        raise ValueError(f"channel dimensions differ: {da} vs {db}")
    return da


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Unhalved trace distance ``trace_norm(rho_a - rho_b)`` between states."""
    rho_a = np.asarray(rho_a)
    rho_b = np.asarray(rho_b)
    if rho_a.shape != rho_b.shape:
        raise ValueError(f"state dimensions differ: {rho_a.shape} vs {rho_b.shape}")
    for name, rho in (("first state", rho_a), ("second state", rho_b)):
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"{name} has trace {tr:.6g}, expected 1")
    return trace_norm(rho_a - rho_b)


def j_distance(ta: np.ndarray, tb: np.ndarray) -> float:
    """Trace distance between the normalized Choi states of two channels."""
    _check_pair(ta, tb)
    return trace_distance(super_to_choi(ta), super_to_choi(tb))


def j_norm(phi: np.ndarray) -> float:
    """J-norm of a Hermiticity-preserving supermatrix.

    Equals ``j_distance(TA, TB)`` for ``phi = TA - TB`` but skips the
    unit-trace validation, so it also applies to difference-like maps.
    """
    d = _superop_dim(phi, "map")
    return trace_norm(choi_from_super(phi)) / d


def noise_benchmarks(d: int) -> tuple[float, float]:
    """Distances at which a channel is as bad as complete noise.

    Returns ``(2 - 2/d, 2 - 2/d**2)``: the first applies to the unstabilized
    induced trace norm, the second to the diamond and J distances.
    """
    if d < 2:
        raise ValueError(f"benchmarks need dimension >= 2, got {d}")
    return 2.0 - 2.0 / d, 2.0 - 2.0 / (d * d)


# -- diamond distance ----------------------------------------------------


def _check_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not dev <= 1e-9:
        raise ValueError(f"{name} is not unitary: max |U^dag U - I| = {dev:.3e}")
    return u


def diamond_distance_unitary(u: np.ndarray, v: np.ndarray) -> float:
    """Diamond distance between two unitary channels, in closed form.

    The eigenvalues of ``U V^dag`` lie on the unit circle.  If they fit in an
    arc shorter than pi, the distance is the chord joining the arc's two
    ends; otherwise it is 2.  No SDP is needed.
    """
    u = _check_unitary(u, "first unitary")
    v = _check_unitary(v, "second unitary")
    if u.shape != v.shape:
        raise ValueError(f"unitary dimensions differ: {u.shape} vs {v.shape}")
    evals = np.linalg.eigvals(u @ v.conj().T)
    evals = evals[np.argsort(np.angle(evals))]
    angles = np.angle(evals)
    # the largest gap between neighbouring angles, the wrap-around one last
    gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
    k = int(np.argmax(gaps))
    if gaps[k] <= math.pi:
        return 2.0
    return min(float(abs(evals[k] - evals[(k + 1) % evals.size])), 2.0)


# One iteration of the diamond SDP costs O(d^8) time and O(d^6) memory.  On
# one core a random 3-qubit (d = 8) unitary difference certifies at tol 1e-7
# in 19 iterations, 0.7 s and 59 MB peak.  At d = 16 one iteration takes
# about 3 s and the solve 1.1 GB peak: a random unitary difference took 20
# iterations and 55 s, and the 4-qubit Ising jitter defect map stopped with
# NumericalFailure after 68 iterations at gap 1.1e-7.  So each point of a
# 4-qubit sweep would take a minute or more, and the diamond metric stops at
# three qubits.
DIAMOND_MAX_DIM = 8


def diamond_norm_hp(phi: np.ndarray, tol: float = 1e-7, max_iter: int = sdp.DEFAULT_MAX_ITER) -> float:
    """Diamond norm of a Hermiticity-preserving, trace-annihilating
    supermatrix via Watrous's single-variable dual SDP (arXiv:1207.5726):
    ``min 2 |Tr_out Z|_inf`` over ``Z >= J, Z >= 0`` for the Choi matrix ``J``.

    Every channel difference and both defect maps annihilate trace; the
    single-variable SDP is exact only on such maps, so any other map is
    rejected.  Raises :class:`DiamondNormError` carrying the best primal/dual
    bounds if the solver cannot certify a gap below ``tol``.
    """
    d = _superop_dim(phi, "map")
    j_u = choi_from_super(phi)
    if float(np.max(np.abs(j_u - j_u.conj().T))) > 1e-10:
        raise ValueError("map is not Hermiticity-preserving (Choi matrix not Hermitian)")
    j_u = 0.5 * (j_u + j_u.conj().T)
    if float(np.max(np.abs(partial_trace(j_u, (d, d), 1)))) > 1e-10:
        raise ValueError("map must annihilate trace (Tr_out of its Choi matrix must vanish)")
    sol = sdp.solve(j_u, tol=tol, max_iter=max_iter)
    if sol.status != "Optimal":
        raise DiamondNormError(sol.status, sol.primal, sol.dual, sol.iterations)
    return max(float(sol.primal), 0.0)


def diamond_distance(ta: np.ndarray, tb: np.ndarray, tol: float = 1e-7) -> float:
    """Diamond distance between two channels, certified to duality gap ``tol``.

    Channel distances cannot exceed 2, so roundoff above that is clipped.
    """
    _check_pair(ta, tb)
    val = diamond_norm_hp(
        np.asarray(ta, dtype=complex) - np.asarray(tb, dtype=complex), tol
    )
    return min(val, 2.0 + tol)


# -- unstabilized induced trace norm (heuristic) -------------------------


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def induced_trace_norm_heuristic(
    phi: np.ndarray,
    cfg: InducedTraceHeuristic = InducedTraceHeuristic(),
) -> float:
    """Best found value of ``trace_norm(Phi(psi psi^dag))`` over pure ``psi``.

    Alternating ascent: for a fixed input the optimal observable is the sign
    of the output, and for a fixed observable the optimal input is the top
    eigenvector of the pulled-back operator; each step is monotone, and the
    search restarts from ``cfg.restarts`` seeded random states (restart ``r``
    uses ``SeedSequence(cfg.seed, spawn_key=(r,))``).  The result is a lower
    bound on the unstabilized induced trace norm, never a certified value.
    """
    d = _superop_dim(phi, "map")
    phi = np.asarray(phi, dtype=complex)
    phi_adj = phi.conj().T
    best = 0.0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,))
        )
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        prev = -np.inf
        val = 0.0
        for _ in range(100):
            out = _hermitize(unvec(phi @ vec(np.outer(psi, psi.conj()))))
            evals, evecs = np.linalg.eigh(out)
            val = float(np.abs(evals).sum())
            if val - prev <= 1e-13 * (1.0 + val):
                break
            prev = val
            observable = (evecs * np.sign(evals)) @ evecs.conj().T
            pulled = _hermitize(unvec(phi_adj @ vec(observable)))
            psi = np.linalg.eigh(pulled)[1][:, -1]
        best = max(best, val)
    return best


def induced_trace_distance_heuristic(
    ta: np.ndarray,
    tb: np.ndarray,
    cfg: InducedTraceHeuristic = InducedTraceHeuristic(),
) -> float:
    """Lower-bound search for the unstabilized distance between two channels.

    Channel distances cannot exceed 2, so a search value above that is clipped.
    """
    _check_pair(ta, tb)
    val = induced_trace_norm_heuristic(
        np.asarray(ta, dtype=complex) - np.asarray(tb, dtype=complex), cfg
    )
    return min(val, 2.0)
