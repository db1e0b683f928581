"""Statistical distances between states and channels.

Trace distances here follow the unhalved convention
``D(rho, sigma) = trace_norm(rho - sigma)`` with range [0, 2], matching the
channel-level measures: the J-distance is the trace distance of normalized
Choi states and the diamond distance the completely-bounded (stabilized)
norm of the difference map.  Every metric has a closed form on a pair of
unitary channels, over the eigenvalues ``exp(i theta_k)`` of ``U V^dag``, so
no superoperator is built for them:

* the diamond distance is the chord spanning the shortest arc of the unit
  circle that holds those eigenvalues (2 when no arc shorter than pi holds
  them), which avoids the SDP entirely;
* the Choi states are pure, so the J-distance is
  ``2 sqrt(1 - |tr(U^dag V)|^2 / d^2)``, evaluated as
  ``(2/d) sqrt(2 sum_{k,l} sin^2((theta_k - theta_l)/2))``, which does not
  cancel for nearly equal unitaries;
* an ancilla does not help to tell two unitary channels apart, so the
  unstabilized induced trace distance equals the diamond distance.

Otherwise the unstabilized induced trace norm has no closed form; it is
estimated by multistart alternating ascent over pure input states and always
reported as a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import choi_from_super, hermitize, trace_norm, unvec, vec

# The trace residual max |Tr S(|i><j|) - delta_ij| of a channel S (the entries
# of vec(I)^dag S - vec(I)^dag and of Tr_out of its Choi matrix) that both
# metrics accept; a difference of two channels may carry twice it.
TRACE_ATOL = 1e-9


class _ChannelMetric:
    """Everything the harness asks of a metric, dispatched by the metric itself.

    ``name`` is the config spelling; ``benchmark(d)`` the distance of complete
    noise from a unitary channel; ``norm`` applies to Hermiticity-preserving
    maps, ``distance`` to a pair of channels and ``unitary_distance`` to a
    pair of unitaries, in closed form.  ``norm`` and ``distance`` also take a
    ``(B, d^2, d^2)`` stack of maps (or of channel pairs) and return one value
    per map, a float for a single map; the diamond metric solves a stack as
    one stacked SDP, the others score its maps one by one.  Channel distances
    cannot exceed 2, so the diamond and heuristic distances clip values above
    that; norms are never clipped.
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

    def norm(self, phi, sdp_tol: float = 1e-7):
        return diamond_norm_hp(phi, tol=sdp_tol)

    def distance(self, ta, tb, sdp_tol: float = 1e-7):
        return diamond_distance(ta, tb, tol=sdp_tol)

    def unitary_distance(self, u, v) -> float:
        return diamond_distance_unitary(u, v)


@dataclass(frozen=True)
class JDistance(_ChannelMetric):
    """Trace distance between the Choi states of the two channels."""

    name = "j"

    def norm(self, phi, sdp_tol: float = 1e-7):
        return _per_map(j_norm, phi)

    def distance(self, ta, tb, sdp_tol: float = 1e-7):
        return _per_map(j_distance, ta, tb)

    def unitary_distance(self, u, v) -> float:
        return j_distance_unitary(u, v)


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

    def norm(self, phi, sdp_tol: float = 1e-7):
        return _per_map(lambda m: induced_trace_norm_heuristic(m, self), phi)

    def distance(self, ta, tb, sdp_tol: float = 1e-7):
        return _per_map(lambda a, b: induced_trace_distance_heuristic(a, b, self), ta, tb)

    def unitary_distance(self, u, v) -> float:
        return diamond_distance_unitary(u, v)


Metric = Diamond | JDistance | InducedTraceHeuristic
METRICS = {cls.name: cls for cls in (JDistance, Diamond, InducedTraceHeuristic)}


class DiamondNormError(RuntimeError):
    """Raised when the diamond-norm SDP fails to certify a map.  ``solutions``
    is the :class:`sdp.SdpStack` that :func:`sdp.solve` returned, one
    solution per map with its status and best bounds, the maps that certified
    included (status "Optimal"), and ``values`` holds the value of each map
    that certified (NaN for the others)."""

    def __init__(self, solutions: sdp.SdpStack, values: np.ndarray):
        failures = [
            f"map {k}: status={sol.status}, best bounds [{sol.dual:.6g}, {sol.primal:.6g}] "
            f"after {sol.iterations} iterations"
            for k, sol in enumerate(solutions)
            if sol.status != "Optimal"
        ]
        super().__init__("diamond-norm SDP did not converge: " + "; ".join(failures))
        self.solutions = solutions
        self.values = values


def _superop_dim(t: np.ndarray, name: str, stacked: bool = False) -> int:
    """``d`` of a ``d^2 x d^2`` supermatrix, or with ``stacked`` also of a
    ``(B, d^2, d^2)`` stack of them."""
    shape = np.shape(t)
    if len(shape) not in ((2, 3) if stacked else (2,)) or shape[-1] != shape[-2]:
        raise ValueError(f"{name} must be a square supermatrix, got shape {shape}")
    d = int(round(np.sqrt(shape[-1])))
    if d * d != shape[-1]:
        raise ValueError(f"{name} has size {shape[-1]}, not a perfect square")
    return d


def _check_pair(ta: np.ndarray, tb: np.ndarray, stacked: bool = False) -> int:
    da = _superop_dim(ta, "first channel", stacked)
    db = _superop_dim(tb, "second channel", stacked)
    if da != db:
        raise ValueError(f"channel dimensions differ: {da} vs {db}")
    return da


def _per_map(fn, *maps):
    """``fn`` of one map (or one pair), or one value per map of a stack."""
    if np.ndim(maps[0]) == 2:
        return fn(*maps)
    return np.array([fn(*args) for args in zip(*maps)])


def _trace_residual(phi: np.ndarray, d: int, kept: float) -> float:
    """``max |vec(I)^dag phi - kept vec(I)^dag|``, with ``kept`` 1 for a
    channel and 0 for a difference of channels; over every map of a stack."""
    rows = np.asarray(phi)[..., :: d + 1, :].sum(axis=-2)
    return float(np.max(np.abs(rows - kept * vec(np.eye(d)))))


def j_distance(ta: np.ndarray, tb: np.ndarray) -> float:
    """Trace distance between the normalized Choi states of two channels,
    the J-norm of their difference."""
    d = _check_pair(ta, tb)
    for name, t in (("first channel", ta), ("second channel", tb)):
        residual = _trace_residual(t, d, 1.0)
        if not residual <= TRACE_ATOL:
            raise ValueError(
                f"{name} is not trace-preserving: max |Tr S(|i><j|) - delta_ij| = "
                f"{residual:.3e} > TRACE_ATOL = {TRACE_ATOL:.0e}"
            )
    return j_norm(np.asarray(ta) - np.asarray(tb))


def j_norm(phi: np.ndarray) -> float:
    """J-norm of a Hermiticity-preserving supermatrix.

    :func:`j_distance` is this norm of a difference of channels; the norm
    itself checks no trace, so it also applies to the defect maps.
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


# -- unitary pairs in closed form, and the diamond distance ------------


def _check_unitary(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]))))
    if not dev <= 1e-9:
        raise ValueError(f"{name} is not unitary: max |U^dag U - I| = {dev:.3e}")
    return u


def _product_eigenvalues(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``U V^dag`` for two unitaries of equal dimension, or
    for each of a ``(runs, d, d)`` stack of them, by one stacked ``eigvals``."""
    u = _check_unitary(u, "first unitary")
    v = _check_unitary(v, "second unitary")
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"unitary dimensions differ: {u.shape} vs {v.shape}")
    return np.linalg.eigvals(u @ v.conj().swapaxes(-1, -2))


def _per_pair(values: np.ndarray):
    """A float for one pair of unitaries, the array for a stack."""
    return values if values.ndim else float(values)


def j_distance_unitary(u: np.ndarray, v: np.ndarray):
    """J-distance between two unitary channels, in closed form; a
    ``(runs, d, d)`` stack of unitaries gives one distance per run.

    Over the eigenphases ``theta`` of ``U V^dag`` it is
    ``(2/d) sqrt(2 sum_{k,l} sin^2((theta_k - theta_l)/2))``, which equals
    ``2 sqrt(1 - |tr(U^dag V)|^2 / d^2)`` without its cancellation.
    """
    theta = np.angle(_product_eigenvalues(u, v))
    s = np.sin(0.5 * (theta[..., :, None] - theta[..., None, :]))
    squares = (s * s).reshape(s.shape[:-2] + (-1,))
    return _per_pair(2.0 / theta.shape[-1] * np.sqrt(2.0 * np.sum(squares, axis=-1)))


def diamond_distance_unitary(u: np.ndarray, v: np.ndarray):
    """Diamond distance between two unitary channels, in closed form; a
    ``(runs, d, d)`` stack of unitaries gives one distance per run.

    The eigenvalues of ``U V^dag`` lie on the unit circle.  If they fit in an
    arc shorter than pi, the distance is the chord joining the arc's two
    ends; otherwise it is 2.  No SDP is needed.
    """
    evals = _product_eigenvalues(u, v)
    evals = np.take_along_axis(evals, np.argsort(np.angle(evals), axis=-1), axis=-1)
    angles = np.angle(evals)
    # the largest gap between neighbouring angles, the wrap-around one last
    gaps = np.diff(angles, axis=-1, append=angles[..., :1] + 2.0 * math.pi)
    k = np.argmax(gaps, axis=-1)[..., None]
    chord = np.take_along_axis(np.abs(np.roll(evals, -1, axis=-1) - evals), k, -1)[..., 0]
    return _per_pair(np.where(gaps.max(axis=-1) <= math.pi, 2.0, np.minimum(chord, 2.0)))


# The diamond SDP runs on the sector support of the Choi matrix (sdp.py): one
# iteration costs O(m^2 R^2) time and O(m^2 R) memory, with m <= d^2 rows and
# a Woodbury rank R <= d^2.  On one core at tol 1e-7, at d = 8 an ising:3
# Trotter difference (m = R = 32) certifies in 21 iterations, 0.2 s and 40 MB
# peak, and a random unitary difference, whose support is full (m = R = 64),
# in 21 iterations, 0.9 s and 65 MB.  At d = 16 the ising:4 n = 16 Trotter
# difference and jitter defect map (m = R = 128) certify in 41 and 45
# iterations, 13 s and 15 s, 210 MB peak.  A full support there (m = R = 256)
# costs about 3 s an iteration and 1.1 GB peak: a random unitary difference
# took 20 iterations and 55 s.  Without sectors a 4-qubit point would take a
# minute, so diamond stops at three qubits (corner steps-diamond-ising3).
DIAMOND_MAX_DIM = 8


def diamond_norm_hp(phi: np.ndarray, tol: float = 1e-7, max_iter: int = sdp.DEFAULT_MAX_ITER):
    """Diamond norm of a Hermiticity-preserving, trace-annihilating
    supermatrix via Watrous's single-variable dual SDP (arXiv:1207.5726):
    ``min 2 |Tr_out Z|_inf`` over ``Z >= J, Z >= 0`` for the Choi matrix ``J``.
    A ``(B, d^2, d^2)`` stack of maps is solved as one stack by
    :func:`sdp.solve` and gives one value per map.

    Every channel difference and both defect maps annihilate trace; the
    single-variable SDP is exact only on such maps, so a map whose
    ``Tr_out J`` exceeds ``2 * TRACE_ATOL`` (what a difference of two channels
    within :data:`TRACE_ATOL` can carry) is rejected.  Raises
    :class:`DiamondNormError`, carrying every map's solution, if the solver
    cannot certify a gap below ``tol`` on any of the maps.
    """
    d = _superop_dim(phi, "map", stacked=True)
    maps = np.asarray(phi)
    j_u = choi_from_super(maps)
    if float(np.abs(j_u - j_u.conj().swapaxes(-1, -2)).max(initial=0.0)) > 1e-10:
        raise ValueError("map is not Hermiticity-preserving (Choi matrix not Hermitian)")
    residual = _trace_residual(maps, d, 0.0)
    if not residual <= 2.0 * TRACE_ATOL:
        raise ValueError(
            f"map must annihilate trace (Tr_out of its Choi matrix must vanish): max "
            f"|Tr_out J| = {residual:.3e} > 2 TRACE_ATOL = {2.0 * TRACE_ATOL:.0e}"
        )
    sols = sdp.solve(hermitize(j_u.reshape((-1,) + j_u.shape[-2:])), tol=tol, max_iter=max_iter)
    values = np.array([max(sol.primal, 0.0) if sol.status == "Optimal" else np.nan for sol in sols])
    if any(sol.status != "Optimal" for sol in sols):
        raise DiamondNormError(sols, values)
    return float(values[0]) if maps.ndim == 2 else values


def diamond_distance(ta: np.ndarray, tb: np.ndarray, tol: float = 1e-7):
    """Diamond distance between two channels, certified to duality gap ``tol``;
    two ``(B, d^2, d^2)`` stacks of channels give one distance per pair, from
    one stacked solve.

    Channel distances cannot exceed 2, so roundoff above that is clipped,
    also in the ``values`` of a :class:`DiamondNormError`.
    """
    _check_pair(ta, tb, stacked=True)
    cap = 2.0 + tol
    try:
        val = diamond_norm_hp(np.asarray(ta, dtype=complex) - np.asarray(tb, dtype=complex), tol)
    except DiamondNormError as exc:
        exc.values = np.minimum(exc.values, cap)
        raise
    return _per_pair(np.minimum(val, cap))


# -- unstabilized induced trace norm (heuristic) -------------------------


def _stacked_image(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``hermitize(unvec(m @ vec(X)))`` for every ``X`` of an ``(R, d, d)`` stack,
    by one stacked matrix-vector product."""
    r, d, _ = x.shape
    return hermitize(unvec((m @ x.swapaxes(1, 2).reshape(r, d * d, 1))[:, :, 0]))


def induced_trace_norm_heuristic(
    phi: np.ndarray,
    cfg: InducedTraceHeuristic = InducedTraceHeuristic(),
) -> float:
    """Best found value of ``trace_norm(Phi(psi psi^dag))`` over pure ``psi``.

    Alternating ascent: for a fixed input the optimal observable is the sign
    of the output, and for a fixed observable the optimal input is the top
    eigenvector of the pulled-back operator; each step is monotone.  The
    search starts from ``cfg.restarts`` seeded random states (restart ``r``
    uses ``SeedSequence(cfg.seed, spawn_key=(r,))``), which ascend together
    as one stack, one ``eigh`` per half-step for the whole stack; each
    restart leaves the stack at its own convergence test or after 100 steps.
    The result, the best value found within those 100 steps over the
    restarts, is a lower bound on the unstabilized induced trace norm, never
    a certified value, and it can sit below where the ascent would converge:
    on the 3-qubit Ising difference (``avg-jitter:0.01``, t = 0.1) at n = 1
    all 64 restarts are still rising at step 100, and the value,
    0.057351121306, is 6.5e-6 (relative) below the 0.0573514946619 that 3000
    steps reach; at n = 2 the gap is 1.1e-8.
    """
    d = _superop_dim(phi, "map")
    phi = np.asarray(phi, dtype=complex)
    phi_adj = phi.conj().T
    starts = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,))
        )
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append(psi / np.linalg.norm(psi))
    # psi and prev hold the restarts still ascending, active their indices
    psi = np.array(starts)
    prev = np.full(cfg.restarts, -np.inf)
    val = np.zeros(cfg.restarts)
    active = np.arange(cfg.restarts)
    for _ in range(100):
        out = _stacked_image(phi, psi[:, :, None] * psi.conj()[:, None, :])
        evals, evecs = np.linalg.eigh(out)
        step_val = np.abs(evals).sum(axis=1)
        val[active] = step_val
        going = ~(step_val - prev <= 1e-13 * (1.0 + step_val))
        if not going.any():
            break
        active, prev, evals, evecs = active[going], step_val[going], evals[going], evecs[going]
        observable = (evecs * np.sign(evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
        psi = np.linalg.eigh(_stacked_image(phi_adj, observable))[1][:, :, -1]
    return float(val.max())


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
