"""Ideal, Trotterized, and faulty evolution channels as supermatrices.

A :class:`TrotterPlan` fixes the splitting ``H = sum_j H_j``, the total time
``t``, the step count ``n`` and a time-energy scale ``a`` (simulating with
generators ``a H_j`` for wall-clock time ``t/a``; the realized ideal unitary
does not depend on ``a``).  Four noise models deform the ideal product
formula:

* :class:`TimingJitter` -- every per-term gate runs for ``t/n + a*delta``
  with ``delta ~ N(0, sigma^2)`` drawn fresh for each of the ``k*n`` gates.
  One sample of the whole circuit is still unitary.
* :class:`AveragedTimingJitter` -- the Gaussian average of the above, which
  dephases in each term's eigenbasis with weights
  ``exp(-(E_m - E_n)^2 (a*sigma)^2 / 2)``.
* :class:`Depolarizing` -- one depolarizing factor of strength ``p`` per
  Trotter step (``n`` insertions).
* :class:`Decoherence` -- a single depolarizing factor of strength
  ``1 - exp(-gamma * t / a)`` after the full product, modelling background
  decay that cares about wall-clock time only.

All supermatrices use the column-stacking convention of
:mod:`trotopt.linalg`.  Sampled-jitter randomness flows through one
caller-supplied ``numpy.random.Generator`` per circuit run (default PCG64);
each run draws its own ``rng.normal(0, sigma, size=(n, k))`` table in
row-major order, so run ``r`` depends on its generator alone, runs with a
fixed seed are bit-reproducible, and the runs of one call stack in order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    hermitian_exp,
    require_hermitian,
    unitary_superop,
    vec,
)


@dataclass(frozen=True)
class TrotterPlan:
    """Splitting of a Hamiltonian evolution into a first-order product formula.

    :param terms: the summands ``H_j`` (Hermitian, equal dimension,
        dimensionless energy units), applied in list order within each step.
    :param t: total dimensionless evolution time, ``>= 0``.
    :param n: number of Trotter steps, ``>= 1``.
    :param a: time-energy scale factor, ``> 0``.
    """

    terms: tuple[np.ndarray, ...]
    t: float
    n: int
    a: float = 1.0

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("TrotterPlan needs at least one term")
        frozen = []
        dim = None
        for idx, h in enumerate(self.terms):
            h = require_hermitian(h, f"terms[{idx}]").astype(complex)
            if dim is None:
                dim = h.shape[0]
            elif h.shape[0] != dim:
                raise ValueError(
                    f"terms[{idx}] has dimension {h.shape[0]}, expected {dim}"
                )
            h = h.copy()
            h.setflags(write=False)
            frozen.append(h)
        object.__setattr__(self, "terms", tuple(frozen))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "a", float(self.a))
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.a <= 0:
            raise ValueError(f"a must be > 0, got {self.a}")

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]

    @property
    def tau(self) -> float:
        """Duration of one Trotter step in simuland time, ``t / n``."""
        return self.t / self.n


@dataclass(frozen=True)
class TimingJitter:
    """Sampled mistimed control: iid Gaussian duration errors on every gate."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class AveragedTimingJitter:
    """Gaussian-averaged mistimed control (the mean channel over jitter draws)."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Depolarizing:
    """Depolarizing noise of strength ``p`` once per Trotter step."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class Decoherence:
    """Background decay at rate ``gamma``, applied once over the wall-clock time."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


NoiseModel = TimingJitter | AveragedTimingJitter | Depolarizing | Decoherence


def evolution_superop(h: np.ndarray, tau: float) -> np.ndarray:
    """Supermatrix of the unitary channel generated by ``exp(i * tau * H)``."""
    return unitary_superop(hermitian_exp(h, tau))


def complete_noise(d: int) -> np.ndarray:
    """Supermatrix of the channel sending every state to the maximally mixed one.

    The matrix is ``(1/d) |vec I><vec I|``: nonzero entries ``1/d`` connecting
    the diagonal vec positions, with ``d`` zeros between them in each
    occupied row.
    """
    if d < 2:
        raise ValueError(f"complete_noise needs dimension >= 2, got {d}")
    v = vec(np.eye(d, dtype=complex))
    return np.outer(v, v) / d


def depolarizing_superop(p: float, d: int) -> np.ndarray:
    """Supermatrix of ``rho -> (1 - p) rho + (p/d) I``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (1.0 - p) * np.eye(d * d, dtype=complex) + p * complete_noise(d)


def averaged_jitter_superop(h: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-averaged timing-error channel for a single generator ``H``.

    Averaging ``exp(i H delta) rho exp(-i H delta)`` over
    ``delta ~ N(0, sigma^2)`` dephases in the eigenbasis of ``H``: the matrix
    element between eigenvectors of energies ``E_m`` and ``E_n`` picks up the
    factor ``exp(-(E_m - E_n)^2 sigma^2 / 2)``.
    """
    h = require_hermitian(h, "averaged_jitter_superop argument")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    evals, w = np.linalg.eigh(h)
    gaps = evals[:, None] - evals[None, :]
    lam = np.exp(-0.5 * (sigma * gaps) ** 2)
    basis = unitary_superop(w)
    return (basis * vec(lam)) @ basis.conj().T


def ideal_map(plan: TrotterPlan) -> np.ndarray:
    """Supermatrix of the exact evolution ``exp(i H t)`` with ``H = sum_j H_j``.

    Independent of both ``plan.n`` and ``plan.a`` by construction.
    """
    total = sum(plan.terms[1:], start=plan.terms[0].copy())
    return evolution_superop(total, plan.t)


def trotter_step_unitary(plan: TrotterPlan) -> np.ndarray:
    """The ``d x d`` unitary of one ideal Trotter step, terms applied in list order."""
    u = np.eye(plan.dim, dtype=complex)
    for h in plan.terms:
        u = hermitian_exp(h, plan.tau) @ u
    return u


def trotter_ideal(plan: TrotterPlan) -> np.ndarray:
    """Supermatrix of the noiseless ``n``-step first-order product formula."""
    step = trotter_step_unitary(plan)
    return unitary_superop(np.linalg.matrix_power(step, plan.n))


def jitter_deltas(plan: TrotterPlan, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the ``(n, k)`` table of per-gate duration errors for one circuit run.

    This single call is the package-wide contract for the draw order: steps
    vary along axis 0, terms along axis 1, filled in row-major order.
    """
    return rng.normal(0.0, sigma, size=(plan.n, len(plan.terms)))


def sampled_trotter_unitary(
    plan: TrotterPlan, sigma: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Sampled runs of the jittered circuit, stacked as ``(runs, d, d)`` unitaries.

    Run ``r`` draws its ``(n, k)`` table from ``rngs[r]`` alone.  Each gate runs for
    ``t/n + a*delta`` on the unscaled generator (``exp(i a H_j (t/(a n) + delta))``
    in simuland units), as ``V diag(exp(i theta lambda)) V^dag`` with one ``eigh`` per term.
    """
    deltas = np.stack([jitter_deltas(plan, sigma, rng) for rng in rngs])
    eigs = [np.linalg.eigh(h) for h in plan.terms]
    u = np.eye(plan.dim, dtype=complex)  # the first gate broadcasts it over the runs
    for i in range(plan.n):
        for j, (evals, evecs) in enumerate(eigs):
            phases = np.exp(1j * (plan.tau + plan.a * deltas[:, i, j])[:, None] * evals)
            u = ((evecs * phases[:, None, :]) @ evecs.conj().T) @ u
    return u


def faulty_trotter(
    plan: TrotterPlan,
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Supermatrix of the noisy ``n``-step product formula under ``noise``.

    Sampled timing jitter inserts one random gate-duration error per term per
    step (``k*n`` insertions) and needs ``rng``; its averaged counterpart
    inserts the corresponding dephasing factors deterministically.
    Depolarizing noise acts once per step, decoherence once at the end.
    """
    d = plan.dim
    if isinstance(noise, TimingJitter):
        if rng is None:
            raise ValueError("sampled timing jitter needs an rng; pass a seeded Generator")
        return unitary_superop(sampled_trotter_unitary(plan, noise.sigma, (rng,))[0])
    if isinstance(noise, AveragedTimingJitter):
        step = np.eye(d * d, dtype=complex)
        for h in plan.terms:
            err = averaged_jitter_superop(h, plan.a * noise.sigma)
            step = err @ evolution_superop(h, plan.tau) @ step
        return np.linalg.matrix_power(step, plan.n)
    if isinstance(noise, Depolarizing):
        step = depolarizing_superop(noise.p, d) @ unitary_superop(trotter_step_unitary(plan))
        return np.linalg.matrix_power(step, plan.n)
    if isinstance(noise, Decoherence):
        p = 1.0 - math.exp(-noise.gamma * plan.t / plan.a)
        return depolarizing_superop(p, d) @ trotter_ideal(plan)
    raise TypeError(f"unknown noise model {noise!r}")


def _left_right_sandwich(m: np.ndarray) -> np.ndarray:
    """``kron(conj(M), I) + kron(I, M)``, the superop derivative of conjugation."""
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    return np.kron(m.conj(), eye) + np.kron(eye, m)


def commutator_defect_map(terms: tuple[np.ndarray, ...] | list[np.ndarray]) -> np.ndarray:
    """Hermiticity-preserving map driving the splitting error of one step.

    Built from ``c = sum_{j<l} [H_j, H_l]``; one ideal-vs-split step differs
    from the exact step by ``(tau^2 / 2)`` times this map, to second order.
    """
    terms = [require_hermitian(h, "term") for h in terms]
    d = terms[0].shape[0]
    c = np.zeros((d, d), dtype=complex)
    for j in range(len(terms)):
        for l in range(j + 1, len(terms)):
            c += terms[j] @ terms[l] - terms[l] @ terms[j]
    return _left_right_sandwich(c)


def jitter_defect_map(terms: tuple[np.ndarray, ...] | list[np.ndarray]) -> np.ndarray:
    """Hermiticity-preserving map driving the averaged timing-jitter error.

    Equals ``sum_j (kron(conj(H_j^2), I) + kron(I, H_j^2)) / 2
    - kron(conj(H_j), H_j)``; one averaged faulty step deviates from the
    split step by ``sigma^2`` times this map, to second order.
    """
    terms = [require_hermitian(h, "term") for h in terms]
    d = terms[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for h in terms:
        out += 0.5 * _left_right_sandwich(h @ h) - np.kron(h.conj(), h)
    return out


def single_step_error_expansion(plan: TrotterPlan, deltas: np.ndarray) -> np.ndarray:
    """Second-order expansion of (exact one-step map) - (jittered split step).

    ``deltas`` holds the realized per-term duration offsets of the step
    (already including any ``a`` scaling).  Valid when
    ``norm(H_j) * (t/n + |delta_j|)`` is small; no hard check is made.  The
    exact object being approximated is
    ``evolution_superop(sum H_j, t/n) - prod_j [jittered term gates]``.

    Grouped by what produces each piece:

    * splitting defect: ``-(tau^2 / 2) * commutator_defect_map`` terms;
    * a linear-in-delta unitary drift;
    * cross and quadratic gate-duration terms with weights
      ``w_jl = tau*(delta_j + delta_l) + delta_j*delta_l`` off the diagonal
      and ``w_jj = 2*tau*delta_j + delta_j^2`` on it.
    """
    terms = plan.terms
    k = len(terms)
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if deltas.size != k:
        raise ValueError(f"expected {k} offsets, got {deltas.size}")
    tau = plan.tau
    d = plan.dim
    eye = np.eye(d, dtype=complex)
    out = -0.5 * tau**2 * commutator_defect_map(terms)
    theta = tau + deltas
    for j, h in enumerate(terms):
        out += 1j * deltas[j] * (np.kron(h.conj(), eye) - np.kron(eye, h))
        w_jj = 2.0 * tau * deltas[j] + deltas[j] ** 2
        out += 0.5 * w_jj * _left_right_sandwich(h @ h)
    for j in range(k):
        for l in range(k):
            w = theta[j] * theta[l] - tau**2
            out -= w * np.kron(terms[j].conj(), terms[l])
            if j > l:
                out += w * _left_right_sandwich(terms[j] @ terms[l])
    return out
