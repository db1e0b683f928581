"""Ideal, Trotterized, and faulty evolution channels as supermatrices.

A :class:`TrotterPlan` fixes the splitting ``H = sum_j H_j``, the total time
``t``, the step count ``n`` and a time-energy scale ``a`` (simulating with
generators ``a H_j`` for wall-clock time ``t/a``; the realized ideal unitary
does not depend on ``a``).  Four noise models deform the ideal product
formula:

* :class:`TimingJitter` -- every per-term gate runs for ``t/n + a*delta``
  with ``delta ~ N(0, sigma^2)`` drawn fresh for each of the ``k*n`` gates.
  One sample of the whole circuit is still unitary; runs are sampled by
  :func:`sampled_trotter_unitary`, and the model has no single channel.
* :class:`AveragedTimingJitter` -- the Gaussian average of the above, which
  dephases in each term's eigenbasis with weights
  ``exp(-(E_m - E_n)^2 (a*sigma)^2 / 2)``.
* :class:`Depolarizing` -- one depolarizing factor of strength ``p`` per
  Trotter step (``n`` insertions), gathered in closed form.
* :class:`Decoherence` -- a single depolarizing factor of strength
  ``1 - exp(-gamma * t / a)`` after the full product, modelling background
  decay that cares about wall-clock time only.

Each model carries everything the package asks of it: its config spelling
``name`` (the keys of :data:`NOISES`) and, except for sampled jitter, its
``channel(plan)`` and its ``costs(strengths, t, a, dim)``, the
``(step_cost, noise_cost, floor)`` coefficients of the step-number bound in
:mod:`trotopt.tradeoff`.

All supermatrices use the column-stacking convention of
:mod:`trotopt.linalg`.  The averaged-jitter factors do not commute, so its
step is raised to the ``n``-th power, as an increment over the identity so
that the power does not drift with ``n``.  The terms' sectors (the blocks of
their union exact nonzero pattern, :func:`trotopt.linalg.blocks`) split the
channel into ordered sector pairs with exact zeros between them.  A
diagonal pair is carried as its real matrix in the Hermitian operator basis
of :func:`trotopt.linalg.hermitian_basis_rows`, powered in real arithmetic
and converted back at sector size; an off-diagonal pair ``(s, t)`` is
powered as a complex matrix, and ``(t, s)`` is written as its exact
Hermitian mirror.  The ``n``-independent parts (per pair, term and block of
the terms' union pattern there, the pair's eigenbasis superoperator and the
energy gaps) belong to the plan's :class:`TermSet`, built once for every
plan sharing it; the ideal product and a sampled run's gates are increments
too.  Sampled-jitter randomness flows through one caller-supplied
``numpy.random.Generator`` per circuit run (default PCG64); each run draws
its own ``rng.normal(0, sigma, size=(n, k))`` table in row-major order, so
run ``r`` depends on its generator alone, runs with a fixed seed are
bit-reproducible, and the runs of one call stack in order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import get_args

import numpy as np

from .linalg import (
    block_eigh,
    blocks,
    block_stacks,
    from_hermitian_basis,
    hermitian_basis_rows,
    hermitian_exp,
    require_hermitian,
    unitary_superop,
    vec,
)


class TermSet(tuple):
    """The summands ``H_j`` of a splitting, checked Hermitian and of equal
    dimension and frozen as read-only complex copies (``TermSet`` of a term
    set is that object).  Its analysis, each term's ``block_eigh`` and the
    :attr:`sector_pairs`, is built on first use and kept for every holder."""

    def __new__(cls, terms):
        if isinstance(terms, TermSet):
            return terms
        frozen = []
        for idx, h in enumerate(terms):
            h = require_hermitian(h, f"terms[{idx}]").astype(complex)
            if frozen and h.shape != frozen[0].shape:
                raise ValueError(f"terms[{idx}] has dimension {len(h)}, expected {len(frozen[0])}")
            h.setflags(write=False)
            frozen.append(h)
        if not frozen:
            raise ValueError("need at least one Hamiltonian term")
        return super().__new__(cls, frozen)

    @cached_property
    def eighs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(block_eigh(h) for h in self)

    @cached_property
    def sector_pairs(self) -> list[tuple]:
        """The ``n``-independent parts of the averaged-jitter channel: one
        entry per diagonal sector pair ``(s, s)``, then one for all pairs
        ``(s, t)``, ``s < t``.

        The sectors are the :func:`trotopt.linalg.blocks` of the terms' union
        exact nonzero pattern.  The terms and their eigenbases ``W_j`` are
        block-diagonal over them, so ``kron(conj(W_j), W_j)`` is
        block-diagonal over the sector pairs and the channel is zero between
        pairs.  An entry is ``(rows, mirror, stacks)``: its ascending vec
        positions ``a + d*b``, their transposes ``b + d*a`` (the mirror
        pairs; ``None`` on a diagonal pair), and per stack ``i`` of
        :func:`trotopt.linalg.block_stacks` of the terms' union pattern
        there, ``i`` and per term its basis and energy gaps ``E_a - E_b`` on
        the stack.  The basis is ``kron(conj(W_j), W_j)``, in the Hermitian
        basis (split in real and imaginary parts) on a diagonal pair, whose
        vec positions that basis keeps.
        """
        d = self[0].shape[0]
        sector = np.empty(d, dtype=int)
        for k, s in enumerate(blocks(np.logical_or.reduce([h != 0 for h in self]))):
            sector[s] = k
        supers = [unitary_superop(w) for _, w in self.eighs]
        gaps = [vec(e[:, None] - e[None, :]) for e, _ in self.eighs]
        ends = np.arange(d * d)
        left, right = sector[ends % d], sector[ends // d]
        entries = [(np.flatnonzero((left == k) & (right == k)), None) for k in range(sector.max() + 1)]
        upper = np.flatnonzero(left < right)
        if upper.size:
            entries.append((upper, upper // d + d * (upper % d)))
        pairs = []
        for rows, mirror in entries:
            square = (rows[:, None], rows)
            bases = [m[square] for m in supers]
            if mirror is None:
                bases = [hermitian_basis_rows(b) for b in bases]
            stacks = []
            for i in block_stacks(np.logical_or.reduce([b != 0 for b in bases])):
                on_stack = [(b[i[:, :, None], i[:, None, :]], g[rows][i]) for b, g in zip(bases, gaps)]
                if mirror is None:
                    on_stack = [((b.real.copy(), b.imag.copy()), g) for b, g in on_stack]
                stacks.append((i, on_stack))
            pairs.append((rows, mirror, stacks))
        return pairs


@dataclass(frozen=True)
class TrotterPlan:
    """Splitting of a Hamiltonian evolution into a first-order product formula.

    :param terms: the summands ``H_j`` (Hermitian, equal dimension,
        dimensionless energy units), applied in list order within each step;
        any sequence of matrices, held as a :class:`TermSet`.
    :param t: total dimensionless evolution time, ``>= 0``.
    :param n: number of Trotter steps, ``>= 1``.
    :param a: time-energy scale factor, ``> 0``.
    """

    terms: TermSet
    t: float
    n: int
    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", TermSet(self.terms))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "a", float(self.a))
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be finite and > 0, got {self.a}")

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]

    @property
    def tau(self) -> float:
        """Duration of one Trotter step in simuland time, ``t / n``."""
        return self.t / self.n


@dataclass(frozen=True)
class _GateJitter:
    """Gaussian gate-duration error of width ``sigma``."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class TimingJitter(_GateJitter):
    """Sampled mistimed control: iid Gaussian duration errors on every gate.

    Only ``montecarlo`` uses it, through :func:`sampled_trotter_unitary`.  It
    has no channel and no bound costs: one sampled run drifts coherently, so
    the averaged channel's bound does not bound it.
    """

    name = "jitter"


@dataclass(frozen=True)
class AveragedTimingJitter(_GateJitter):
    """Gaussian-averaged mistimed control (the mean channel over jitter draws).

    Averaging ``exp(i H delta) rho exp(-i H delta)`` over
    ``delta ~ N(0, (a sigma)^2)`` dephases in the eigenbasis of ``H``: the
    matrix element between eigenvectors of energies ``E_m`` and ``E_n`` picks
    up the factor ``exp(-(E_m - E_n)^2 (a sigma)^2 / 2)``.
    """

    name = "avg-jitter"

    def channel(self, plan: TrotterPlan) -> np.ndarray:
        """Each term's dephase-and-evolve factor is diagonal in its eigenbasis
        ``W``: ``X -> W [(W^dag X W) * V] W^dag`` with
        ``V = exp(-(a sigma g)^2 / 2 + i tau g)`` over the energy gaps ``g``.

        Built per entry of :attr:`TermSet.sector_pairs` and stack of its blocks, as
        increments over the identity: a factor's is ``A diag(vec(V - 1))
        A^dag`` (``expm1``), real ``Re(...)`` with two real products on a
        diagonal pair, and the step's power is :func:`_power_increment`.  A
        diagonal pair is converted back from its Hermitian basis at sector
        size; the pairs between sectors are written with their Hermitian
        mirror, conjugated at the swapped vec positions, so
        ``S(X^dag) = S(X)^dag`` holds exactly.  Every supermatrix entry
        outside the pairs stays exactly zero."""
        sigma = plan.a * self.sigma
        out = np.zeros((plan.dim**2, plan.dim**2), dtype=complex)
        for rows, mirror, stacks in plan.terms.sector_pairs:
            powered = np.zeros((rows.size, rows.size), dtype=float if mirror is None else complex)
            for i, factors in stacks:
                block = None
                for a, gaps in factors:
                    v = np.expm1(-0.5 * (sigma * gaps) ** 2 + 1j * plan.tau * gaps)[:, None, :]
                    if mirror is None:
                        a_re, a_im = a
                        av_re = a_re * v.real - a_im * v.imag
                        av_im = a_re * v.imag + a_im * v.real
                        factor = av_re @ a_re.swapaxes(1, 2) + av_im @ a_im.swapaxes(1, 2)
                    else:
                        factor = (a * v) @ a.conj().swapaxes(1, 2)
                    block = factor if block is None else factor + block + factor @ block
                powered[i[:, :, None], i[:, None, :]] = _power_increment(block, plan.n)
            powered[np.diag_indices(rows.size)] += 1.0
            if mirror is None:
                out[rows[:, None], rows] = from_hermitian_basis(powered)
            else:
                out[rows[:, None], rows] = powered
                out[mirror[:, None], mirror] = powered.conj()
        return out

    def costs(self, strengths, t: float, a: float, dim: int) -> tuple[float, float, float]:
        """The bound sees the jitter through the effective width ``a * sigma``."""
        commutator_strength, jitter_strength = strengths
        sigma = a * self.sigma
        return commutator_strength * t * t / 2.0, jitter_strength * sigma * sigma, 0.0


@dataclass(frozen=True)
class Depolarizing:
    """Depolarizing noise of strength ``p`` once per Trotter step."""

    p: float
    name = "depol"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    def channel(self, plan: TrotterPlan) -> np.ndarray:
        """The ``n`` factors gather after the ideal product with strength
        ``1 - (1 - p)^n``; ``-expm1(n log1p(-p))`` keeps small ``p`` exact,
        and ``p = 1`` leaves complete noise."""
        rate = 1.0 if self.p == 1.0 else -math.expm1(plan.n * math.log1p(-self.p))
        return _depolarized(plan, rate)

    def costs(self, strengths, t: float, a: float, dim: int) -> tuple[float, float, float]:
        """The surviving fraction ``1 - p`` discounts the splitting error; each
        step pays the full depolarizing distance ``p * (2 - 2/dim**2)``."""
        step_cost = (1.0 - self.p) * strengths[0] * t * t / 2.0
        return step_cost, self.p * (2.0 - 2.0 / (dim * dim)), 0.0


@dataclass(frozen=True)
class Decoherence:
    """Background decay at rate ``gamma``, applied once over the wall-clock time."""

    gamma: float
    name = "decoherence"

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    def _rate(self, t: float, a: float) -> float:
        """Strength ``1 - exp(-gamma * t / a)`` of the end-of-run depolarizing factor."""
        return 1.0 - math.exp(-self.gamma * t / a)

    def channel(self, plan: TrotterPlan) -> np.ndarray:
        return _depolarized(plan, self._rate(plan.t, plan.a))

    def costs(self, strengths, t: float, a: float, dim: int) -> tuple[float, float, float]:
        """The end-of-run factor's depolarizing distance is paid once, as the floor."""
        step_cost, floor, _ = Depolarizing(self._rate(t, a)).costs(strengths, t, a, dim)
        return step_cost, 0.0, floor


NoiseModel = TimingJitter | AveragedTimingJitter | Depolarizing | Decoherence

NOISES = {noise.name: noise for noise in get_args(NoiseModel)}


def _depolarized(plan: TrotterPlan, rate: float) -> np.ndarray:
    """The ideal ``n``-step product followed by one depolarizing factor of
    strength ``rate``: ``(1 - rate) T + rate N`` for complete noise ``N``.

    Exact for depolarizing factors anywhere in the circuit, because
    ``N U = U N = N`` for every unitary channel ``U``: the factors commute to
    the end, and ``n`` of strength ``p`` compose to strength ``1 - (1 - p)^n``.
    """
    return (1.0 - rate) * trotter_ideal(plan) + rate * complete_noise(plan.dim)


def _power_increment(x: np.ndarray, n: int) -> np.ndarray:
    """``(I + x)^n - I`` for a stack of matrices, by binary powering on the
    increments: ``(I + r)(I + x) - I = r + x + r x``.  Rounding stays
    relative to the increments, so the error does not grow like ``n``
    roundings of ``I`` as in a plain power of ``I + x``."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result + x + result @ x
        n >>= 1
        if not n:
            return result
        x = 2.0 * x + x @ x


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


def ideal_map(plan: TrotterPlan) -> np.ndarray:
    """Supermatrix of the exact evolution ``exp(i H t)`` with ``H = sum_j H_j``.

    Independent of both ``plan.n`` and ``plan.a`` by construction.
    """
    total = sum(plan.terms[1:], start=plan.terms[0].copy())
    return evolution_superop(total, plan.t)


def trotter_ideal(plan: TrotterPlan) -> np.ndarray:
    """Supermatrix of the noiseless ``n``-step first-order product formula,
    terms in list order: the factor increments ``W diag(expm1(i tau E))
    W^dag`` compose to the step's, powered by :func:`_power_increment`."""
    step = None
    for e, w in plan.terms.eighs:
        factor = (w * np.expm1(1j * plan.tau * e)) @ w.conj().T
        step = factor if step is None else factor + step + factor @ step
    return unitary_superop(np.eye(plan.dim) + _power_increment(step, plan.n))


def jitter_deltas(
    plan: TrotterPlan, sigma: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw the ``(n, k)`` table of per-gate duration errors for one circuit run,
    into ``out`` if given; the values are those of ``rng.normal(0, sigma, (n, k))``.

    This single call is the package-wide contract for the draw order: steps
    vary along axis 0, terms along axis 1, filled in row-major order.
    """
    deltas = rng.standard_normal((plan.n, len(plan.terms)), out=out)
    deltas *= sigma
    return deltas


def sampled_trotter_unitary(
    plan: TrotterPlan, sigma: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Sampled runs of the jittered circuit, stacked as ``(runs, d, d)`` unitaries.

    Run ``r`` draws its ``(n, k)`` table from ``rngs[r]`` alone, in place into row
    ``r`` of one ``(runs, n, k)`` array, so the draws are held once, and turned into
    gate angles in place.  Each gate runs for ``t/n + a*delta`` on the unscaled generator
    (``exp(i a H_j (t/(a n) + delta))`` in simuland units).  As in :func:`trotter_ideal`,
    gates are increments ``W diag(expm1(i theta E)) W^dag`` on the term set's
    eigensystems, composed as ``x <- g + x + g x``, so unitarity does not drift with ``n k``.
    """
    deltas = np.empty((len(rngs), plan.n, len(plan.terms)))
    for run, rng in zip(deltas, rngs):
        jitter_deltas(plan, sigma, rng, out=run)
    deltas *= plan.a
    deltas += plan.tau
    x = None
    for i in range(plan.n):
        for j, (evals, evecs) in enumerate(plan.terms.eighs):
            g = (evecs * np.expm1(1j * deltas[:, i, j, None] * evals)[:, None, :]) @ evecs.conj().T
            x = g if x is None else g + x + g @ x
    return np.eye(plan.dim) + x


def faulty_trotter(
    plan: TrotterPlan,
    noise: AveragedTimingJitter | Depolarizing | Decoherence,
) -> np.ndarray:
    """Supermatrix of the noisy ``n``-step product formula under ``noise``.

    Averaged timing jitter inserts one dephasing factor per term per step
    (``k*n`` insertions), depolarizing noise acts once per step, decoherence
    once at the end.  Sampled jitter has no single channel; its runs come
    from :func:`sampled_trotter_unitary`.
    """
    return noise.channel(plan)


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
    terms = TermSet(terms)
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
    terms = TermSet(terms)
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
