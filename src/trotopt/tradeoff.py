"""Step-number tradeoffs for faulty product-formula simulation.

With per-step noise the distance to the ideal evolution splits into a
splitting error that shrinks with the step number and an accumulated noise
cost that grows with it:

    bound(n) = step_cost / n + noise_cost * n + floor

The coefficients come from channel norms of the second-order defect maps:
``commutator_strength`` measures how badly the terms fail to commute and
``jitter_strength`` how much one timing insertion hurts.  For timing jitter
over total time ``t`` with width ``sigma``,

    step_cost = commutator_strength * t**2 / 2,   noise_cost = jitter_strength * sigma**2

and for per-step depolarizing at rate ``p`` the noise cost is the full
depolarizing distance ``p * (2 - 2/dim**2)`` instead.  End-of-run
decoherence pays that distance once, as the ``floor``, whatever the step
count.  Everything in this module is closed-form arithmetic on those
coefficients plus the channel-norm evaluations; nothing here simulates
circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AveragedTimingJitter,
    Decoherence,
    Depolarizing,
    NoiseModel,
    TimingJitter,
    commutator_defect_map,
    jitter_defect_map,
)
from .metrics import JDistance, Metric


@dataclass(frozen=True)
class TradeoffConstants:
    """Coefficients of one tradeoff curve: ``step_cost`` multiplies ``1/n``,
    ``noise_cost`` multiplies ``n`` and ``floor`` does not depend on ``n``."""

    step_cost: float
    noise_cost: float
    floor: float = 0.0

    def __post_init__(self):
        for name in ("step_cost", "noise_cost", "floor"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def defect_strengths(
    terms, metric: Metric = JDistance(), sdp_tol: float = 1e-7
) -> tuple[float, float]:
    """Channel norms of the two per-step defect maps.

    Returns ``(commutator_strength, jitter_strength)``: the chosen-metric
    norms of the splitting defect and of the single-insertion timing defect.
    The first vanishes when all terms commute.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("at least one Hamiltonian term is required")
    return (
        metric.norm(commutator_defect_map(terms), sdp_tol),
        metric.norm(jitter_defect_map(terms), sdp_tol),
    )


def optimal_steps(step_cost: float, noise_cost: float) -> float:
    """Real-valued minimizer ``sqrt(step_cost / noise_cost)`` of the tradeoff curve."""
    if step_cost <= 0.0:
        raise ValueError(f"step_cost must be > 0, got {step_cost}")
    if noise_cost <= 0.0:
        raise ValueError(f"noise_cost must be > 0, got {noise_cost}")
    return (step_cost / noise_cost) ** 0.5


def distance_at_optimum(step_cost: float, noise_cost: float) -> float:
    """Bound value ``2 * sqrt(step_cost * noise_cost)`` at the real-valued optimum."""
    return 2.0 * noise_cost * optimal_steps(step_cost, noise_cost)


def best_integer_steps(step_cost: float, noise_cost: float) -> int | None:
    """Positive integer minimizing ``step_cost / n + noise_cost * n``.

    Evaluates the bound at the floor and ceiling of the real optimum and
    keeps the better one; an exact tie goes to the floor (fewer gates).
    Returns ``None`` when ``noise_cost`` is zero: the bound then decreases
    forever and there is no finite optimum.
    """
    if step_cost <= 0.0:
        raise ValueError(f"step_cost must be > 0, got {step_cost}")
    if noise_cost < 0.0:
        raise ValueError(f"noise_cost must be >= 0, got {noise_cost}")
    if noise_cost == 0.0:
        return None
    n_real = math.sqrt(step_cost / noise_cost)
    lo = max(1, math.floor(n_real))
    hi = math.ceil(n_real)
    if hi <= lo:
        return lo
    if step_cost / lo + noise_cost * lo <= step_cost / hi + noise_cost * hi:
        return lo
    return hi


def jitter_costs(
    commutator_strength: float, jitter_strength: float, t: float, sigma: float
) -> tuple[float, float]:
    """Tradeoff coefficients for timing jitter of width ``sigma`` over time ``t``."""
    for name, val in (
        ("commutator_strength", commutator_strength),
        ("jitter_strength", jitter_strength),
        ("t", t),
        ("sigma", sigma),
    ):
        if val < 0.0:
            raise ValueError(f"{name} must be >= 0, got {val}")
    return commutator_strength * t * t / 2.0, jitter_strength * sigma * sigma


def max_simulation_time(
    distance_budget: float,
    commutator_strength: float,
    jitter_strength: float,
    sigma: float,
) -> float:
    """Longest time simulable under jitter before the optimal-step bound
    exceeds ``distance_budget``.

    Inverts ``distance_at_optimum`` in ``t``:
    ``t_max = budget / (sigma * sqrt(2 * commutator_strength * jitter_strength))``.
    """
    for name, val in (
        ("distance_budget", distance_budget),
        ("commutator_strength", commutator_strength),
        ("jitter_strength", jitter_strength),
        ("sigma", sigma),
    ):
        if not val > 0.0:
            raise ValueError(f"{name} must be > 0, got {val}")
    return distance_budget / (sigma * math.sqrt(2.0 * commutator_strength * jitter_strength))


def depolarizing_costs(
    commutator_strength: float, p: float, t: float, dim: int
) -> tuple[float, float]:
    """Tradeoff coefficients for per-step depolarizing noise.

    The surviving fraction ``1 - p`` discounts the splitting error; each
    step pays the full depolarizing distance ``p * (2 - 2/dim**2)``.
    """
    if commutator_strength < 0.0:
        raise ValueError(f"commutator_strength must be >= 0, got {commutator_strength}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate must be in [0, 1], got {p}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return (1.0 - p) * commutator_strength * t * t / 2.0, p * (2.0 - 2.0 / (dim * dim))


def bound_curve(n, constants: TradeoffConstants):
    """Evaluate the tradeoff bound at integer step count(s) ``n``.

    ``n`` may be a scalar or an array; every entry must be >= 1.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 1):
        raise ValueError("step count must be >= 1")
    vals = constants.step_cost / n + constants.noise_cost * n + constants.floor
    return float(vals) if vals.ndim == 0 else vals


def noise_tradeoff(
    noise: NoiseModel, strengths: tuple[float, float], t: float, a: float, dim: int
) -> TradeoffConstants:
    """Bound constants for one noise model from the two defect strengths.

    Timing jitter couples through the effective width ``a * sigma``.
    Decoherence pays the depolarizing distance of its end-of-run factor
    ``p = 1 - exp(-gamma * t / a)`` once: the bound then decreases in ``n``
    forever, so there is no finite optimum, and running faster (larger
    ``a``) always helps.
    """
    if a <= 0.0:
        raise ValueError(f"a must be > 0, got {a}")
    commutator_strength, jitter_strength = strengths
    if isinstance(noise, (TimingJitter, AveragedTimingJitter)):
        costs = jitter_costs(commutator_strength, jitter_strength, t, a * noise.sigma)
        return TradeoffConstants(*costs)
    if isinstance(noise, Depolarizing):
        return TradeoffConstants(*depolarizing_costs(commutator_strength, noise.p, t, dim))
    if isinstance(noise, Decoherence):
        p = 1.0 - math.exp(-noise.gamma * t / a)
        step_cost, floor = depolarizing_costs(commutator_strength, p, t, dim)
        return TradeoffConstants(step_cost, 0.0, floor)
    raise TypeError(f"unknown noise model {noise!r}")


def jitter_tradeoff(
    terms,
    t: float,
    sigma: float,
    metric: Metric = JDistance(),
    sdp_tol: float = 1e-7,
) -> TradeoffConstants:
    """Full tradeoff coefficients for timing jitter on the given terms."""
    terms = list(terms)
    strengths = defect_strengths(terms, metric, sdp_tol)
    return noise_tradeoff(AveragedTimingJitter(sigma), strengths, t, 1.0, len(terms[0]))


def depolarizing_tradeoff(
    terms,
    p: float,
    t: float,
    metric: Metric = JDistance(),
    sdp_tol: float = 1e-7,
) -> TradeoffConstants:
    """Full tradeoff coefficients for per-step depolarizing noise."""
    terms = list(terms)
    strengths = defect_strengths(terms, metric, sdp_tol)
    return noise_tradeoff(Depolarizing(p), strengths, t, 1.0, len(terms[0]))
