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
count.  These per-model formulas live with the models, as the ``costs``
method of each noise class in :mod:`trotopt.channels`;
:func:`noise_tradeoff` checks their inputs and collects the result.
Everything in this module is closed-form arithmetic on those coefficients
plus the channel-norm evaluations; nothing here simulates circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel, TermSet, commutator_defect_map, jitter_defect_map
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
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")


def defect_strengths(
    terms, metric: Metric = JDistance(), sdp_tol: float = 1e-7
) -> tuple[float, float]:
    """Channel norms of the two per-step defect maps.

    Returns ``(commutator_strength, jitter_strength)``: the chosen-metric
    norms of the splitting defect and of the single-insertion timing defect.
    The first vanishes when all terms commute.  Both maps go to the metric
    as one stack, so the diamond metric solves them as one stacked SDP.
    """
    terms = TermSet(terms)
    maps = np.stack([commutator_defect_map(terms), jitter_defect_map(terms)])
    commutator_strength, jitter_strength = metric.norm(maps, sdp_tol)
    return float(commutator_strength), float(jitter_strength)


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
    """Bound constants for one noise model from the two defect strengths
    ``(commutator_strength, jitter_strength)``; the model's ``costs`` holds
    its formula.

    Timing jitter couples through the effective width ``a * sigma``.
    Decoherence pays the depolarizing distance of its end-of-run factor
    ``p = 1 - exp(-gamma * t / a)`` once: the bound then decreases in ``n``
    forever, so there is no finite optimum, and running faster (larger
    ``a``) always helps.
    """
    for name, val in zip(("commutator_strength", "jitter_strength", "t"), (*strengths, t)):
        if not (math.isfinite(val) and val >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {val}")
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"a must be finite and > 0, got {a}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return TradeoffConstants(*noise.costs(strengths, t, a, dim))
