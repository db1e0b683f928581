"""Tradeoff-layer tests: closed-form examples, integer rounding against a
brute-force scan, and the tie between predicted and numerically measured
optimal step counts on a small spin chain."""

import math

import numpy as np
import pytest

from trotopt.channels import (
    AveragedTimingJitter,
    Decoherence,
    Depolarizing,
    TrotterPlan,
    commutator_defect_map,
    faulty_trotter,
    ideal_map,
)
from trotopt.experiments import ConfigError, ExperimentConfig
from trotopt.hamiltonians import ising_chain
from trotopt.metrics import Diamond, InducedTraceHeuristic, JDistance, j_distance
from trotopt.tradeoff import (
    TradeoffConstants,
    best_integer_steps,
    bound_curve,
    defect_strengths,
    distance_at_optimum,
    max_simulation_time,
    noise_tradeoff,
    optimal_steps,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def jitter_costs(commutator_strength, jitter_strength, t, sigma):
    """(step_cost, noise_cost) of timing jitter of width ``sigma`` at ``a = 1``."""
    strengths = (commutator_strength, jitter_strength)
    c = noise_tradeoff(AveragedTimingJitter(sigma), strengths, t, 1.0, 2)
    return c.step_cost, c.noise_cost


def depolarizing_costs(commutator_strength, p, t, dim):
    """(step_cost, noise_cost) of per-step depolarizing noise at ``a = 1``."""
    c = noise_tradeoff(Depolarizing(p), (commutator_strength, 0.0), t, 1.0, dim)
    return c.step_cost, c.noise_cost


class TestDefectStrengths:
    def test_commuting_terms_have_no_splitting_cost(self):
        terms = [np.kron(SZ, np.eye(2)), np.kron(np.eye(2), SZ)]
        strength, _ = defect_strengths(terms, JDistance())
        assert strength <= 1e-12

    def test_reversing_terms_leaves_strength_alone(self):
        terms = list(ising_chain(2))
        fwd, _ = defect_strengths(terms, JDistance())
        rev, _ = defect_strengths(terms[::-1], JDistance())
        assert abs(fwd - rev) <= 1e-9

    def test_single_qubit_pair_matches_hand_built_map(self):
        # [sz, sx] = 2i*sy; insert it into the left/right sandwich by hand
        c = 2.0j * SY
        eye = np.eye(2, dtype=complex)
        hand = np.kron(c.conj(), eye) + np.kron(eye, c)
        got = defect_strengths([SZ, SX], Diamond())[0]
        from trotopt.metrics import diamond_norm_hp

        assert abs(got - diamond_norm_hp(hand)) <= 1e-9

    def test_single_term_jitter_strength_analytic(self):
        # for the lone term sz the insertion defect is I4 - kron(sz, sz),
        # whose normalized Choi has trace norm 4, hence strength 2
        _, strength = defect_strengths([SZ], JDistance())
        assert strength == pytest.approx(2.0, abs=1e-12)
        _, searched = defect_strengths([SZ], InducedTraceHeuristic())
        assert searched == pytest.approx(2.0, abs=1e-9)

    def test_rejects_empty_terms(self):
        with pytest.raises(ValueError, match="at least one"):
            defect_strengths([], JDistance())

    def test_pairwise_sum_dominates(self):
        terms = [SZ, SX, SY]
        total = defect_strengths(terms, JDistance())[0]
        parts = [
            defect_strengths([terms[j], terms[l]], JDistance())[0]
            for j in range(3)
            for l in range(j + 1, 3)
        ]
        assert total <= sum(parts) + 1e-9

    def test_heuristic_strengths_are_not_clipped(self):
        # the defect maps are not channel differences, so their norms may
        # exceed 2; the see-saw reaches the diamond norms 8 and 10 from below
        terms = ising_chain(2)
        searched = defect_strengths(terms, InducedTraceHeuristic())
        assert searched == pytest.approx((8.0, 10.0), abs=1e-6)
        diamond = defect_strengths(terms, Diamond())
        assert all(h <= d for h, d in zip(searched, diamond))


class TestOptimalSteps:
    def test_quadratic_case(self):
        assert optimal_steps(4.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("steps", [2, 3, 5])
    def test_first_order_optimality(self, steps):
        # costs placed so that the real optimum sits at ``steps``
        c = TradeoffConstants(step_cost=0.21 * steps**2, noise_cost=0.21)
        n = optimal_steps(c.step_cost, c.noise_cost)
        assert n == pytest.approx(steps, abs=1e-12)
        here = bound_curve(n, c)
        assert bound_curve(n * 1.01, c) >= here
        assert bound_curve(n * 0.99, c) >= here

    def test_rejects_degenerate_costs(self):
        with pytest.raises(ValueError, match="step_cost"):
            optimal_steps(0.0, 1.0)
        with pytest.raises(ValueError, match="noise_cost"):
            optimal_steps(1.0, 0.0)


class TestDistanceAtOptimum:
    def test_quadratic_case(self):
        assert distance_at_optimum(4.0, 1.0) == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("steps", [2, 3, 4])
    def test_equals_curve_at_real_optimum(self, steps):
        c = TradeoffConstants(step_cost=0.11 * steps**2, noise_cost=0.11)
        want = bound_curve(optimal_steps(c.step_cost, c.noise_cost), c)
        assert want == pytest.approx(2.0 * 0.11 * steps, abs=1e-12)
        assert distance_at_optimum(c.step_cost, c.noise_cost) == pytest.approx(want, abs=1e-12)

    def test_square_root_scaling_in_step_cost(self):
        base = distance_at_optimum(1.0, 0.3)
        assert distance_at_optimum(2.0, 0.3) == pytest.approx(
            math.sqrt(2.0) * base, abs=1e-12
        )


class TestIntegerRounding:
    def test_rounds_up_just_past_tie(self):
        assert best_integer_steps(6.1, 1.0) == 3

    def test_tie_prefers_floor(self):
        assert best_integer_steps(6.0, 1.0) == 2

    def test_tiny_optimum_clamps_to_one(self):
        assert best_integer_steps(0.01, 1.0) == 1

    def test_no_noise_means_no_finite_optimum(self):
        assert best_integer_steps(1.0, 0.0) is None

    def test_rejects_nonpositive_step_cost(self):
        with pytest.raises(ValueError, match="step_cost"):
            best_integer_steps(0.0, 1.0)

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(1234)
        grid = np.arange(1, 1001)
        for _ in range(1000):
            noise_cost = 10.0 ** rng.uniform(-3.0, 2.0)
            ratio = 10.0 ** rng.uniform(-2.0, 5.39)  # keeps sqrt(ratio) <= 500
            step_cost = noise_cost * ratio
            got = best_integer_steps(step_cost, noise_cost)
            want = int(grid[np.argmin(step_cost / grid + noise_cost * grid)])
            assert got == want

    def test_dominates_wide_integer_window(self):
        for step_cost, noise_cost in ((7.3, 0.2), (120.0, 0.9), (2.0, 2.0)):
            best = best_integer_steps(step_cost, noise_cost)
            top = int(10 * optimal_steps(step_cost, noise_cost)) + 1
            vals = [step_cost / m + noise_cost * m for m in range(1, top + 1)]
            assert step_cost / best + noise_cost * best <= min(vals) + 1e-12


class TestJitterCosts:
    def test_zero_width_means_free_steps(self):
        assert jitter_costs(2.0, 1.0, 1.0, 0.0) == (1.0, 0.0)

    def test_worked_example(self):
        step_cost, noise_cost = jitter_costs(2.0, 1.0, 1.0, 0.1)
        assert (step_cost, noise_cost) == pytest.approx((1.0, 0.01), abs=1e-15)
        assert optimal_steps(step_cost, noise_cost) == pytest.approx(10.0, abs=1e-12)

    def test_quadratic_in_time(self):
        base = jitter_costs(1.3, 0.7, 1.0, 0.1)[0]
        assert jitter_costs(1.3, 0.7, 2.0, 0.1)[0] == pytest.approx(4.0 * base, abs=1e-12)

    def test_steps_scale_linearly_with_time(self):
        n1 = optimal_steps(*jitter_costs(1.3, 0.7, 1.0, 0.05))
        n2 = optimal_steps(*jitter_costs(1.3, 0.7, 2.0, 0.05))
        assert n2 / n1 == pytest.approx(2.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="sigma"):
            jitter_costs(1.0, 1.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="jitter_strength must be >= 0"):
            jitter_costs(1.0, -1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="t must be >= 0"):
            jitter_costs(1.0, 1.0, -1.0, 0.1)


class TestMaxSimulationTime:
    def test_worked_example(self):
        got = max_simulation_time(0.1, 1.0, 1.0, 0.01)
        assert got == pytest.approx(0.1 / (0.01 * math.sqrt(2.0)), abs=1e-12)

    def test_doubling_width_halves_time(self):
        base = max_simulation_time(0.1, 1.0, 1.0, 0.01)
        assert max_simulation_time(0.1, 1.0, 1.0, 0.02) == pytest.approx(
            base / 2.0, abs=1e-12
        )

    def test_budget_is_recovered_at_the_optimum(self):
        budget, cs, js, sigma = 0.37, 1.7, 0.4, 0.003
        t = max_simulation_time(budget, cs, js, sigma)
        step_cost, noise_cost = jitter_costs(cs, js, t, sigma)
        assert distance_at_optimum(step_cost, noise_cost) == pytest.approx(
            budget, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="sigma"):
            max_simulation_time(0.1, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="distance_budget"):
            max_simulation_time(float("nan"), 1.0, 1.0, 0.1)


# a dimension whose 2/d^2 is below double precision: the large-d limit
LARGE_D = 2**30


class TestDepolarizing:
    def test_large_d_worked_example(self):
        got = optimal_steps(*depolarizing_costs(1.0, 0.01, 1.0, LARGE_D))
        assert got == pytest.approx(math.sqrt(0.99 / 0.04), abs=1e-9)
        assert got == pytest.approx(4.9749, abs=1e-4)

    def test_qubit_versus_large_d_ratio(self):
        small = optimal_steps(*depolarizing_costs(1.0, 0.01, 1.0, 2))
        large = optimal_steps(*depolarizing_costs(1.0, 0.01, 1.0, LARGE_D))
        assert small / large == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)

    def test_large_d_distance_formula_and_symmetry(self):
        for p in (0.02, 0.3):
            got = distance_at_optimum(*depolarizing_costs(1.3, p, 0.7, LARGE_D))
            want = 2.0 * 0.7 * math.sqrt(1.3 * p * (1.0 - p))
            assert got == pytest.approx(want, abs=1e-12)
            flipped = distance_at_optimum(*depolarizing_costs(1.3, 1.0 - p, 0.7, LARGE_D))
            assert got == pytest.approx(flipped, abs=1e-12)

    def test_distance_formula_and_symmetry(self):
        # 2 sqrt(A t^2 (1 - p) / 2 * p w) with w = 2 - 2/d^2 = 1.5 for a qubit
        for p in (0.02, 0.3):
            got = distance_at_optimum(*depolarizing_costs(1.3, p, 0.7, 2))
            want = 0.7 * math.sqrt(2.0 * 1.3 * 1.5 * p * (1.0 - p))
            assert got == pytest.approx(want, abs=1e-12)
            flipped = distance_at_optimum(*depolarizing_costs(1.3, 1.0 - p, 0.7, 2))
            assert got == pytest.approx(flipped, abs=1e-12)

    def test_survival_discount_on_step_cost(self):
        step_cost, noise_cost = depolarizing_costs(2.0, 0.25, 1.0, 2)
        assert step_cost == pytest.approx(0.75 * 2.0 / 2.0, abs=1e-15)
        assert noise_cost == pytest.approx(0.25 * 1.5, abs=1e-15)

    def test_noiseless_sentinel(self):
        # no noise: the bound falls forever, no finite optimum, distance -> 0
        c = TradeoffConstants(*depolarizing_costs(1.0, 0.0, 1.0, 2))
        assert c.noise_cost == 0.0
        assert best_integer_steps(c.step_cost, c.noise_cost) is None
        assert bound_curve(10**9, c) <= 1e-8

    def test_complete_noise_sentinel(self):
        # complete noise: no splitting error survives and every step costs
        # the full depolarizing distance, so one step is best
        c = TradeoffConstants(*depolarizing_costs(1.0, 1.0, 1.0, 2))
        assert c.step_cost == 0.0
        assert bound_curve(1, c) == pytest.approx(1.5, abs=1e-15)
        assert np.all(np.diff(bound_curve(np.arange(1, 10), c)) > 0.0)

    def test_rejects_rate_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            depolarizing_costs(1.0, 1.2, 1.0, 2)
        with pytest.raises(ValueError, match="commutator_strength must be >= 0"):
            depolarizing_costs(-1.0, 0.1, 1.0, 2)
        with pytest.raises(ValueError, match="dim must be >= 2"):
            depolarizing_costs(1.0, 0.1, 1.0, 1)


class TestBoundCurve:
    def test_vanishes_without_noise(self):
        c = TradeoffConstants(step_cost=5.0, noise_cost=0.0)
        assert bound_curve(10**9, c) <= 1e-8

    def test_strictly_convex_second_difference(self):
        c = TradeoffConstants(step_cost=3.0, noise_cost=0.2)
        n = np.arange(1, 50)
        vals = bound_curve(n, c)
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second > 0.0)

    def test_grid_scan_matches_rounding(self):
        rng = np.random.default_rng(9)
        grid = np.arange(1, 10_001)
        for _ in range(25):
            noise_cost = 10.0 ** rng.uniform(-3.0, 0.0)
            step_cost = noise_cost * 10.0 ** rng.uniform(0.0, 5.0)
            c = TradeoffConstants(step_cost=step_cost, noise_cost=noise_cost)
            want = int(grid[np.argmin(bound_curve(grid, c))])
            assert best_integer_steps(step_cost, noise_cost) == want

    def test_rejects_steps_below_one(self):
        c = TradeoffConstants(step_cost=1.0, noise_cost=1.0)
        with pytest.raises(ValueError, match="step count"):
            bound_curve(0, c)

    def test_constants_validated(self):
        with pytest.raises(ValueError, match="noise_cost"):
            TradeoffConstants(step_cost=1.0, noise_cost=-0.1)
        with pytest.raises(ValueError, match="floor"):
            TradeoffConstants(step_cost=1.0, noise_cost=1.0, floor=-0.1)


class TestNoiseTradeoff:
    def test_jitter_couples_through_a_sigma(self):
        fast = noise_tradeoff(AveragedTimingJitter(0.05), (2.3, 1.7), 0.4, 0.5, 4)
        assert (fast.step_cost, fast.noise_cost) == jitter_costs(2.3, 1.7, 0.4, 0.025)
        assert fast.floor == 0.0

    def test_depolarizing_matches_costs(self):
        c = noise_tradeoff(Depolarizing(0.02), (1.3, 0.4), 0.7, 3.0, 4)
        assert (c.step_cost, c.noise_cost, c.floor) == (*depolarizing_costs(1.3, 0.02, 0.7, 4), 0.0)

    def test_rejects_unknown_noise(self):
        # a model the bound cannot dispatch never reaches it: the config refuses it
        with pytest.raises(ConfigError, match="unknown noise model 'thermal'"):
            ExperimentConfig(terms=tuple(ising_chain(2)), label="ising:2", noise="thermal")


class TestDecoherenceBound:
    def test_no_decay_leaves_pure_splitting_error(self):
        c = noise_tradeoff(Decoherence(0.0), (2.0, 0.0), 0.5, 1.0, 4)
        assert bound_curve(4, c) == pytest.approx(2.0 * 0.25 / 8.0, abs=1e-15)

    def test_monotone_decreasing_in_steps(self):
        c = noise_tradeoff(Decoherence(0.3), (1.0, 0.0), 1.0, 1.0, 4)
        vals = bound_curve(np.arange(1, 101), c)
        assert np.all(np.diff(vals) < 0.0)
        assert best_integer_steps(c.step_cost, c.noise_cost) is None

    def test_floor_is_end_of_run_depolarizing(self):
        c = noise_tradeoff(Decoherence(0.3), (1.0, 0.0), 1.0, 1.0, 4)
        p = 1.0 - math.exp(-0.3)
        assert c.floor == pytest.approx(p * 1.875, abs=1e-15)
        assert c.step_cost == pytest.approx((1.0 - p) / 2.0, abs=1e-15)

    def test_speedup_helps(self):
        slow = noise_tradeoff(Decoherence(0.3), (1.0, 0.0), 1.0, 1.0, 4)
        fast = noise_tradeoff(Decoherence(0.3), (1.0, 0.0), 1.0, 2.0, 4)
        assert bound_curve(5, fast) < bound_curve(5, slow)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="a must be"):
            noise_tradeoff(Decoherence(0.3), (1.0, 0.0), 1.0, 0.0, 4)
        with pytest.raises(ValueError, match="gamma"):
            noise_tradeoff(Decoherence(-0.1), (1.0, 0.0), 1.0, 1.0, 4)


class TestScalingInvariants:
    def test_steps_per_time_is_constant(self):
        cs, js, sigma = 1.9, 0.6, 0.004
        n1 = optimal_steps(*jitter_costs(cs, js, 1.0, sigma))
        n2 = optimal_steps(*jitter_costs(cs, js, 2.0, sigma))
        assert n2 / n1 == pytest.approx(2.0, abs=1e-12)

    def test_builders_fill_reporting_fields(self):
        terms = ising_chain(2)
        strengths = defect_strengths(terms, JDistance())
        commutator_strength, jitter_strength = strengths
        tc = noise_tradeoff(AveragedTimingJitter(0.01), strengths, 0.1, 1.0, 4)
        assert tc.step_cost == pytest.approx(commutator_strength * 0.01 / 2.0, abs=1e-15)
        assert tc.noise_cost == pytest.approx(jitter_strength * 1e-4, abs=1e-18)
        td = noise_tradeoff(Depolarizing(0.05), strengths, 0.1, 1.0, 4)
        assert td.noise_cost == pytest.approx(0.05 * 1.875, abs=1e-15)
        assert td.step_cost == pytest.approx(0.95 * tc.step_cost, abs=1e-15)


class TestPredictionAgainstNumerics:
    def test_predicted_optimum_matches_measured_curve(self):
        # two-site chain at t = 0.1; pick sigma so the predicted real
        # optimum sits at 5 steps, then measure the true distance curve
        terms = ising_chain(2)
        t = 0.1
        strengths = defect_strengths(terms, JDistance())
        sigma = t * math.sqrt(strengths[0] / (2.0 * strengths[1])) / 5.0
        step_cost, noise_cost = jitter_costs(strengths[0], strengths[1], t, sigma)
        predicted = best_integer_steps(step_cost, noise_cost)
        predicted_dist = distance_at_optimum(step_cost, noise_cost)

        ns = range(1, 4 * predicted + 10)
        measured = []
        for n in ns:
            plan = TrotterPlan(terms, t=t, n=n)
            dist = j_distance(
                faulty_trotter(plan, AveragedTimingJitter(sigma)), ideal_map(plan)
            )
            measured.append(dist)
        measured_best = int(np.argmin(measured)) + 1
        measured_dist = min(measured)

        slack = max(1, round(0.25 * predicted))
        assert abs(measured_best - predicted) <= slack
        assert measured_dist <= 2.0 * predicted_dist
        assert measured_dist >= predicted_dist / 2.0

    def test_commutator_map_drives_short_time_error(self):
        # one splitting step at small tau differs from the ideal map by
        # (tau^2/2) * defect + higher order; halving tau divides the
        # J-norm residual by about 4
        terms = ising_chain(2)
        defect = commutator_defect_map(terms)
        from trotopt.metrics import j_norm

        def gap(tau):
            plan = TrotterPlan(terms, t=tau, n=1)
            from trotopt.channels import trotter_ideal

            return j_norm(ideal_map(plan) - trotter_ideal(plan)), j_norm(
                0.5 * tau * tau * defect
            )

        wide, wide_pred = gap(0.02)
        narrow, narrow_pred = gap(0.01)
        assert wide == pytest.approx(wide_pred, rel=0.05)
        assert narrow == pytest.approx(narrow_pred, rel=0.05)
        assert wide / narrow == pytest.approx(4.0, rel=0.1)
