"""Acceptance suite: one test per shipped guarantee, each with a runtime budget.

Every test prints a single ``acceptance NN <name>: PASS|FAIL`` line (shown
under ``pytest -s``) and then asserts the same verdict, so failures carry
the offending numbers in the assertion message as well.
"""

import time

import numpy as np

from trotopt.channels import (
    AveragedTimingJitter,
    Depolarizing,
    TimingJitter,
    TrotterPlan,
    complete_noise,
    evolution_superop,
    faulty_trotter,
    ideal_map,
    single_step_error_expansion,
    trotter_ideal,
)
from trotopt.experiments import ExperimentConfig, montecarlo_rows, tradeoff_coefficients
from trotopt.hamiltonians import ising_chain
from trotopt.linalg import hermitian_exp, unitary_superop
from trotopt.metrics import (
    Diamond,
    InducedTraceHeuristic,
    JDistance,
    diamond_distance,
    diamond_distance_unitary,
    induced_trace_distance_heuristic,
    j_distance,
)
from trotopt.tradeoff import (
    best_integer_steps,
    bound_curve,
    depolarizing_tradeoff,
    distance_at_optimum,
    jitter_costs,
    jitter_tradeoff,
    optimal_steps,
)

ISING2 = tuple(ising_chain(2))
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _verdict(label: str, ok: bool, elapsed: float, budget: float | None) -> bool:
    ok = bool(ok) and (budget is None or elapsed < budget)
    shown = f"{elapsed:.2f}s" if budget is None else f"{elapsed:.2f}s of {budget:.0f}s"
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({shown})")
    return ok


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _noisy_distance(noise, n: int, metric) -> float:
    plan = TrotterPlan(ISING2, 0.1, n)
    faulty = faulty_trotter(plan, noise)
    ideal = ideal_map(plan)
    if isinstance(metric, JDistance):
        return j_distance(faulty, ideal)
    return diamond_distance(faulty, ideal)


def test_01_complete_noise_benchmarks():
    start = time.perf_counter()
    failures = []
    for d in (2, 4):
        ta = unitary_superop(np.eye(d, dtype=complex))
        tb = complete_noise(d)
        ancilla = 2.0 - 2.0 / d**2
        plain = 2.0 - 2.0 / d
        jd = j_distance(ta, tb)
        dd = diamond_distance(ta, tb)
        heur = induced_trace_distance_heuristic(ta, tb, InducedTraceHeuristic())
        if abs(jd - ancilla) > 1e-10:
            failures.append(f"d={d} j {jd}")
        if abs(dd - ancilla) > 1e-6:
            failures.append(f"d={d} diamond {dd}")
        if abs(heur - plain) > 1e-4:
            failures.append(f"d={d} heuristic {heur}")
    elapsed = time.perf_counter() - start
    assert _verdict("01 complete-noise benchmarks", not failures, elapsed, 10.0), failures


def test_02_sdp_matches_enclosing_circle():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    gaps = []
    for d in (2, 4):
        for _ in range(10):
            u = _random_unitary(d, rng)
            v = _random_unitary(d, rng)
            sdp_val = diamond_distance(unitary_superop(u), unitary_superop(v))
            circle_val = diamond_distance_unitary(u, v)
            gaps.append(abs(sdp_val - circle_val))
    elapsed = time.perf_counter() - start
    worst = max(gaps)
    assert _verdict(
        "02 sdp vs enclosing circle (20 unitary pairs)", worst <= 1e-5, elapsed, 60.0
    ), f"worst gap {worst}"


def test_03_splitting_error_decay_rate():
    start = time.perf_counter()
    grid = np.unique(np.round(np.logspace(1, 2, 13)).astype(int))
    vals = [
        j_distance(trotter_ideal(plan), ideal_map(plan))
        for plan in (TrotterPlan(ISING2, 0.1, int(n)) for n in grid)
    ]
    slope = float(np.polyfit(np.log(grid), np.log(vals), 1)[0])
    elapsed = time.perf_counter() - start
    assert _verdict(
        "03 noiseless error decays as 1/n", -1.05 <= slope <= -0.95, elapsed, 30.0
    ), f"slope {slope}"


def test_04_predicted_optimum_matches_measured():
    start = time.perf_counter()
    failures = []
    for metric in (JDistance(), Diamond()):
        for noise in (
            AveragedTimingJitter(0.005),
            AveragedTimingJitter(0.01),
            Depolarizing(1e-4),
            Depolarizing(1e-3),
        ):
            if isinstance(noise, AveragedTimingJitter):
                tc = jitter_tradeoff(ISING2, 0.1, noise.sigma, metric)
            else:
                tc = depolarizing_tradeoff(ISING2, noise.p, 0.1, metric)
            n_real = optimal_steps(tc.step_cost, tc.noise_cost)
            n_pred = best_integer_steps(tc.step_cost, tc.noise_cost)
            d_pred = distance_at_optimum(tc.step_cost, tc.noise_cost)
            window = range(max(1, int(n_real / 2)), int(np.ceil(2 * n_real)) + 2)
            vals = [_noisy_distance(noise, n, metric) for n in window]
            k = int(np.argmin(vals))
            n_meas, d_meas = list(window)[k], vals[k]
            tag = f"{type(metric).__name__}/{noise}"
            if abs(n_meas - n_pred) > max(1, 0.25 * n_pred):
                failures.append(f"{tag}: steps {n_meas} vs predicted {n_pred}")
            if not d_pred / 2 <= d_meas <= 2 * d_pred:
                failures.append(f"{tag}: distance {d_meas} vs predicted {d_pred}")
    elapsed = time.perf_counter() - start
    assert _verdict(
        "04 optimum location and value (8 noise/metric pairs)",
        not failures,
        elapsed,
        30.0,
    ), failures


def test_05_depolarizing_saturation():
    start = time.perf_counter()
    plan = TrotterPlan(ISING2, 0.1, 10_000)
    faulty = faulty_trotter(plan, Depolarizing(1e-3))
    ideal = ideal_map(plan)
    target = 2.0 - 2.0 / plan.dim**2
    jd = j_distance(faulty, ideal)
    dd = diamond_distance(faulty, ideal)
    elapsed = time.perf_counter() - start
    ok = abs(jd - target) <= 1e-3 and abs(dd - target) <= 1e-3
    assert _verdict(
        "05 heavy depolarizing saturates the noise benchmark", ok, elapsed, 300.0
    ), f"j {jd}, diamond {dd}, target {target}"


def test_06_averaged_map_dominates_sampled_mean():
    start = time.perf_counter()
    config = ExperimentConfig(
        terms=(PAULI_X, PAULI_Y),
        label="custom",
        noise=TimingJitter(0.05),
        t=2.0,
        n_grid=tuple(range(1, 21)),
        metrics=(Diamond(),),
        runs=200,
        master_seed=2,
    )
    rows = montecarlo_rows(config)
    averaged = {r[1]: r[3] for r in rows if r[0] == "averaged"}
    means = {r[1]: r[3] for r in rows if r[0] == "mean"}
    holds = sum(averaged[n] <= means[n] for n in config.n_grid)
    strict = sum(averaged[n] < means[n] for n in config.n_grid)
    elapsed = time.perf_counter() - start
    ok = holds == len(config.n_grid) and strict >= 0.9 * len(config.n_grid)
    assert _verdict(
        "06 averaged map beats mean sampled run (200 runs)", ok, elapsed, 30.0
    ), f"holds {holds}/20, strict {strict}/20"


def test_07_step_expansion_order():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    base_tau = 0.2
    base_deltas = rng.normal(0.0, 0.05, size=len(ISING2))
    total = sum(ISING2[1:], start=ISING2[0].copy())
    scales = [2.0**-s for s in range(5)]
    residuals = []
    for scale in scales:
        tau = base_tau * scale
        deltas = base_deltas * scale
        plan = TrotterPlan(ISING2, tau, 1)
        split = np.eye(plan.dim**2, dtype=complex)
        for j, h in enumerate(ISING2):
            split = unitary_superop(hermitian_exp(h, tau + deltas[j])) @ split
        exact = evolution_superop(total, tau) - split
        residuals.append(np.linalg.norm(exact - single_step_error_expansion(plan, deltas)))
    exponent = float(np.polyfit(np.log(scales), np.log(residuals), 1)[0])
    elapsed = time.perf_counter() - start
    assert _verdict(
        "07 one-step expansion is accurate to third order", exponent >= 2.7, elapsed, 10.0
    ), f"fitted exponent {exponent}"


def test_08_integer_rounding_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ns = np.arange(1, 1001, dtype=float)
    failures = []
    for case in range(1000):
        noise_cost = 10.0 ** rng.uniform(-3, 2)
        step_cost = noise_cost * 10.0 ** rng.uniform(-2, 5.39)
        brute = int(np.argmin(step_cost / ns + noise_cost * ns)) + 1
        got = best_integer_steps(step_cost, noise_cost)
        if got != brute:
            failures.append(f"case {case}: {got} vs brute {brute}")
    # exact ties at step_cost/noise_cost = k*(k+1) must round down
    for noise_cost, k in ((1.0, 1), (0.5, 2), (2.0, 3), (1.0, 10), (0.5, 31)):
        step_cost = noise_cost * k * (k + 1)
        brute = int(np.argmin(step_cost / ns + noise_cost * ns)) + 1
        got = best_integer_steps(step_cost, noise_cost)
        if not got == brute == k:
            failures.append(f"tie k={k}: {got} vs brute {brute}")
    elapsed = time.perf_counter() - start
    assert _verdict(
        "08 integer rounding matches brute force (1000 cases + ties)",
        not failures,
        elapsed,
        1.0,
    ), failures[:5]


def test_09_scaling_laws():
    start = time.perf_counter()
    failures = []

    # doubling t doubles the real optimum at fixed strengths and sigma
    lo = optimal_steps(*jitter_costs(2.3, 1.7, 0.4, 0.05))
    hi = optimal_steps(*jitter_costs(2.3, 1.7, 0.8, 0.05))
    if abs(hi / lo - 2.0) > 1e-12:
        failures.append(f"t-doubling ratio {hi / lo}")

    # the depolarizing bound is blind to the time-energy rescaling freedom
    a = 3.0
    base = depolarizing_tradeoff(ISING2, 1e-3, 0.1)
    scaled = depolarizing_tradeoff([a * h for h in ISING2], 1e-3, 0.1 / a)
    grid = np.arange(1, 21)
    drift = np.max(np.abs(bound_curve(grid, base) - bound_curve(grid, scaled)))
    if drift > 1e-12:
        failures.append(f"rescaling drift {drift}")

    # a slower clock (a < 1) shrinks the jitter noise constant by exactly a^2
    full = jitter_costs(2.3, 1.7, 0.4, 0.05)[1]
    slowed = jitter_costs(2.3, 1.7, 0.4, 0.5 * 0.05)[1]
    if slowed != 0.25 * full:
        failures.append(f"direct sigma scaling {slowed} vs {0.25 * full}")
    config = ExperimentConfig(
        terms=ISING2, label="ising:2", noise=AveragedTimingJitter(0.05),
        t=0.4, n_grid=(1, 2), metrics=(JDistance(),),
    )
    costs_full = tradeoff_coefficients(config, JDistance())
    costs_slow = tradeoff_coefficients(
        ExperimentConfig(
            terms=ISING2, label="ising:2", noise=AveragedTimingJitter(0.05),
            t=0.4, a=0.5, n_grid=(1, 2), metrics=(JDistance(),),
        ),
        JDistance(),
    )
    if costs_slow[1] != 0.25 * costs_full[1]:
        failures.append(f"config sigma scaling {costs_slow[1]} vs {0.25 * costs_full[1]}")

    elapsed = time.perf_counter() - start
    assert _verdict("09 scaling laws", not failures, elapsed, 60.0), failures


def test_10_deterministic_csv_output(tmp_path):
    from trotopt import cli

    start = time.perf_counter()
    sweep_cfg = tmp_path / "sweep.txt"
    sweep_cfg.write_text(
        "hamiltonian = ising:2\nt = 0.1\nnoise = avg-jitter:0.01\n"
        "n_grid = 1,2,4,8\nmetrics = j,diamond\nseed = 7\n",
        encoding="utf-8",
    )
    mc_cfg = tmp_path / "mc.txt"
    mc_cfg.write_text(
        "hamiltonian = 1 | x | y\nt = 2.0\nnoise = jitter:0.05\n"
        "n_grid = 1,2,3\nmetrics = diamond\nruns = 5\nseed = 11\n",
        encoding="utf-8",
    )
    optimum_cfg = tmp_path / "optimum.txt"
    optimum_cfg.write_text(
        "hamiltonian = ising:2\nt = 0.1\nnoise = avg-jitter:0.01\n"
        "n_grid = range:4:9\nmetrics = j,heuristic\nseed = 5\n",
        encoding="utf-8",
    )
    commands = (
        ("sweep", "sweep", sweep_cfg),
        ("mc", "montecarlo", mc_cfg),
        ("optimum", "optimum", optimum_cfg),
    )
    outputs = {}
    for name, sub, cfg in commands:
        for run, jobs in (("first", None), ("again", None), ("parallel", "2")):
            out = tmp_path / f"{name}_{run}.csv"
            argv = [sub, "--config", str(cfg), "--out", str(out)]
            if jobs is not None:
                argv += ["--jobs", jobs]
            assert cli.main(argv) == 0
            outputs[(name, run)] = out.read_bytes()
    same = all(
        outputs[(name, "first")] == outputs[(name, run)]
        for name, _, _ in commands
        for run in ("again", "parallel")
    )
    elapsed = time.perf_counter() - start
    assert _verdict(
        "10 byte-identical output, serial and parallel", same, elapsed, None
    )
