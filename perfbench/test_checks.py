"""Tests of the benchmark itself: every check accepts the program's real
output and rejects a perturbed copy, so that none passes vacuously.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from traced import LAYERS, PER_LAYER, Tracer, layer_metrics, wrapper_seconds  # noqa: E402
from trotopt import cli  # noqa: E402
from trotopt.hamiltonians import ising_chain  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SEED = 11
TERMS = tuple(ising_chain(2))

SWEEP = Workload("t-sweep", "sweep", 2, "avg-jitter", ("j", "diamond"), (1, 8), "1,8")
HEURISTIC = Workload("t-heuristic", "sweep", 2, "avg-jitter", ("j", "heuristic"), (1, 4), "1,4")
MONTECARLO = Workload("t-mc", "montecarlo", 2, "jitter", ("j", "diamond"), (2, 8), "2,8", runs=5)
OPTIMUM = Workload(
    "t-optimum", "optimum", 2, "avg-jitter", ("j",), tuple(ref.log_grid(1, 1000, 24)), "log:1:1000:24"
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("outputs")
    texts = {}
    for w in (SWEEP, HEURISTIC, MONTECARLO, OPTIMUM):
        config, out = tmp / f"{w.name}.cfg", tmp / f"{w.name}.out"
        config.write_text(w.config_text())
        assert cli.main([w.command, "--config", str(config), "--seed", str(SEED), "--out", str(out)]) == 0
        texts[w.name] = out.read_text()
    return texts


def verdicts_of(w: Workload, text: str, seed: int = SEED) -> list[checks.Verdict]:
    return checks.check_output(w, TERMS, text, seed)


def failing(w: Workload, text: str, seed: int = SEED) -> set[tuple[str, str]]:
    return {(v.op, v.check) for v in checks.unexpected(verdicts_of(w, text, seed))}


def edit_row(text: str, prefix: str, column: int, new) -> str:
    """Replace one cell of the single CSV row starting with ``prefix``."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    assert len(hits) == 1, hits
    cells = lines[hits[0]].rstrip("\n").split(",")
    cells[column] = new(cells[column]) if callable(new) else str(new)
    lines[hits[0]] = ",".join(cells) + "\n"
    return "".join(lines)


def edit_report(text: str, key: str, new: str) -> str:
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip().startswith(key + " ")]
    assert len(hits) == 1, hits
    lines[hits[0]] = lines[hits[0]].split("=")[0] + f"= {new}\n"
    return "".join(lines)


def shift(delta: float):
    return lambda cell: repr(float(cell) + delta)


# -- real outputs pass --------------------------------------------------------


@pytest.mark.parametrize("w", [SWEEP, MONTECARLO, OPTIMUM], ids=lambda w: w.name)
def test_real_output_passes(outputs, w):
    verdicts = verdicts_of(w, outputs[w.name])
    assert len(verdicts) > 10
    assert not [v for v in verdicts if not v.ok]


def test_heuristic_rows_fail_only_the_known_bound_check(outputs):
    verdicts = verdicts_of(HEURISTIC, outputs[HEURISTIC.name])
    bad = [v for v in verdicts if not v.ok]
    assert {v.op for v in bad} == {"n=1 heuristic", "n=4 heuristic"}
    assert all(v.known_fault and v.check == "bound" for v in bad)
    assert checks.failed_ops(verdicts, HEURISTIC.evals) == 2


# -- sweep perturbations ------------------------------------------------------


def test_sweep_j_off_by_1e6_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "8,j,", 2, shift(1e-6))
    assert ("n=8 j", "reference J") in failing(SWEEP, text)


def test_sweep_j_bound_off_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "1,j,", 3, shift(1e-6))
    assert ("n=1 j", "reference bound") in failing(SWEEP, text)


def test_sweep_status_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "8,diamond,", 5, "IterationCap")
    assert ("n=8 diamond", "status") in failing(SWEEP, text)


def test_sweep_benchmark_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "1,diamond,", 4, "1.5")
    assert ("n=1 diamond", "benchmark") in failing(SWEEP, text)


def test_sweep_bound_below_exact_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "8,diamond,", 3, "1e-5")
    assert ("n=8 diamond", "bound") in failing(SWEEP, text)


def test_sweep_diamond_outside_j_interval_rejected(outputs):
    below = edit_row(outputs[SWEEP.name], "8,diamond,", 2, "1e-4")
    assert ("n=8 diamond", "J <= diamond") in failing(SWEEP, below)
    above = edit_row(outputs[SWEEP.name], "1,diamond,", 2, "1.9")
    assert ("n=1 diamond", "diamond <= min(2, d J)") in failing(SWEEP, above)


def test_heuristic_above_d_j_rejected(outputs):
    text = edit_row(outputs[HEURISTIC.name], "4,heuristic,", 2, "1.5")
    assert ("n=4 heuristic", "heuristic <= min(2, d J)") in failing(HEURISTIC, text)


def test_sweep_diamond_below_seesaw_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "8,diamond,", 2, shift(-1e-6))
    assert ("n=8 diamond", "see-saw lower bound <= diamond") in failing(SWEEP, text)


def test_sweep_diamond_above_upper_bound_rejected(outputs):
    text = edit_row(outputs[SWEEP.name], "8,diamond,", 2, lambda cell: repr(float(cell) * 1.1))
    assert ("n=8 diamond", "diamond <= reference upper bound") in failing(SWEEP, text)


def test_heuristic_too_small_rejected(outputs):
    halved = edit_row(outputs[HEURISTIC.name], "1,heuristic,", 2, lambda cell: repr(float(cell) * 0.5))
    assert ("n=1 heuristic", "basis-input lower bound <= heuristic") in failing(HEURISTIC, halved)
    tiny = edit_row(outputs[HEURISTIC.name], "1,heuristic,", 2, "1e-5")
    assert ("n=1 heuristic", "J / d <= heuristic") in failing(HEURISTIC, tiny)


def test_heuristic_above_upper_bound_rejected(outputs):
    text = edit_row(outputs[HEURISTIC.name], "4,heuristic,", 2, lambda cell: repr(float(cell) * 1.2))
    assert ("n=4 heuristic", "heuristic <= reference upper bound") in failing(HEURISTIC, text)


def test_reference_bounds_enclose_the_diamond_norm():
    """The see-saw never falls below J and the Jordan bound never below the
    see-saw; on a unitary difference the see-saw reaches the closed form."""
    delta = ref.averaged_jitter_delta(TERMS, 0.1, 8, 0.01)
    j = ref.trace_norm_hermitian(delta)
    assert j <= ref.diamond_lower_bound(delta) <= ref.diamond_upper_bound(delta)
    assert ref.basis_input_lower_bound(delta) <= ref.diamond_lower_bound(delta)
    v = ref.gate(TERMS[0] + TERMS[1], 0.3)
    u = ref.gate(TERMS[1], 0.3) @ ref.gate(TERMS[0], 0.3)
    choi = ref._apply_left(u, ref.max_entangled(4)) - ref._apply_left(v, ref.max_entangled(4))
    assert ref.diamond_lower_bound(choi) == pytest.approx(float(ref.unitary_diamond(u, v)), abs=1e-9)


def test_sweep_missing_or_reordered_rows_rejected(outputs):
    lines = outputs[SWEEP.name].splitlines(keepends=True)
    missing = "".join(lines[:-1])
    assert ("n=8 j", "present") in failing(SWEEP, missing)
    swapped = "".join(lines[:2] + [lines[3], lines[2]] + lines[4:])
    verdicts = verdicts_of(SWEEP, swapped)
    assert ("output", "rows in order") in {(v.op, v.check) for v in checks.unexpected(verdicts)}
    assert checks.failed_ops(verdicts, SWEEP.evals) == SWEEP.evals


def test_sweep_header_rejected(outputs):
    text = outputs[SWEEP.name].replace("exact_distance", "distance", 1)
    assert ("output", "header") in failing(SWEEP, text)


# -- montecarlo perturbations -------------------------------------------------


def test_montecarlo_swapped_averaged_and_mean_rejected(outputs):
    text = outputs[MONTECARLO.name]
    averaged = next(line for line in text.splitlines() if line.startswith("averaged,8,diamond,"))
    mean = next(line for line in text.splitlines() if line.startswith("mean,8,diamond,"))
    a_value, m_value = averaged.split(",")[3], mean.split(",")[3]
    text = edit_row(text, "averaged,8,diamond,", 3, m_value)
    text = edit_row(text, "mean,8,diamond,", 3, a_value)
    bad = failing(MONTECARLO, text)
    assert ("n=8 diamond run averaged", "averaged <= mean") in bad
    assert ("n=8 diamond run mean", "mean of runs") in bad


@pytest.mark.parametrize("metric", ["j", "diamond"])
def test_montecarlo_run_off_by_1e6_rejected(outputs, metric):
    text = edit_row(outputs[MONTECARLO.name], f"3,8,{metric},", 3, shift(1e-6))
    assert (f"n=8 {metric} run 3", f"closed-form {metric}") in failing(MONTECARLO, text)


def test_montecarlo_averaged_j_off_rejected(outputs):
    text = edit_row(outputs[MONTECARLO.name], "averaged,2,j,", 3, shift(-1e-6))
    assert ("n=2 j run averaged", "reference J") in failing(MONTECARLO, text)


def test_montecarlo_averaged_diamond_below_j_rejected(outputs):
    text = edit_row(outputs[MONTECARLO.name], "averaged,2,diamond,", 3, "1e-6")
    assert ("n=2 diamond run averaged", "J <= diamond") in failing(MONTECARLO, text)


def test_montecarlo_averaged_diamond_below_seesaw_rejected(outputs):
    text = edit_row(outputs[MONTECARLO.name], "averaged,8,diamond,", 3, shift(-1e-6))
    assert ("n=8 diamond run averaged", "see-saw lower bound <= diamond") in failing(MONTECARLO, text)


def test_montecarlo_other_seed_rejected(outputs):
    bad = failing(MONTECARLO, outputs[MONTECARLO.name], seed=SEED + 1)
    assert len({op for op, check in bad if check.startswith("closed-form")}) == 20


# -- optimum perturbations ----------------------------------------------------


def test_optimum_minimum_distance_rejected(outputs):
    text = outputs[OPTIMUM.name]
    value = float(checks.parse_optimum_report(text, "j")["measured minimum distance"])
    n_star = int(checks.parse_optimum_report(text, "j")["measured optimal steps"])
    perturbed = edit_report(text, "measured minimum distance", f"{value * (1 + 2e-5):.6g}")
    assert (f"n={n_star} j", "reference J") in failing(OPTIMUM, perturbed)


def test_optimum_far_from_prediction_rejected(outputs):
    text = edit_report(outputs[OPTIMUM.name], "measured optimal steps", "100")
    assert ("n=100 j", "near the predicted optimum") in failing(OPTIMUM, text)


@pytest.mark.parametrize(
    "key, check, op",
    [
        ("commutator_strength", "commutator strength", "defect commutator"),
        ("jitter_strength", "jitter strength", "defect jitter"),
        ("real optimal steps", "real optimum", "defect jitter"),
        ("bound at optimum", "bound at optimum", "defect commutator"),
    ],
)
def test_optimum_printed_value_rejected(outputs, key, check, op):
    text = outputs[OPTIMUM.name]
    value = float(checks.parse_optimum_report(text, "j")[key])
    assert (op, check) in failing(OPTIMUM, edit_report(text, key, f"{value * 1.0001:.6g}"))


def test_optimum_integer_steps_rejected(outputs):
    text = outputs[OPTIMUM.name]
    value = int(checks.parse_optimum_report(text, "j")["integer optimal steps"])
    bad = failing(OPTIMUM, edit_report(text, "integer optimal steps", str(value + 1)))
    assert ("defect commutator", "integer optimum") in bad


def test_optimum_missing_line_rejected(outputs):
    text = "".join(line for line in outputs[OPTIMUM.name].splitlines(keepends=True) if "jitter_strength" not in line)
    assert ("defect jitter", "line 'jitter_strength'") in failing(OPTIMUM, text)


# -- reference self-consistency -----------------------------------------------


def test_reference_routes_agree_without_noise():
    """Noise-free quadrature propagation equals the closed form for the
    Trotter product unitary."""
    n, t = 5, 0.3
    step = ref.gate(TERMS[1], t / n) @ ref.gate(TERMS[0], t / n)
    ideal = ref.gate(TERMS[0] + TERMS[1], t)
    closed = float(ref.unitary_j(np.linalg.matrix_power(step, n), ideal))
    assert ref.averaged_jitter_j(TERMS, t, n, 0.0) == pytest.approx(closed, abs=1e-12)


def test_reference_sampled_draws_follow_documented_order():
    u = ref.sampled_unitaries(TERMS, 0.1, 3, 0.05, seed=4, runs=2)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(1, 3)))
    deltas = rng.normal(0.0, 0.05, size=(3, 2))
    want = np.eye(4)
    for i in range(3):
        for j in range(2):
            want = ref.gate(TERMS[j], 0.1 / 3 + deltas[i, j]) @ want
    assert np.allclose(u[1], want, atol=1e-13)


def test_reference_unitary_diamond_against_arc():
    v = np.eye(2)
    u = np.diag(np.exp(1j * np.array([0.0, 0.4])))
    assert float(ref.unitary_diamond(u, v)) == pytest.approx(2 * np.sin(0.2), abs=1e-14)
    assert float(ref.unitary_diamond(np.diag([1, -1, 1j]), np.eye(3))) == 2.0


# -- tracing ------------------------------------------------------------------


def test_layer_metrics_self_time(tmp_path):
    solve, diamond, defects = (LAYERS.index(name) for name in ("sdp.solve", "metrics.diamond_distance", "tradeoff.defect_strengths"))
    tracer = Tracer()
    # sdp.solve inside diamond_distance inside defect_strengths, and one more solve
    tracer.spans = [(defects, 0.0, 10.0, -1, 0), (diamond, 1.0, 5.0, 0, 0), (solve, 2.0, 4.0, 1, 17), (solve, 6.0, 7.0, 0, 3)]
    path = tmp_path / "spans.npz"
    tracer.save(str(path), seconds_per_call=1e-6)
    m = layer_metrics(path)
    assert list(m) == PER_LAYER
    assert m["sdp.solve.calls"] == 2 and m["sdp.solve.s"] == pytest.approx(3.0)
    assert m["metrics.diamond_distance.s"] == pytest.approx(2.0)
    assert m["tradeoff.defect_strengths.s"] == pytest.approx(5.0)
    assert m["sdp.solve.iterations"] == 20 and m["sdp.solve.s_per_iter"] == pytest.approx(0.15)
    assert m["trace.overhead_s"] == pytest.approx(4e-6)


def test_wrapper_cost_is_measured():
    assert 0.0 < wrapper_seconds(calls=2000, repeats=3) < 1e-3


def test_traced_command_counts_and_output(tmp_path):
    w = Workload("t-traced", "sweep", 2, "avg-jitter", ("j",), (1, 2, 4), "1,2,4")
    config = tmp_path / "c.cfg"
    config.write_text(w.config_text())
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1"}
    runs = {}
    for name, prefix in (("plain", ["-m", "trotopt.cli"]), ("traced", [str(HERE / "traced.py"), str(tmp_path / "s.npz")])):
        out = tmp_path / f"{name}.csv"
        args = [sys.executable, *prefix, "sweep", "--config", str(config), "--out", str(out)]
        subprocess.run(args, env=env, check=True, timeout=120)
        runs[name] = out.read_bytes()
    assert runs["plain"] == runs["traced"]
    m = layer_metrics(tmp_path / "s.npz")
    assert m["tradeoff.defect_strengths.calls"] == 1
    assert m["channels.faulty_trotter.calls"] == 3
    assert m["metrics.j_distance.calls"] == 3
    assert m["linalg.trace_norm.calls"] == 5
    assert m["sdp.solve.calls"] == 0
    assert m["experiments.build_config.s"] > 0 and m["experiments.format_csv.s"] > 0


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_names_the_workloads_and_real_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for qualified in LAYERS:
        module, name = qualified.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"trotopt.{module}"), name)), qualified


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-readme", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
