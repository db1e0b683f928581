"""Config parsing, experiment row generation, CSV emission and CLI wiring."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trotopt import sdp
from trotopt.channels import (
    AveragedTimingJitter,
    Depolarizing,
    TimingJitter,
    TrotterPlan,
    faulty_trotter,
    ideal_map,
)
from trotopt.experiments import (
    MONTECARLO_HEADER,
    SWEEP_HEADER,
    ConfigError,
    ExperimentConfig,
    benchmark_report,
    build_config,
    config_hash,
    default_n_grid,
    format_csv,
    montecarlo_rows,
    optimum_report,
    parse_config_text,
    parse_hamiltonian_setting,
    parse_metrics,
    parse_n_grid,
    parse_noise,
    seeded_rng,
    sweep_rows,
    _distance,
)
from trotopt.hamiltonians import HamiltonianFormatError, ising_chain
from trotopt.metrics import (
    Diamond,
    InducedTraceHeuristic,
    JDistance,
    diamond_distance,
    j_distance,
)
from trotopt import cli


def small_config(**kw):
    base = dict(
        terms=tuple(ising_chain(2)),
        label="ising:2",
        noise=AveragedTimingJitter(0.01),
        t=0.1,
        n_grid=(1, 2, 4, 8, 16, 32, 64),
        metrics=(JDistance(),),
        runs=3,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestDefaultGrid:
    def test_spans_three_decades(self):
        grid = default_n_grid()
        assert grid[0] == 1
        assert grid[-1] == 1000
        assert all(b > a for a, b in zip(grid, grid[1:]))
        # 24 points per decade before integer dedup
        assert 50 <= len(grid) <= 73

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError, match="bounds"):
            default_n_grid(10, 5)


class TestConfigText:
    def test_parses_values_and_comments(self):
        raw = parse_config_text(
            "# header\nhamiltonian = ising:2\n\nt = 0.1  # trailing\nnoise = depol:0.01\n"
        )
        assert raw == {"hamiltonian": "ising:2", "t": "0.1", "noise": "depol:0.01"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config_text("t = 1\nbogus = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("t = 1\nt = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("t =\n")


class TestSettingParsers:
    def test_ising_preset(self):
        label, terms = parse_hamiltonian_setting("ising:2")
        assert label == "ising:2"
        assert len(terms) == 2
        assert terms[0].shape == (4, 4)

    def test_periodic_preset(self):
        _, terms = parse_hamiltonian_setting("ising:3:periodic")
        assert terms[0].shape == (8, 8)

    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_hamiltonian_setting("ising:two")
        with pytest.raises(ConfigError, match="preset"):
            parse_hamiltonian_setting("ising:2:wrap")

    def test_inline_hamiltonian(self):
        label, terms = parse_hamiltonian_setting("1 | x | y")
        assert label == "custom"
        assert len(terms) == 2
        assert terms[0].shape == (2, 2)

    def test_inline_errors_propagate(self):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian_setting("1 | q")

    def test_noise_models(self):
        assert parse_noise("jitter:0.05") == TimingJitter(0.05)
        assert parse_noise("avg-jitter:0.01") == AveragedTimingJitter(0.01)
        assert parse_noise("depol:1e-3") == Depolarizing(1e-3)
        assert parse_noise("decoherence:0.3").gamma == 0.3

    def test_noise_validation_wrapped(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_noise("jitter:-0.1")
        with pytest.raises(ConfigError, match="unknown noise"):
            parse_noise("thermal:0.1")
        with pytest.raises(ConfigError, match="model:parameter"):
            parse_noise("jitter")
        for text, name in [
            ("jitter:nan", "sigma"),
            ("avg-jitter:nan", "sigma"),
            ("avg-jitter:inf", "sigma"),
            ("decoherence:nan", "gamma"),
            ("decoherence:inf", "gamma"),
            ("depol:nan", "p"),
        ]:
            with pytest.raises(ConfigError, match=f"{name} must"):
                parse_noise(text)

    def test_metrics(self):
        metrics = parse_metrics("j, diamond,heuristic")
        assert metrics == (JDistance(), Diamond(), InducedTraceHeuristic())
        with pytest.raises(ConfigError, match="unknown metric"):
            parse_metrics("j,spectral")

    def test_n_grid_forms(self):
        assert parse_n_grid("1,2,4") == (1, 2, 4)
        assert parse_n_grid("range:3:6") == (3, 4, 5, 6)
        log = parse_n_grid("log:1:100:5")
        assert log[0] == 1 and log[-1] == 100
        with pytest.raises(ConfigError, match="comma list"):
            parse_n_grid("1;2")
        with pytest.raises(ConfigError, match="range"):
            parse_n_grid("range:5:1")


class TestBuildConfig:
    def test_defaults(self):
        config = build_config({})
        assert config.label == "ising:2"
        assert config.noise == AveragedTimingJitter(0.01)
        assert config.metrics == (JDistance(),)
        assert config.n_grid == default_n_grid()
        assert config.master_seed == 0

    def test_file_values_and_overrides(self):
        raw = {"t": "0.5", "seed": "9", "runs": "17", "noise": "depol:0.1"}
        config = build_config(raw, master_seed=123)
        assert config.t == 0.5
        assert config.runs == 17
        assert config.master_seed == 123  # override wins
        assert config.noise == Depolarizing(0.1)

    def test_none_override_ignored(self):
        config = build_config({"seed": "4"}, master_seed=None)
        assert config.master_seed == 4

    def test_bad_number_diagnosed(self):
        with pytest.raises(ConfigError, match="t must be"):
            build_config({"t": "fast"})

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError, match="increasing"):
            small_config(n_grid=(4, 2))
        with pytest.raises(ConfigError, match="runs"):
            small_config(runs=0)
        with pytest.raises(ConfigError, match="64 bits"):
            small_config(master_seed=2**64)
        with pytest.raises(ConfigError, match=">= 1"):
            small_config(n_grid=(0, 1))

    def test_metric_dimension_checked_at_construction(self):
        four_qubits = tuple(ising_chain(4))
        with pytest.raises(ConfigError, match="diamond supports dimension <= 8"):
            small_config(terms=four_qubits, metrics=(JDistance(), Diamond()))
        assert small_config(terms=four_qubits, metrics=(JDistance(),)).dim == 16


class TestSeedsAndHash:
    def test_rng_reproducible_per_key(self):
        a = seeded_rng(5, 1, 2).standard_normal(4)
        b = seeded_rng(5, 1, 2).standard_normal(4)
        c = seeded_rng(5, 2, 1).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_hash_stable_and_sensitive(self):
        config = small_config()
        assert config_hash(config) == config_hash(small_config())
        assert config_hash(config) != config_hash(small_config(master_seed=8))
        assert config_hash(config) != config_hash(
            small_config(noise=AveragedTimingJitter(0.02))
        )


class TestSweep:
    def test_rows_sorted_and_complete(self):
        config = small_config(metrics=(JDistance(), Diamond()), n_grid=(1, 2, 4))
        rows = sweep_rows(config)
        assert len(rows) == 6
        assert [(r[0], r[1]) for r in rows] == [
            (1, "diamond"), (1, "j"), (2, "diamond"), (2, "j"), (4, "diamond"), (4, "j"),
        ]
        for row in rows:
            assert row[5] == "ok"
            assert row[2] <= row[3] + 1e-9  # bound dominates in this regime
            assert row[4] == 1.875

    def test_interior_minimum_with_jitter(self):
        rows = sweep_rows(small_config())
        values = [r[2] for r in rows]
        best = int(np.argmin(values))
        assert 0 < best < len(values) - 1

    def test_noiseless_curve_strictly_decreasing(self):
        rows = sweep_rows(small_config(noise=AveragedTimingJitter(0.0)))
        values = [r[2] for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_depolarizing_saturates_high_on_grid(self):
        config = small_config(noise=Depolarizing(0.05), n_grid=(1, 16, 400))
        rows = sweep_rows(config)
        assert abs(rows[-1][2] - 1.875) <= 1e-3

    def test_parallel_rows_identical(self):
        config = small_config(n_grid=(1, 2, 4, 8))
        assert sweep_rows(config, jobs=2) == sweep_rows(config, jobs=1)

    def test_workers_capped_by_grid(self, monkeypatch):
        # a million requested workers become one per grid point or per CPU
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("trotopt.experiments.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("trotopt.experiments.os.cpu_count", lambda: 64)
        config = small_config(n_grid=(1, 2, 4))
        assert sweep_rows(config, jobs=10**6) == sweep_rows(config, jobs=1)
        monkeypatch.setattr("trotopt.experiments.os.cpu_count", lambda: 2)
        sweep_rows(config, jobs=10**6)
        assert started == [3, 2]

    def test_failed_solve_reports_certified_bound(self, monkeypatch):
        def fail_at_first_iterate(j, **kw):
            # a solve that fails before any primal value
            return sdp.SdpSolution(
                primal=np.nan, dual=np.nan, gap=np.inf, iterations=1, status="NumericalFailure"
            )

        plan = TrotterPlan(tuple(ising_chain(2)), t=0.1, n=4)
        faulty = faulty_trotter(plan, AveragedTimingJitter(0.01))
        ideal = ideal_map(plan)
        exact = diamond_distance(faulty, ideal)
        monkeypatch.setattr("trotopt.sdp.solve", fail_at_first_iterate)
        value, status = _distance(faulty, ideal, Diamond(), 1e-7)
        assert status == "NumericalFailure"
        assert np.isfinite(value)
        assert value == min(2.0, 4 * j_distance(faulty, ideal))
        assert exact <= value
        config = small_config(
            noise=TimingJitter(0.01), metrics=(Diamond(),), n_grid=(4,), runs=2
        )
        averaged = [r for r in montecarlo_rows(config) if r[0] == "averaged"]
        assert len(averaged) == 1 and np.isfinite(averaged[0][3])

    def test_heuristic_bound_dominates(self):
        # the defect-map norms behind the bound are not clipped at 2
        config = small_config(metrics=(InducedTraceHeuristic(restarts=8),), n_grid=(1, 4, 16))
        for row in sweep_rows(config):
            assert row[2] <= row[3]


class TestReadmeExample:
    def test_sweep_matches_readme(self):
        # the README's sweep example, run as printed there: its J columns are
        # held to 1e-12 and its diamond columns to the SDP tolerance
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cfg_text = text.split("$ cat sweep.cfg\n", 1)[1].split("\n\n", 1)[0]
        shown = text.split("$ trotopt sweep --config sweep.cfg | head -6\n", 1)[1]
        shown = shown.split("```", 1)[0].splitlines()
        config = build_config(parse_config_text(cfg_text))
        got = format_csv(SWEEP_HEADER, sweep_rows(config), config).splitlines()
        assert len(shown) == 6
        assert got[:2] == shown[:2]
        for want, have in zip(shown[2:], got[2:]):
            want, have = want.split(","), have.split(",")
            assert want[:2] + want[5:] == have[:2] + have[5:]
            tol = 1e-12 if want[1] == "j" else 1e-7
            for a, b in zip(want[2:5], have[2:5]):
                assert abs(float(a) - float(b)) <= tol, (want, have)


class TestMonteCarlo:
    def test_single_run_mean_is_that_run(self):
        config = small_config(
            terms=tuple(ising_chain(2)),
            noise=TimingJitter(0.02),
            metrics=(Diamond(),),
            runs=1,
            n_grid=(1, 3),
        )
        rows = montecarlo_rows(config)
        by_point = {}
        for run_id, n, metric, value in rows:
            by_point.setdefault(n, {})[run_id] = value
        for n, vals in by_point.items():
            assert vals["mean"] == vals["0"]

    def test_ordering_contract(self):
        config = small_config(
            noise=TimingJitter(0.02), metrics=(Diamond(),), runs=2, n_grid=(2, 5)
        )
        rows = montecarlo_rows(config)
        assert [r[0] for r in rows] == ["0", "1", "averaged", "mean"] * 2
        assert [r[1] for r in rows] == [2, 2, 2, 2, 5, 5, 5, 5]

    def test_averaged_map_beats_mean_run(self):
        # convexity: the mean channel cannot be farther than the average
        # per-run distance; allow a small sampling slack at modest run counts
        terms = (
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        )
        config = ExperimentConfig(
            terms=terms,
            label="custom",
            noise=TimingJitter(0.05),
            t=2.0,
            n_grid=tuple(range(1, 7)),
            metrics=(Diamond(),),
            runs=60,
            master_seed=2,
        )
        rows = montecarlo_rows(config)
        averaged = {r[1]: r[3] for r in rows if r[0] == "averaged"}
        means = {r[1]: r[3] for r in rows if r[0] == "mean"}
        slacked = sum(averaged[n] <= means[n] + 0.02 for n in averaged)
        strict = sum(averaged[n] <= means[n] for n in averaged)
        assert slacked == len(averaged)
        assert strict >= len(averaged) // 2

    def test_metric_set_leaves_values_alone(self):
        # every run is sampled once and scored under each metric, so adding
        # a metric changes no other metric's rows
        base = dict(noise=TimingJitter(0.03), runs=4, n_grid=(5,))
        both = montecarlo_rows(small_config(metrics=(JDistance(), Diamond()), **base))
        for metric in (JDistance(), Diamond()):
            alone = montecarlo_rows(small_config(metrics=(metric,), **base))
            assert [r for r in both if r[2] == metric.name] == alone

    def test_requires_sampled_jitter(self):
        with pytest.raises(ConfigError, match="sampled timing jitter"):
            montecarlo_rows(small_config())

    def test_parallel_rows_identical(self):
        config = small_config(
            noise=TimingJitter(0.03), metrics=(Diamond(),), runs=3, n_grid=(1, 2, 3)
        )
        assert montecarlo_rows(config, jobs=3) == montecarlo_rows(config, jobs=1)


class TestCsv:
    def test_layout(self):
        config = small_config(n_grid=(1, 2))
        text = format_csv(SWEEP_HEADER, sweep_rows(config), config)
        lines = text.splitlines()
        assert lines[0] == f"# config {config_hash(config)} trotopt 0.1.0"
        assert lines[1] == "n,metric,exact_distance,bound,benchmark,status"
        assert len(lines) == 2 + 2
        assert text.endswith("\n")

    def test_float_formatting(self):
        text = format_csv(("a", "b"), [(1, 0.25), (2, 1.0 / 3.0)])
        assert "0.25" in text
        assert "0.333333333333" in text


class TestOptimumReport:
    def test_prediction_block(self):
        config = small_config(n_grid=tuple(range(1, 16)))
        report = optimum_report(config)
        assert "metric j:" in report
        assert "integer optimal steps" in report
        assert "measured optimal steps" in report

    def test_commuting_terms_have_no_optimum(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        terms = (np.kron(sz, np.eye(2)), np.kron(np.eye(2), sz))
        config = small_config(terms=terms, label="custom", n_grid=(1, 2, 4))
        report = optimum_report(config)
        assert "commutator_strength = 0" in report
        assert "no finite optimum" in report

    def test_horizon_needs_budget_and_jitter(self):
        config = small_config(n_grid=(1, 2, 4))
        assert "max simulation time" not in optimum_report(config)
        assert "max simulation time (budget 0.25)" in optimum_report(config, dmax=0.25)
        depol = small_config(noise=Depolarizing(0.01), n_grid=(1, 2, 4))
        assert "max simulation time" not in optimum_report(depol, dmax=0.25)

    def test_rejects_unsupported_noise(self):
        with pytest.raises(ConfigError, match="optimum prediction"):
            optimum_report(small_config(noise=TimingJitter(0.01)))

    def test_measured_optimum_in_grid(self):
        # the measured optimum is the argmin of the same sweep
        config = small_config(n_grid=tuple(range(1, 16)))
        report = optimum_report(config)
        for name in ("j",):
            values = [(r[2], r[0]) for r in sweep_rows(config) if r[1] == name]
            dist, n = min(values)
            assert n in config.n_grid
            assert 0.0 < dist < 2.0
            block = report.split(f"metric {name}:")[1]
            assert f"measured optimal steps    = {n}\n" in block
            assert f"measured minimum distance = {dist:.6g}\n" in block

    def test_parallel_report_identical(self):
        config = small_config(n_grid=(1, 2, 4, 8))
        assert optimum_report(config, jobs=2) == optimum_report(config)


class TestBenchmarkReport:
    def test_qubit_report_passes(self):
        text, ok = benchmark_report(2)
        assert ok
        assert "all checks passed" in text
        assert "1.5" in text


class TestCli:
    def test_cli_imports_no_scipy(self):
        # scipy is a test-only dependency; a command must start without it
        code = "import sys, trotopt.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_benchmarks_exit_code(self, capsys):
        assert cli.main(["benchmarks", "--dim", "2"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_benchmarks_three_qubits(self, capsys):
        assert cli.main(["benchmarks", "--dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        line = next(row for row in out.splitlines() if "live diamond distance" in row)
        assert abs(float(line.split("=")[1].split()[0]) - (2.0 - 2.0 / 64)) <= 1e-7

    def test_three_qubit_diamond_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = ising:3\nnoise = avg-jitter:0.01\n"
            "metrics = j,diamond,heuristic\nn_grid = 1,8\n",
            encoding="utf-8",
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[2:]]
        values = {(int(n), metric): float(value) for n, metric, value, *_ in rows}
        assert {row[-1] for row in rows} == {"ok"}
        for n in (1, 8):
            j, diamond, heuristic = (values[n, m] for m in ("j", "diamond", "heuristic"))
            assert j <= diamond <= min(2.0, 8.0 * j) + 1e-7
            assert heuristic <= diamond + 1e-7

    def test_sweep_writes_csv(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = ising:2\nt = 0.1\nnoise = avg-jitter:0.01\n"
            "n_grid = 1,2,4\nmetrics = j\nseed = 7\n",
            encoding="utf-8",
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == ",".join(SWEEP_HEADER)
        assert len(lines) == 2 + 3

    def test_cli_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = 1 | x | y\nt = 2.0\nnoise = jitter:0.05\n"
            "n_grid = 1,2\nmetrics = diamond\nruns = 3\nseed = 11\n",
            encoding="utf-8",
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["montecarlo", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["montecarlo", "--config", str(cfg), "--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metric_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = ising:2\nnoise = avg-jitter:0.01\nn_grid = 1,2\nmetrics = diamond\n",
            encoding="utf-8",
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--metric", "j", "--out", str(out)]) == 0
        body = out.read_text(encoding="utf-8")
        assert ",j," in body
        assert ",diamond," not in body

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err
        # non-finite numbers are refused before any channel is built
        base = "hamiltonian = ising:2\nnoise = avg-jitter:0.01\nn_grid = 1,2\nmetrics = j,diamond\n"
        for line, message in [
            ("t = nan", "t must be finite"),
            ("t = inf", "t must be finite"),
            ("a = inf", "a must be finite"),
            ("a = nan", "a must be finite"),
            ("sdp_tol = nan", "sdp_tol must be finite"),
            ("sdp_tol = inf", "sdp_tol must be finite"),
        ]:
            cfg.write_text(base + line + "\n", encoding="utf-8")
            assert cli.main(["sweep", "--config", str(cfg)]) == 2, line
            assert message in capsys.readouterr().err
        cfg.write_text(base.replace("0.01", "nan"), encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert "sigma must be finite" in capsys.readouterr().err
        for tol in ["nan", "inf", "0"]:
            assert cli.main(["benchmarks", "--dim", "2", "--sdp-tol", tol]) == 2
            assert "--sdp-tol must be finite" in capsys.readouterr().err
        cfg.write_text(base, encoding="utf-8")
        for dmax in ["nan", "inf", "-1"]:
            assert cli.main(["optimum", "--config", str(cfg), "--dmax", dmax]) == 2
            assert "--dmax must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "montecarlo", "optimum"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_validated(self, command, jobs, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no config may be built")

        monkeypatch.setattr(cli, "build_config", never)
        assert cli.main([command, "--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_non_finite_coefficient_exit_two(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no channel may be built")

        monkeypatch.setattr("trotopt.experiments.faulty_trotter", never)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hamiltonian = 1 | nan x | z\nn_grid = 1,2\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert "coefficient must be finite, got 'nan'" in capsys.readouterr().err

    def test_missing_config_exit_two(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent.txt"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_wrong_noise_for_montecarlo_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("noise = avg-jitter:0.01\nn_grid = 1,2\n", encoding="utf-8")
        assert cli.main(["montecarlo", "--config", str(cfg)]) == 2
        assert "sampled timing jitter" in capsys.readouterr().err

    def test_benchmarks_dim_validated(self, capsys):
        assert cli.main(["benchmarks", "--dim", "1"]) == 2
        assert "--dim" in capsys.readouterr().err
        assert cli.main(["benchmarks", "--dim", "9"]) == 2
        assert "dimension <= 8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "optimum"])
    @pytest.mark.parametrize("sites", [4])
    def test_diamond_dimension_limit_exit_two(self, command, sites, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the diamond SDP must not be set up")

        monkeypatch.setattr("trotopt.metrics.diamond_norm_hp", never)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"hamiltonian = ising:{sites}\nmetrics = j,diamond\nn_grid = 1,2\n", encoding="utf-8"
        )
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "diamond supports dimension <= 8 (3 qubits)" in err
        assert f"got dimension {2**sites}" in err

    def test_optimum_stdout(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = ising:2\nnoise = avg-jitter:0.01\nn_grid = range:1:12\nmetrics = j\n",
            encoding="utf-8",
        )
        assert cli.main(["optimum", "--config", str(cfg), "--dmax", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "max simulation time" in out
        assert "measured optimal steps" in out
