"""Config parsing, experiment row generation, CSV emission and CLI wiring."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trotopt import metrics, sdp
from trotopt.channels import (
    AveragedTimingJitter,
    Depolarizing,
    TermSet,
    TimingJitter,
    TrotterPlan,
    faulty_trotter,
    ideal_map,
    trotter_ideal,
)
from trotopt.experiments import (
    MAX_GRID_POINTS,
    MAX_MONTECARLO_DRAWS,
    MAX_STEPS,
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
    _distances,
    _map_grid,
)
from trotopt.hamiltonians import HamiltonianFormatError, ising_chain
from trotopt.metrics import (
    TRACE_ATOL,
    Diamond,
    InducedTraceHeuristic,
    JDistance,
    diamond_distance,
    diamond_norm_hp,
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


def _dense_terms(qubits):
    """Two random dense Hermitian terms on ``qubits`` qubits, seeded by it."""
    d = 2**qubits
    draws = np.random.default_rng(qubits).normal(size=(2, 2, d, d))
    return tuple(x + 1j * y + (x + 1j * y).conj().T for x, y in draws)


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

    def test_n_grid_size_limited_before_building(self):
        assert len(parse_n_grid(f"range:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
        for spec in ["range:1:100000000000", "log:1:10:10000000000"]:
            with pytest.raises(ConfigError, match=f"above MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
                parse_n_grid(spec)
        with pytest.raises(ConfigError, match="MAX_GRID_POINTS"):
            parse_n_grid(f"range:1:{MAX_GRID_POINTS + 1}")

    def test_step_count_limited_before_building(self):
        assert parse_n_grid(f"log:1:{MAX_STEPS}:2")[-1] == MAX_STEPS
        assert parse_n_grid(f"range:{MAX_STEPS - 1}:{MAX_STEPS}")[-1] == MAX_STEPS
        assert small_config(n_grid=(1, MAX_STEPS)).n_grid[-1] == MAX_STEPS
        over = MAX_STEPS + 1
        for spec in [f"log:1:{over}:2", f"range:{MAX_STEPS}:{over}", "log:1:1" + "0" * 400 + ":2"]:
            with pytest.raises(ConfigError, match=f"above MAX_STEPS = {MAX_STEPS}"):
                parse_n_grid(spec)
        for grid in [(1, over), (1, 2**62)]:
            with pytest.raises(ConfigError, match=f"above MAX_STEPS = {MAX_STEPS}"):
                small_config(n_grid=grid)

    @pytest.mark.parametrize("n_sites", [2, 4])
    def test_max_steps_channel_stays_trace_preserving(self, n_sites):
        terms = ising_chain(n_sites)
        d = terms[0].shape[0]
        plan = TrotterPlan(terms, t=0.1, n=MAX_STEPS, a=1.0)
        one = np.eye(d).reshape(-1)
        channel = faulty_trotter(plan, AveragedTimingJitter(0.01))
        assert np.max(np.abs(one @ channel - one)) <= TRACE_ATOL

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_max_steps_averaged_channel_on_dense_terms_keeps_trace(self, qubits):
        # random dense terms have one sector and no exact zeros; powering on
        # increments keeps the trace residual at most 3.6e-13 on these draws,
        # where a power of the rounded step left 2.8e-11 to 8.8e-10
        terms = _dense_terms(qubits)
        plan = TrotterPlan(terms, t=1.0, n=MAX_STEPS, a=1.0)
        one = np.eye(2**qubits).reshape(-1)
        channel = faulty_trotter(plan, AveragedTimingJitter(0.01))
        assert np.max(np.abs(one @ channel - one)) <= 1e-12

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_max_steps_ideal_product_on_dense_terms_keeps_trace(self, qubits):
        # the ideal product is powered on increments too: its trace residual
        # is at most 1.3e-15 on these draws, where a matrix power of the step
        # unitary left 1.6e-10 to 1.2e-9
        terms = _dense_terms(qubits)
        one = np.eye(2**qubits).reshape(-1)
        for t in (0.1, 1.0):
            channel = trotter_ideal(TrotterPlan(terms, t=t, n=MAX_STEPS, a=1.0))
            assert np.max(np.abs(one @ channel - one)) <= 1e-13

    def test_max_steps_diamond_ignores_the_trace_residual(self):
        # the averaged channel keeps trace to roundoff at MAX_STEPS; a
        # residual of 2.2e-10 (what a power of the rounded step carried
        # there) added to the difference leaves the SDP's value within
        # sdp_tol, and ten times it is refused
        terms = ising_chain(2)
        plan = TrotterPlan(terms, t=1.0, n=MAX_STEPS, a=1.0)
        phi = faulty_trotter(plan, AveragedTimingJitter(0.05)) - ideal_map(plan)
        one = np.eye(4).reshape(-1)
        assert np.max(np.abs(one @ phi)) <= 1e-13
        leak = 2.2e-10 * np.outer(one, one) / 4
        assert 1e-10 < np.max(np.abs(one @ (phi + leak))) <= 2.0 * TRACE_ATOL
        assert diamond_norm_hp(phi + leak) == pytest.approx(diamond_norm_hp(phi), abs=1e-7)
        with pytest.raises(ValueError, match="annihilate trace"):
            diamond_norm_hp(phi + 10.0 * leak)


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

    def test_terms_checked_at_construction(self):
        # a library caller's bad terms fail here, before any defect map
        z, x = ising_chain(2)
        bad = (
            ((z + 1j * x,), r"terms\[0\] is not Hermitian"),
            ((z, np.eye(2)), r"terms\[1\] has dimension 2, expected 4"),
            ((), "at least one"),
        )
        for terms, message in bad:
            with pytest.raises(ConfigError, match=message):
                small_config(terms=terms)
        config = small_config()
        assert isinstance(config.terms, TermSet)
        assert TrotterPlan(config.terms, t=0.1, n=3).terms is config.terms

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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("trotopt.experiments.os.cpu_count", lambda: 64)
        config = small_config(n_grid=(1, 2, 4))
        assert sweep_rows(config, jobs=10**6) == sweep_rows(config, jobs=1)
        monkeypatch.setattr("trotopt.experiments.os.cpu_count", lambda: 2)
        sweep_rows(config, jobs=10**6)
        assert started == [3, 2]

    def test_failed_solve_reports_certified_bound(self, monkeypatch):
        def fail_at_first_iterate(j, **kw):
            # a solve that fails before any primal value, on every map of the stack
            failure = sdp.SdpSolution(
                primal=np.nan, dual=np.nan, gap=np.inf, iterations=1, status="NumericalFailure"
            )
            return sdp.SdpStack(failure for _ in j)

        plan = TrotterPlan(tuple(ising_chain(2)), t=0.1, n=4)
        faulty = faulty_trotter(plan, AveragedTimingJitter(0.01))
        ideal = ideal_map(plan)
        exact = diamond_distance(faulty, ideal)
        monkeypatch.setattr("trotopt.sdp.solve", fail_at_first_iterate)
        [(value, status)] = _distances(faulty[None], ideal[None], Diamond(), 1e-7)
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

    def test_quick_tour_runs(self, capsys):
        # the README's Python block, run as printed there: each printed value
        # matches its comment to the digits the comment shows
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        printed = capsys.readouterr().out.split()
        wanted = [
            line.split("#", 1)[1].split()[0].rstrip(",")
            for line in block.splitlines()
            if line.startswith("print(")
        ]
        assert wanted == ["0.00682", "7", "0.00864"]
        for got, want in zip(printed, wanted, strict=True):
            assert f"{float(got):.{len(want.lstrip('0.'))}g}" == want, (got, want)


# ising:2 J-only sweeps at a != 1 under the two channel noise models the
# README example does not cover, pinned to every printed digit and the config
# hash
PINNED_SWEEPS = {
    "depol:0.001": """\
# config 4139eafdb49c trotopt 0.1.0
n,metric,exact_distance,bound,benchmark,status
1,j,0.242417526124,0.256178882786,1.875,ok
3,j,0.0814045945256,0.0903929609286,1.875,ok
8,j,0.0374177788,0.0467879853482,1.875,ok
""",
    "decoherence:0.3": """\
# config ea0e463bc0d5 trotopt 0.1.0
n,metric,exact_distance,bound,benchmark,status
1,j,0.286049576094,0.338115211936,1.875,ok
3,j,0.137609835488,0.177160319167,1.875,ok
8,j,0.104145042857,0.126861915177,1.875,ok
""",
}


@pytest.mark.parametrize("noise", sorted(PINNED_SWEEPS))
def test_sweep_digits_pinned(noise):
    raw = parse_config_text(
        f"hamiltonian = ising:2\nt = 0.3\na = 1.7\nnoise = {noise}\n"
        "metrics = j\nn_grid = 1,3,8\nseed = 11\n"
    )
    config = build_config(raw)
    assert format_csv(SWEEP_HEADER, sweep_rows(config), config) == PINNED_SWEEPS[noise]


def test_sweep_refuses_sampled_jitter_exit_two(tmp_path, capsys, monkeypatch):
    # one sampled run has no averaged bound to print beside it; the refusal
    # comes before any defect norm or channel is computed
    def never(*args, **kwargs):
        raise AssertionError("nothing may be computed")

    monkeypatch.setattr("trotopt.experiments.faulty_trotter", never)
    monkeypatch.setattr("trotopt.experiments.defect_strengths", never)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "hamiltonian = ising:2\nt = 0.3\na = 1.7\nnoise = jitter:0.02\n"
        "metrics = j\nn_grid = 1,3,8\nseed = 11\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "avg-jitter" in err and "montecarlo" in err
    assert not out.exists()


# j,heuristic sweeps under the default averaged jitter, pinned to every
# printed digit: the see-saw's restarts ascend as one stack and must end where
# each ended when they ran one after another
PINNED_HEURISTIC_SWEEPS = {
    "ising:2": """\
# config 77b640880d7b trotopt 0.1.0
n,metric,exact_distance,bound,benchmark,status
1,heuristic,0.0400694536911,0.041,1.5,ok
1,j,0.0284216657437,0.028944826375,1.875,ok
2,heuristic,0.0204622936895,0.022,1.5,ok
2,j,0.0146440185956,0.0154632458788,1.875,ok
3,heuristic,0.0142009202799,0.0163333333333,1.5,ok
3,j,0.0103046118271,0.0114097557985,1.875,ok
4,heuristic,0.0113077666963,0.014,1.5,ok
4,j,0.00834830610846,0.00971328832205,1.875,ok
""",
    "ising:3": """\
# config 7aa069f0866f trotopt 0.1.0
n,metric,exact_distance,bound,benchmark,status
1,heuristic,0.057351121306,0.0588629696859,1.75,ok
1,j,0.0401987661217,0.0411403124237,1.96875,ok
2,heuristic,0.0304902123466,0.0328731256295,1.75,ok
2,j,0.0208238879789,0.0222806248475,1.96875,ok
3,heuristic,0.0225614897267,0.0257394624046,1.75,ok
3,j,0.0148106773179,0.0167542706046,1.96875,ok
4,heuristic,0.019482975079,0.0233198443877,1.75,ok
4,j,0.0121929688269,0.014561249695,1.96875,ok
""",
}


@pytest.mark.parametrize("hamiltonian", sorted(PINNED_HEURISTIC_SWEEPS))
def test_heuristic_sweep_digits_pinned(hamiltonian):
    raw = parse_config_text(
        f"hamiltonian = {hamiltonian}\nnoise = avg-jitter:0.01\n"
        "metrics = j,heuristic\nn_grid = 1,2,3,4\n"
    )
    config = build_config(raw)
    want = PINNED_HEURISTIC_SWEEPS[hamiltonian]
    assert format_csv(SWEEP_HEADER, sweep_rows(config), config) == want


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

    def test_runs_use_the_unitary_closed_forms(self, monkeypatch):
        # per-run values come from the closed forms, so the J-distance and
        # the see-saw run once per grid point, on the averaged channel; the
        # heuristic rows of the runs and their mean equal the diamond rows
        calls = dict.fromkeys(
            [
                "j_distance",
                "induced_trace_distance_heuristic",
                "j_distance_unitary",
                "diamond_distance_unitary",
            ],
            0,
        )

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
        config = small_config(
            noise=TimingJitter(0.03),
            metrics=(JDistance(), Diamond(), InducedTraceHeuristic()),
            runs=5,
            n_grid=(2, 9),
        )
        rows = montecarlo_rows(config)
        # all runs of a grid point are scored in one call per metric
        assert calls == {
            "j_distance": 2,
            "induced_trace_distance_heuristic": 2,
            "j_distance_unitary": 2,
            "diamond_distance_unitary": 4,
        }
        value = {(r[0], r[1], r[2]): r[3] for r in rows}
        for run in [*map(str, range(5)), "mean"]:
            for n in (2, 9):
                assert value[(run, n, "heuristic")] == value[(run, n, "diamond")]

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
        with pytest.raises(ConfigError, match="--dmax needs averaged timing jitter"):
            optimum_report(depol, dmax=0.25)

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

    def test_cli_imports_no_process_pool(self):
        # the pool loads multiprocessing, which only --jobs above 1 needs
        code = "import sys, trotopt.cli; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

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

    def test_optimum_parallel_bytes_match_serial(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = ising:3\nt = 0.1\nnoise = avg-jitter:0.01\n"
            "n_grid = log:1:100:6\nmetrics = j\n",
            encoding="utf-8",
        )
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert cli.main(["optimum", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["optimum", "--config", str(cfg), "--out", str(b), "--jobs", "2"]) == 0
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

    def test_dmax_needs_averaged_jitter_exit_two(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no channel may be built")

        monkeypatch.setattr("trotopt.experiments.faulty_trotter", never)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("noise = depol:0.001\nn_grid = 1,2\n", encoding="utf-8")
        assert cli.main(["optimum", "--config", str(cfg), "--dmax", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "--dmax needs averaged timing jitter noise (avg-jitter:SIGMA)" in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize(
        "target, message",
        [("missing/rows.csv", "output directory not found"), (".", "output path is a directory")],
    )
    def test_unwritable_out_exit_two(self, where, target, message, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no channel may be built")

        monkeypatch.setattr("trotopt.experiments.faulty_trotter", never)
        out = str(tmp_path / target)
        cfg = tmp_path / "cfg.txt"
        text = "n_grid = 1,2\n" + (f"out = {out}\n" if where == "config" else "")
        cfg.write_text(text, encoding="utf-8")
        argv = ["sweep", "--config", str(cfg)] + (["--out", out] if where == "flag" else [])
        assert cli.main(argv) == 2
        assert f"{message}: {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/report.txt", "."])
    def test_benchmarks_unwritable_out_exit_two(self, target, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no benchmark may run")

        monkeypatch.setattr(cli, "benchmark_report", never)
        out = str(tmp_path / target)
        assert cli.main(["benchmarks", "--dim", "2", "--out", out]) == 2
        assert out in capsys.readouterr().err

    def test_missing_config_exit_two(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent.txt"]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", ["1,4611686018427387904", f"range:{MAX_STEPS}:{MAX_STEPS + 1}", f"log:1:{10**9}:2"]
    )
    def test_step_limit_exit_two(self, grid, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no channel may be built")

        monkeypatch.setattr("trotopt.experiments.faulty_trotter", never)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n_grid = {grid}\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert f"above MAX_STEPS = {MAX_STEPS}" in capsys.readouterr().err

    def test_log_grid_overflow_exit_two_without_traceback(self, tmp_path):
        # hi / lo is beyond the float range, so hi must be refused before it
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_grid = log:1:1" + "0" * 400 + ":2\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-m", "trotopt.cli", "sweep", "--config", str(cfg)],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert f"above MAX_STEPS = {MAX_STEPS}" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_diamond_sweep_at_max_steps_exits_zero(self, n_sites, tmp_path):
        # the averaged channel's trace roundoff at MAX_STEPS is within what
        # the diamond metric accepts
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"hamiltonian = ising:{n_sites}\nt = 1\nnoise = avg-jitter:0.05\n"
            f"metrics = diamond\nn_grid = {MAX_STEPS}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert row[0] == str(MAX_STEPS) and row[1] == "diamond" and row[-1] == "ok"

    @pytest.mark.parametrize("noise", ["decoherence:0.01", "depol:1e-9"])
    def test_dense_j_sweep_at_max_steps_exits_zero(self, noise, tmp_path):
        # these channels are built from the ideal product, whose trace
        # residual was 1.055e-9 here (above TRACE_ATOL) when it was a matrix
        # power of the step unitary, so the sweep failed after building them
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "hamiltonian = 4 | x... ; .y.. ; z.z. ; ...x ; 0.7 xy.. ; .zz. "
            "| .zx. ; y..z ; ..yy ; 0.3 xxxx ; zyxz ; x.y.\n"
            f"t = 0.1\nnoise = {noise}\nmetrics = j\nn_grid = 1,{MAX_STEPS}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert row[0] == str(MAX_STEPS) and row[1] == "j" and row[-1] == "ok"

    def test_montecarlo_draw_limit_exit_two(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no run may be sampled")

        monkeypatch.setattr("trotopt.experiments.sampled_trotter_unitary", never)
        cfg = tmp_path / "cfg.txt"
        # ising:2 has two terms, so n + 1 steps take runs * n * k over the limit
        runs = 50
        n = MAX_MONTECARLO_DRAWS // (2 * runs)
        cfg.write_text(f"noise = jitter:0.01\nn_grid = {n + 1}\nruns = {runs}\n", encoding="utf-8")
        assert cli.main(["montecarlo", "--config", str(cfg)]) == 2
        assert f"above MAX_MONTECARLO_DRAWS = {MAX_MONTECARLO_DRAWS}" in capsys.readouterr().err
        # at the limit itself the check passes and the grid is mapped
        monkeypatch.setattr("trotopt.experiments._map_grid", lambda *args: [])
        config = small_config(noise=TimingJitter(0.01), n_grid=(n,), runs=runs)
        assert montecarlo_rows(config) == []

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


class TestGridChunks:
    """Workers take contiguous chunks of the grid, and each metric scores a
    chunk in one call: the diamond metric as one stacked SDP."""

    @staticmethod
    def chunks(config, jobs=1):
        return _map_grid(lambda config, indices: [indices], config, jobs)

    def test_chunk_sizes(self, monkeypatch):
        grid = tuple(range(1, 21))
        assert self.chunks(small_config(n_grid=grid)) == [range(0, 16), range(16, 20)]
        # two workers split the grid evenly rather than leave one idle
        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("trotopt.experiments.os.cpu_count", lambda: 2)
        assert self.chunks(small_config(n_grid=grid), jobs=2) == [range(0, 10), range(10, 20)]
        qubit = parse_hamiltonian_setting("1 | x | z")[1]
        assert self.chunks(small_config(terms=qubit, n_grid=grid)) == [range(0, 20)]
        assert self.chunks(small_config(terms=tuple(ising_chain(3)), n_grid=(1, 2, 3))) == [
            range(0, 1), range(1, 2), range(2, 3)
        ]

    def test_one_stacked_solve_per_chunk(self, monkeypatch):
        sizes = []
        solve = sdp.solve

        def counted(j, **kw):
            sizes.append(len(j))
            return solve(j, **kw)

        monkeypatch.setattr("trotopt.sdp.solve", counted)
        config = small_config(metrics=(JDistance(), Diamond()), n_grid=tuple(range(1, 21)))
        sweep_rows(config)
        # the two defect maps, then the two chunks of the grid
        assert sizes == [2, 16, 4]

    def test_sweep_rows_independent_of_jobs(self):
        config = small_config(metrics=(JDistance(), Diamond()), n_grid=tuple(range(1, 21)))
        assert sweep_rows(config, jobs=2) == sweep_rows(config, jobs=1)

    def test_montecarlo_rows_independent_of_jobs(self):
        config = small_config(
            noise=TimingJitter(0.02), metrics=(Diamond(),), runs=2, n_grid=tuple(range(1, 19))
        )
        assert montecarlo_rows(config, jobs=2) == montecarlo_rows(config, jobs=1)

    def test_optimum_report_independent_of_jobs(self):
        config = small_config(metrics=(JDistance(), Diamond()), n_grid=tuple(range(1, 19)))
        assert optimum_report(config, jobs=2) == optimum_report(config, jobs=1)

    def test_failed_point_leaves_its_chunk_alone(self, monkeypatch):
        # the first point of each grid chunk fails before any primal value;
        # it reports the J bound, and every other point its certified value
        config = small_config(metrics=(Diamond(),), n_grid=(2, 5, 9, 20))
        want = sweep_rows(config)
        solve = sdp.solve

        def fail_first(j, **kw):
            sols = solve(j, **kw)
            if len(j) == 2:  # the defect maps
                return sols
            failure = sdp.SdpSolution(np.nan, np.nan, np.inf, 1, "NumericalFailure")
            return sdp.SdpStack([failure, *sols[1:]])

        monkeypatch.setattr("trotopt.sdp.solve", fail_first)
        got = sweep_rows(config)
        assert got[1:] == want[1:]
        plan = TrotterPlan(config.terms, t=config.t, n=2, a=config.a)
        bound = min(2.0, 4 * j_distance(faulty_trotter(plan, config.noise), ideal_map(plan)))
        assert got[0][2:] == (bound, *want[0][3:5], "NumericalFailure")
