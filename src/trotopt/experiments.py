"""Seeded experiment harness behind the command line.

A plain-text key=value config resolves to an :class:`ExperimentConfig`;
experiment functions turn one into CSV rows (sweeps over the step number,
Monte-Carlo jitter runs) or text reports (optimum prediction, benchmark
check).  Everything is deterministic given the master seed: the jitter of
Monte-Carlo run ``r`` at step count ``n`` is drawn from a generator seeded
with ``SeedSequence(master_seed, spawn_key=(r, n))``, so results do not
depend on execution order or on the number of worker processes.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .channels import (
    NOISES,
    AveragedTimingJitter,
    Depolarizing,
    NoiseModel,
    TermSet,
    TimingJitter,
    TrotterPlan,
    complete_noise,
    faulty_trotter,
    ideal_map,
    sampled_trotter_unitary,
)
from .hamiltonians import ising_chain, terms_from_text
from .linalg import hermitian_exp, unitary_superop
from .metrics import (
    METRICS,
    Diamond,
    DiamondNormError,
    InducedTraceHeuristic,
    JDistance,
    Metric,
    j_distance,
    noise_benchmarks,
)
from .tradeoff import (
    TradeoffConstants,
    best_integer_steps,
    bound_curve,
    defect_strengths,
    distance_at_optimum,
    max_simulation_time,
    noise_tradeoff,
    optimal_steps,
)

SWEEP_HEADER = ("n", "metric", "exact_distance", "bound", "benchmark", "status")
MONTECARLO_HEADER = ("run_id", "n", "metric", "value")
# A grid spec is counted before any array is built, so a typo cannot ask for
# gigabytes.  Corner grid-points-1q (corners/run.py) sweeps every point.
MAX_GRID_POINTS = 100_000
# The ideal Trotter product (the depol and decoherence channels' base) and the
# averaged-jitter channel are powered as increments over the identity, so their
# trace residual (metrics.TRACE_ATOL = 1e-9, checked by both metrics) does not
# drift with n.  At n = MAX_STEPS on Ising chains of 2 to 4 qubits the ideal
# product's is at most 7.5e-14 (t 0.01 to 100) and the averaged channel's
# 5.5e-13 (sigma 0.01 and 0.05, t 0.1 and 1); on random dense terms of 1 to 4
# qubits the ideal product's is at most 1.3e-15 (t 0.1 and 1).  Corners steps-*
# run each noise model, diamond, heuristic and optimum --dmax at the limit.
MAX_STEPS = 500_000
# montecarlo draws each run into its row of one (runs, n, k) jitter table, at
# 8 bytes a draw, and turns it into gate angles in place: at the limit (80 MB)
# it peaks at 114-115 MB resident at k = 2, 156 MB at k = 20 (corners draws-*).
MAX_MONTECARLO_DRAWS = 10_000_000
# A grid chunk's diamond SDPs are solved as one stack per Choi support, whose
# Woodbury factors hold m^2 R complex entries per problem, at most d^6 on the
# full space (sdp.py); a chunk keeps d^6 per point within CHUNK_ENTRIES
# (1 MiB): 16 points at d = 4, one from d = 8 on.  The sector supports hold
# less: 512 entries for an ising:2 Trotter difference (m = R = 8), 32,768 for
# ising:3 (m = R = 32).  At d = 4 the stack saves the per-call cost of numpy on
# small arrays, most of a solve there; at d = 8 arithmetic dominates a solve
# (0.2 s and 40 MB on the ising:3 support, 0.9 s and 65 MB on a full one).
CHUNK_ENTRIES = 2**16


class ConfigError(ValueError):
    """Configuration text or values that cannot be turned into an experiment."""


def _check_grid_size(count: int):
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"n_grid has {count} points, above MAX_GRID_POINTS = {MAX_GRID_POINTS}")


def _check_steps(n: int):
    if n > MAX_STEPS:
        raise ConfigError(f"n_grid reaches {n} steps, above MAX_STEPS = {MAX_STEPS}")


def default_n_grid(lo: int = 1, hi: int = 1000, per_decade: int = 24) -> tuple[int, ...]:
    """Log-spaced integer grid, deduplicated, ``per_decade`` points per decade."""
    if lo < 1 or hi < lo:
        raise ConfigError(f"grid bounds must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
    if per_decade < 1:
        raise ConfigError(f"per-decade count must be >= 1, got {per_decade}")
    _check_steps(hi)
    decades = np.log10(hi / lo)
    count = max(2, int(round(decades * per_decade)) + 1)
    _check_grid_size(count)
    raw = np.round(np.logspace(np.log10(lo), np.log10(hi), count)).astype(int)
    return tuple(int(n) for n in np.unique(raw))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Resolved inputs of one experiment.

    ``terms`` are the Hamiltonian summands, one shared :class:`TermSet`;
    ``label`` a short human-readable tag for them ("ising:2" or "custom").
    ``n_grid`` lists the step numbers to visit, strictly increasing.
    ``master_seed`` feeds every derived generator; ``out`` is the CSV
    destination (``None`` writes to stdout).
    """

    terms: TermSet
    label: str
    noise: NoiseModel
    t: float = 0.1
    a: float = 1.0
    n_grid: tuple[int, ...] = field(default_factory=default_n_grid)
    metrics: tuple[Metric, ...] = (JDistance(),)
    runs: int = 100
    master_seed: int = 0
    sdp_tol: float = 1e-7
    out: str | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "terms", TermSet(self.terms))
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError(
                f"unknown noise model {self.noise!r} (known: {', '.join(NOISES)})"
            )
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ConfigError(f"t must be finite and >= 0, got {self.t}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ConfigError(f"a must be finite and > 0, got {self.a}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ConfigError("n_grid must not be empty")
        if grid[0] < 1:
            raise ConfigError(f"n_grid entries must be >= 1, got {grid[0]}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        _check_steps(grid[-1])
        object.__setattr__(self, "n_grid", grid)
        if not self.metrics:
            raise ConfigError("at least one metric is required")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        if not (math.isfinite(self.sdp_tol) and self.sdp_tol > 0):
            raise ConfigError(f"sdp_tol must be finite and > 0, got {self.sdp_tol}")
        for metric in self.metrics:
            if self.dim > metric.max_dim:
                raise ConfigError(
                    f"metric {metric.name} supports dimension <= {metric.max_dim} "
                    f"({int(np.log2(metric.max_dim))} qubits), got dimension {self.dim}"
                )

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]


# -- config text ---------------------------------------------------------

_KNOWN_KEYS = (
    "hamiltonian",
    "t",
    "a",
    "n_grid",
    "noise",
    "metrics",
    "runs",
    "seed",
    "sdp_tol",
    "out",
)


def parse_config_text(text: str) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` starts a comment.

    Returns the raw string values; unknown or repeated keys fail with the
    offending line number.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} (known: {', '.join(_KNOWN_KEYS)})"
            )
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def parse_hamiltonian_setting(value: str) -> tuple[str, tuple[np.ndarray, ...]]:
    """Resolve the ``hamiltonian`` setting to a label and term list.

    Accepts the preset ``ising:N`` (optionally ``ising:N:periodic``) or an
    inline Hamiltonian description in the text format of
    :func:`trotopt.hamiltonians.terms_from_text`.
    """
    value = value.strip()
    if value.startswith("ising:"):
        parts = value.split(":")
        if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "periodic"):
            raise ConfigError(
                f"preset must look like 'ising:N' or 'ising:N:periodic', got {value!r}"
            )
        try:
            n_sites = int(parts[1])
        except ValueError:
            raise ConfigError(f"preset site count must be an integer, got {parts[1]!r}")
        terms = ising_chain(n_sites, periodic=len(parts) == 3)
        return value, tuple(terms)
    return "custom", tuple(terms_from_text(value))


def parse_noise(value: str) -> NoiseModel:
    """Parse ``model:parameter``, e.g. ``jitter:0.05`` or ``depol:1e-3``."""
    name, sep, param = value.partition(":")
    if not sep:
        raise ConfigError(f"noise must look like 'model:parameter', got {value!r}")
    try:
        strength = float(param)
    except ValueError:
        raise ConfigError(f"noise parameter must be a number, got {param!r}")
    if name not in NOISES:
        raise ConfigError(f"unknown noise model {name!r} (known: {', '.join(NOISES)})")
    try:
        return NOISES[name](strength)
    except ValueError as exc:
        raise ConfigError(f"noise {value!r}: {exc}")


def parse_metrics(value: str) -> tuple[Metric, ...]:
    """Parse a comma-separated metric list out of ``j, diamond, heuristic``."""
    out = []
    for name in value.split(","):
        name = name.strip()
        if name not in METRICS:
            raise ConfigError(f"unknown metric {name!r} (known: {', '.join(sorted(METRICS))})")
        out.append(METRICS[name]())
    if not out:
        raise ConfigError("metrics must name at least one metric")
    return tuple(out)


def parse_n_grid(value: str) -> tuple[int, ...]:
    """Parse a step grid: ``1,2,4,8``, ``range:1:20`` or ``log:1:1000:24``."""
    value = value.strip()
    if value.startswith("log:"):
        parts = value.split(":")
        if len(parts) != 4:
            raise ConfigError(f"log grid must look like 'log:lo:hi:per_decade', got {value!r}")
        try:
            lo, hi, per_decade = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError(f"log grid bounds must be integers, got {value!r}")
        return default_n_grid(lo, hi, per_decade)
    if value.startswith("range:"):
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range grid must look like 'range:lo:hi', got {value!r}")
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"range bounds must be integers, got {value!r}")
        if hi < lo:
            raise ConfigError(f"range is empty: {value!r}")
        _check_grid_size(hi - lo + 1)
        _check_steps(hi)
        return tuple(range(lo, hi + 1))
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise ConfigError(f"n_grid must be a comma list of integers, got {value!r}")


def build_config(raw: dict[str, str], **overrides) -> ExperimentConfig:
    """Turn raw config strings plus keyword overrides into an ExperimentConfig.

    Overrides use the ExperimentConfig field names and win over file values;
    ``None`` overrides are ignored.
    """
    kwargs = {}
    label, terms = parse_hamiltonian_setting(raw.get("hamiltonian", "ising:2"))
    kwargs["label"] = label
    kwargs["terms"] = terms
    kwargs["noise"] = parse_noise(raw.get("noise", "avg-jitter:0.01"))
    for key, cast in (("t", float), ("a", float), ("runs", int), ("sdp_tol", float)):
        if key in raw:
            try:
                kwargs[key] = cast(raw[key])
            except ValueError:
                raise ConfigError(f"{key} must be a {cast.__name__}, got {raw[key]!r}")
    if "seed" in raw:
        try:
            kwargs["master_seed"] = int(raw["seed"])
        except ValueError:
            raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
    if "n_grid" in raw:
        kwargs["n_grid"] = parse_n_grid(raw["n_grid"])
    if "metrics" in raw:
        kwargs["metrics"] = parse_metrics(raw["metrics"])
    if "out" in raw:
        kwargs["out"] = raw["out"]
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc))


def config_hash(config: ExperimentConfig) -> str:
    """Short stable digest of everything that determines the outputs."""
    digest = hashlib.sha256()
    for term in config.terms:
        digest.update(np.ascontiguousarray(term).tobytes())
    fields = (
        config.label,
        repr(config.noise),
        f"{config.t!r}",
        f"{config.a!r}",
        config.n_grid,
        tuple(repr(m) for m in config.metrics),
        config.runs,
        config.master_seed,
        f"{config.sdp_tol!r}",
    )
    digest.update(repr(fields).encode())
    return digest.hexdigest()[:12]


def seeded_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one experiment point, independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


# -- distances and bounds ------------------------------------------------


def _distances(faulty, ideal, metric: Metric, sdp_tol: float) -> list[tuple[float, str]]:
    """(value, status) of each pair of two ``(B, d^2, d^2)`` stacks of
    channels, from one call of the metric.  An SDP failure is reported in the
    status of its map, whose value is then a certified upper bound: the least
    of 2, ``d`` times the J-distance (J <= diamond <= d J) and the best primal
    value, if any; the other maps of the stack keep their values."""
    try:
        return [(float(value), "ok") for value in metric.distance(faulty, ideal, sdp_tol)]
    except DiamondNormError as exc:
        d = round(np.sqrt(faulty.shape[-1]))
        return [
            (float(value), "ok")
            if sol.status == "Optimal"
            else (float(np.fmin(min(2.0, d * j_distance(ta, tb)), sol.primal)), sol.status)
            for sol, value, ta, tb in zip(exc.solutions, exc.values, faulty, ideal)
        ]


def _tradeoff(config: ExperimentConfig, strengths) -> TradeoffConstants:
    return noise_tradeoff(config.noise, strengths, config.t, config.a, config.dim)


def tradeoff_coefficients(config: ExperimentConfig, metric: Metric) -> tuple[float, float]:
    """(step_cost, noise_cost) of the analytic bound for this config."""
    c = _tradeoff(config, defect_strengths(config.terms, metric, config.sdp_tol))
    return c.step_cost, c.noise_cost


def _map_grid(chunk_rows, config: ExperimentConfig, jobs: int, *args) -> list[tuple]:
    """Rows of ``chunk_rows(config, *args, indices)`` over contiguous chunks
    of grid indices, on up to ``jobs`` worker processes, never more than
    there are chunks or CPUs; rows come back in grid order either way.

    A chunk holds at most ``CHUNK_ENTRIES // d**6`` points (at least one),
    and fewer when that leaves a worker idle.
    """
    points = len(config.n_grid)
    workers = min(jobs, points, os.cpu_count() or 1)
    size = max(1, min(CHUNK_ENTRIES // config.dim**6, -(-points // workers)))
    chunks = [range(lo, min(lo + size, points)) for lo in range(0, points, size)]
    workers = min(workers, len(chunks))
    task = partial(chunk_rows, config, *args)
    if workers > 1:
        # imported here: the pool loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, chunks))
    else:
        results = map(task, chunks)
    return [row for rows in results for row in rows]


# -- sweep ---------------------------------------------------------------


def sweep_chunk(
    config: ExperimentConfig, bounds: dict, ideal: np.ndarray, indices: range
) -> list[tuple]:
    """All CSV rows for a chunk of grid indices: the chunk's channels are
    built first, then each metric scores them against the ``n``-independent
    ``ideal`` map in one call; ``bounds`` maps metric name to the
    precomputed bound constants."""
    steps = [config.n_grid[index] for index in indices]
    plans = [TrotterPlan(config.terms, t=config.t, n=n, a=config.a) for n in steps]
    faulty = np.array([faulty_trotter(plan, config.noise) for plan in plans])
    ideal = np.broadcast_to(ideal, faulty.shape)
    rows = []
    for metric in config.metrics:
        scored = _distances(faulty, ideal, metric, config.sdp_tol)
        for n, (value, status) in zip(steps, scored):
            bound = bound_curve(n, bounds[metric.name])
            rows.append((n, metric.name, value, bound, metric.benchmark(config.dim), status))
    return rows


def _sweep(config: ExperimentConfig, bounds: dict, jobs: int) -> list[tuple]:
    ideal = ideal_map(TrotterPlan(config.terms, t=config.t, n=1, a=config.a))
    rows = _map_grid(sweep_chunk, config, jobs, bounds, ideal)
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def sweep_rows(config: ExperimentConfig, jobs: int = 1) -> list[tuple]:
    """Rows of the step-number sweep, sorted by (n, metric)."""
    if isinstance(config.noise, TimingJitter):
        raise ConfigError(
            "sweep needs a channel per step count, and sampled jitter has none: "
            "use noise = avg-jitter:SIGMA for the averaged channel, or the "
            "montecarlo command for sampled runs"
        )
    bounds = {
        metric.name: _tradeoff(config, defect_strengths(config.terms, metric, config.sdp_tol))
        for metric in config.metrics
    }
    return _sweep(config, bounds, jobs)


# -- Monte-Carlo runs ----------------------------------------------------


def montecarlo_chunk(config: ExperimentConfig, indices: range) -> list[tuple]:
    """All rows for a chunk of grid indices: at each point every run and
    their mean, and the averaged map.

    Point by point, all runs are sampled in one batch (the draw table can
    reach 80 MB, so one point's is held at a time) and scored as one stack
    under every metric; the chunk's averaged maps are scored together at the
    end, in one call per metric.
    """
    sigma = config.noise.sigma
    ideal_u = hermitian_exp(sum(config.terms[1:], start=config.terms[0].copy()), config.t)
    steps = [config.n_grid[index] for index in indices]
    averaged = []
    rows = []
    for n in steps:
        plan = TrotterPlan(config.terms, t=config.t, n=n, a=config.a)
        averaged.append(faulty_trotter(plan, AveragedTimingJitter(sigma)))
        rngs = [seeded_rng(config.master_seed, run, n) for run in range(config.runs)]
        unitaries = sampled_trotter_unitary(plan, sigma, rngs)
        for metric in config.metrics:
            values = metric.unitary_distance(unitaries, ideal_u)
            rows.extend((str(run), n, metric.name, float(v)) for run, v in enumerate(values))
            rows.append(("mean", n, metric.name, float(np.mean(values))))
    averaged = np.array(averaged)
    ideal = np.broadcast_to(unitary_superop(ideal_u), averaged.shape)
    for metric in config.metrics:
        # on SDP failure the recorded value is a certified upper bound
        scored = _distances(averaged, ideal, metric, config.sdp_tol)
        rows.extend(("averaged", n, metric.name, value) for n, (value, _) in zip(steps, scored))
    return rows


def montecarlo_rows(config: ExperimentConfig, jobs: int = 1) -> list[tuple]:
    """Rows of the Monte-Carlo experiment, sorted by (n, metric, run id).

    Aggregate rows sort after the numbered runs: "averaged" (distance of the
    mean channel) then "mean" (mean of the per-run distances).
    """
    if not isinstance(config.noise, TimingJitter):
        raise ConfigError(
            "montecarlo needs sampled timing jitter noise (noise = jitter:SIGMA)"
        )
    draws = config.runs * config.n_grid[-1] * len(config.terms)
    if draws > MAX_MONTECARLO_DRAWS:
        raise ConfigError(
            f"montecarlo would draw runs * n * k = {draws} jitter values at n = "
            f"{config.n_grid[-1]}, above MAX_MONTECARLO_DRAWS = {MAX_MONTECARLO_DRAWS}"
        )
    rows = _map_grid(montecarlo_chunk, config, jobs)

    def run_key(run_id: str):
        return (0, int(run_id), "") if run_id.isdigit() else (1, 0, run_id)

    rows.sort(key=lambda r: (r[1], r[2], run_key(r[0])))
    return rows


# -- CSV -----------------------------------------------------------------


def format_csv(header, rows, config: ExperimentConfig | None = None) -> str:
    """Render rows to CSV text with the config-hash comment line on top."""
    buf = io.StringIO()
    if config is not None:
        buf.write(f"# config {config_hash(config)} trotopt {__version__}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_format_cell(cell) for cell in row) + "\n")
    return buf.getvalue()


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.12g}"
    return str(cell)


# -- reports -------------------------------------------------------------


def optimum_report(config: ExperimentConfig, dmax: float | None = None, jobs: int = 1) -> str:
    """Predicted and measured optimal step numbers, one block per metric."""
    noise = config.noise
    if not isinstance(noise, (AveragedTimingJitter, Depolarizing)):
        raise ConfigError(
            "optimum prediction needs averaged timing jitter or depolarizing noise"
        )
    if dmax is not None:
        if not isinstance(noise, AveragedTimingJitter):
            raise ConfigError("--dmax needs averaged timing jitter noise (avg-jitter:SIGMA)")
        sigma = config.a * noise.sigma
    strengths = {
        metric.name: defect_strengths(config.terms, metric, config.sdp_tol)
        for metric in config.metrics
    }
    bounds = {name: _tradeoff(config, s) for name, s in strengths.items()}
    rows = _sweep(config, bounds, jobs)
    lines = [
        f"hamiltonian {config.label} (dim {config.dim}), t = {config.t:g}, a = {config.a:g}",
        f"noise {noise!r}",
    ]
    for metric in config.metrics:
        commutator_strength, jitter_strength = strengths[metric.name]
        step_cost, noise_cost = bounds[metric.name].step_cost, bounds[metric.name].noise_cost
        lines.append(f"metric {metric.name}:")
        lines.append(f"  commutator_strength = {commutator_strength:.6g}")
        lines.append(f"  jitter_strength     = {jitter_strength:.6g}")
        lines.append(f"  step_cost = {step_cost:.6g}, noise_cost = {noise_cost:.6g}")
        if step_cost > 0.0 and noise_cost > 0.0:
            lines.append(f"  real optimal steps    = {optimal_steps(step_cost, noise_cost):.6g}")
            lines.append(f"  integer optimal steps = {best_integer_steps(step_cost, noise_cost)}")
            lines.append(
                f"  bound at optimum      = {distance_at_optimum(step_cost, noise_cost):.6g}"
            )
        else:
            lines.append("  no finite optimum")
        if dmax is not None and min(commutator_strength, jitter_strength) > 0.0 and sigma > 0.0:
            horizon = max_simulation_time(dmax, commutator_strength, jitter_strength, sigma)
            lines.append(f"  max simulation time (budget {dmax:g}) = {horizon:.6g}")
        # grid argmin of the exact distance; the first of equal values wins
        n, _, value, *_ = min((r for r in rows if r[1] == metric.name), key=lambda r: r[2])
        lines.append(f"  measured optimal steps    = {n}")
        lines.append(f"  measured minimum distance = {value:.6g}")
    return "\n".join(lines) + "\n"


def benchmark_report(dim: int, sdp_tol: float = 1e-7) -> tuple[str, bool]:
    """Closed-form noise benchmarks against live metric evaluations.

    Returns the report text and whether every live value matched: J to
    1e-10, diamond to max(1e-6, 10 * sdp_tol), the heuristic to 1e-4.
    """
    unstabilized, stabilized = noise_benchmarks(dim)
    ident = np.eye(dim * dim, dtype=complex)
    noisy = complete_noise(dim)
    lines = [
        f"dimension {dim}",
        f"  unstabilized benchmark 2 - 2/d   = {unstabilized:.12g}",
        f"  stabilized benchmark   2 - 2/d^2 = {stabilized:.12g}",
    ]
    all_ok = True
    for label, metric, tol in (
        ("J-distance", JDistance(), 1e-10),
        ("diamond distance", Diamond(), max(1e-6, 10.0 * sdp_tol)),
        ("heuristic value", InducedTraceHeuristic(), 1e-4),
    ):
        live = metric.distance(ident, noisy, sdp_tol)
        delta = abs(live - metric.benchmark(dim))
        ok = delta <= tol
        all_ok = all_ok and ok
        lines.append(
            f"  live {label:<16} = {live:.12g}  (|delta| = {delta:.2e}, "
            f"{'ok' if ok else f'exceeds {tol:g}'})"
        )
    lines.append("all checks passed" if all_ok else "CHECKS FAILED")
    return "\n".join(lines) + "\n", all_ok
