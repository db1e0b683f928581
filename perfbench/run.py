"""Benchmark of the trotopt command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src/``.  A run writes its workload's config under ``perfbench/out/``,
then runs the command as a fresh process, ``--jobs 1`` and one BLAS thread,
in whole rounds until the rounds have taken ``--seconds`` seconds (at least
one round).  ``--trace 1`` alternates untraced rounds with rounds under
``traced.py``.  Start-up is timed on separate launches of
``setup_probe.py``.  The first round's output is checked against the
reference computations (``checks.py``); every later round must repeat it
byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json without tracing, its per-layer metrics with tracing.  The
exit code is 0 when every check passed except the known heuristic bound
fault, 1 when another check failed, and 2 when there is nothing to run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5  # single launches spread 0.43-0.64 s; the run reports their median


@dataclass(frozen=True)
class Launch:
    wall: float  # seconds from spawn to reaped exit
    cpu: float  # user plus system seconds of the process
    rss_mb: float  # peak resident set
    code: int


def launch(argv: list[str], stderr_path: Path) -> Launch:
    """Run one child process to its end and measure it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def main(argv=None) -> int:
    if not (SRC / "trotopt" / "cli.py").is_file():
        print(f"error: no trotopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread, for this process's reference checks and for every
    # child; set before numpy loads.  With two threads on two cores the README
    # sweep took 23.1 s of wall time and 42.9 s of CPU; with one, 18.6 s and
    # 18.5 s.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import checks
    from traced import SPEC, layer_metrics
    from trotopt.hamiltonians import ising_chain
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    w = WORKLOADS[args.workload]
    rundir = OUT / w.name
    rundir.mkdir(parents=True, exist_ok=True)
    config, out, spans = rundir / "config.cfg", rundir / "output.txt", rundir / "spans.npz"
    stderr = rundir / "stderr.txt"
    config.write_text(w.config_text(), encoding="utf-8")
    cli_args = [w.command, "--config", str(config), "--seed", str(args.seed), "--jobs", "1", "--out", str(out)]
    plain = [sys.executable, "-m", "trotopt.cli", *cli_args]
    traced = [sys.executable, str(HERE / "traced.py"), str(spans), *cli_args]
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(config), str(args.seed)]

    def round_of(command):
        out.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        result = launch(command, stderr)
        if result.code != 0:
            print(f"{w.name}: exit {result.code}: {stderr.read_text()[-2000:]}", file=sys.stderr)
        return result, (out.read_text(encoding="utf-8") if result.code == 0 else None)

    launch(probe, stderr)  # warm-up: bytecode compiled, files cached
    setup, plain_rounds, outputs, layers = [], [], [], []
    measured = 0.0
    while not plain_rounds or measured < args.seconds:
        if len(setup) < SETUP_PROBES:
            setup.append(launch(probe, stderr).wall)
        result, text = round_of(plain)
        plain_rounds.append(result)
        outputs.append(text)
        measured += result.wall
        if args.trace:
            result, text = round_of(traced)
            outputs.append(text)
            if text is not None:
                layers.append(layer_metrics(spans))
            measured += result.wall
    while len(setup) < SETUP_PROBES:
        setup.append(launch(probe, stderr).wall)

    first = outputs[0]
    if first is None:
        verdicts = [checks.Verdict("output", "exit code", False)]
    else:
        verdicts = checks.check_output(w, ising_chain(w.qubits), first, args.seed)
    repeats = [text == first for text in outputs]
    verdicts += [checks.Verdict("output", "repeats the first round", ok) for ok in repeats[1:] if not ok]
    per_round = checks.failed_ops(verdicts, w.evals)
    attempted = w.evals * len(outputs)
    failed = sum(per_round if ok else w.evals for ok in repeats)
    problems = checks.unexpected(verdicts)
    for v in problems[:10]:
        print(f"{w.name}: check failed: {v.op}: {v.check}: {v.detail}", file=sys.stderr)

    median = statistics.median
    if args.trace:
        values = {name: median(layer[name] for layer in layers) for name in layers[0]} if layers else {}
    else:
        wall, setup_s = median(r.wall for r in plain_rounds), median(setup)
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "cpu_s": median(r.cpu for r in plain_rounds),
            "evals_per_s": w.evals / (wall - setup_s),
            "peak_rss_mb": median(r.rss_mb for r in plain_rounds),
        }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
