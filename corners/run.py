"""Corner suite: the limits of the trotopt command line, each run at its edge.

    python3 corners/run.py [--only NAME ...] [--src PATH]

Configs that pass every config-time check have failed late, after minutes
of work, at the limits below: the trace check at ``MAX_STEPS`` on dense
terms, and the unitarity check at ``MAX_MONTECARLO_DRAWS``.  Each corner is
one command on one config at such a limit, or at one that has not failed yet
(``MAX_GRID_POINTS``; the see-saw and the J trace norm at 4 qubits), with the
limit's value read from the package under test.  The corners run one at a
time, each as its own child process with one BLAS thread, an address-space
limit (``RLIMIT_AS``) of ``LIMIT_MB`` and a wall-time cap of ``TIMEOUT_S``.
A corner passes when its command exits 0, or when it exits 2, a refusal at
config time, within ``REFUSAL_S`` seconds.  It fails on any other exit, on a
traceback in its standard error and on the time cap.

One line per corner goes to standard output: the verdict, the exit code, the
seconds, the peak resident set and the last line of standard error.  The
exit code is 1 when a corner failed.  The two draw-limit corners take a few
minutes, so the suite is not part of the tests.  ``--src`` runs the package
of another checkout, for instance to show that a corner failed before a fix.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFUSAL_S = 2.0
LIMIT_MB = 2048
TIMEOUT_S = 600.0

# twelve dense 4-qubit Pauli strings in two groups
DENSE4 = (
    "4 | x... ; .y.. ; z.z. ; ...x ; 0.7 xy.. ; .zz."
    " | .zx. ; y..z ; ..yy ; 0.3 xxxx ; zyxz ; x.y."
)
# twenty 4-qubit terms, one Pauli string each
TWENTY4 = (
    "4 | x... | .y.. | ..z. | ...x | xy.. | .zz. | ..yy | z..x | .zx. | y..z"
    " | xx.. | .yy. | ..zz | x..y | zy.. | .xz. | ..xy | y.z. | .x.z | zzzz"
)


@dataclass(frozen=True)
class Corner:
    name: str
    command: str  # sweep | montecarlo | optimum
    hamiltonian: str
    terms: int
    noise: str
    metrics: str = "j"
    t: float = 0.1
    grid: str = "1,{MAX_STEPS}"
    args: tuple[str, ...] = ()

    def config(self, limits: dict[str, int]) -> str:
        """The config at the corner: the grid spec with the limits filled in
        (by default it reaches ``MAX_STEPS``), and for a Monte-Carlo run
        ``runs * n * k = MAX_MONTECARLO_DRAWS`` draws with ``n <= MAX_STEPS``."""
        grid, runs = self.grid.format(**limits), 1
        if self.command == "montecarlo":
            max_steps, max_draws = limits["MAX_STEPS"], limits["MAX_MONTECARLO_DRAWS"]
            runs = max(1, max_draws // (max_steps * self.terms))
            grid = str(max_draws // (runs * self.terms))
        return (
            f"hamiltonian = {self.hamiltonian}\nt = {self.t!r}\nnoise = {self.noise}\n"
            f"metrics = {self.metrics}\nn_grid = {grid}\nruns = {runs}\nseed = 3\n"
        )


LIMITS = ("MAX_STEPS", "MAX_MONTECARLO_DRAWS", "MAX_GRID_POINTS")
CORNERS = (
    # the ideal product that both depolarizing models build on drifted past
    # the trace check here until it was powered as increments
    Corner("steps-depol-dense4", "sweep", DENSE4, 2, "depol:1e-9"),
    Corner("steps-decoherence-dense4", "sweep", DENSE4, 2, "decoherence:0.01"),
    Corner("steps-avg-jitter-ising4", "sweep", "ising:4", 2, "avg-jitter:0.01"),
    Corner("steps-diamond-ising3", "sweep", "ising:3", 2, "avg-jitter:0.01", "j,diamond"),
    # the see-saw and the J trace norm at their largest size, d = 16
    Corner("steps-heuristic-ising4", "sweep", "ising:4", 2, "avg-jitter:0.01", "j,heuristic"),
    Corner("steps-optimum-dmax-ising4", "optimum", "ising:4", 2, "avg-jitter:0.01",
           grid="log:1:{MAX_STEPS}:24", args=("--dmax", "0.1")),
    # every admitted grid point, at one qubit so that the count dominates
    Corner("grid-points-1q", "sweep", "1 | x | z", 2, "avg-jitter:0.01",
           grid="range:1:{MAX_GRID_POINTS}"),
    # sampled runs drifted off unitarity linearly in n k until their gates
    # were carried as increments; the twenty-term run exited 2 after minutes
    Corner("draws-ising4-k2", "montecarlo", "ising:4", 2, "jitter:0.01"),
    Corner("draws-dense4-k20", "montecarlo", TWENTY4, 20, "jitter:0.01", t=1.0),
)


def _limit_memory():
    size = LIMIT_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def run_corner(corner: Corner, env: dict, limits: dict[str, int], scratch: Path) -> bool:
    config = scratch / f"{corner.name}.cfg"
    config.write_text(corner.config(limits), encoding="utf-8")
    argv = [sys.executable, "-m", "trotopt.cli", corner.command, "--config", str(config)]
    argv += corner.args
    argv += ["--out", str(scratch / f"{corner.name}.out")]
    with open(scratch / f"{corner.name}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
            preexec_fn=_limit_memory,
        )
        # poll, so that the child's own rusage comes back with its exit status
        while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.perf_counter() - start > TIMEOUT_S:
                proc.kill()
                reaped = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
        seconds = time.perf_counter() - start
        _, status, usage = reaped
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if seconds > TIMEOUT_S:
        verdict = "timeout"
    elif "Traceback" in stderr:
        verdict = "traceback"
    elif code == 0 or (code == 2 and seconds <= REFUSAL_S):
        verdict = "pass"
    else:
        verdict = "late-exit"
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    peak = usage.ru_maxrss / 1024.0
    print(f"{verdict:9} {corner.name:26} exit={code} {seconds:7.1f} s {peak:6.0f} MB  {last}",
          flush=True)
    return verdict == "pass"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=[c.name for c in CORNERS])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources to run")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    query = f"from trotopt import experiments as e; print({', '.join('e.' + n for n in LIMITS)})"
    values = subprocess.check_output([sys.executable, "-c", query], env=env).split()
    limits = dict(zip(LIMITS, map(int, values)))
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="corners-") as scratch:
        for corner in CORNERS:
            if not args.only or corner.name in args.only:
                failed += not run_corner(corner, env, limits, Path(scratch))
    print(f"{failed} failed, {time.perf_counter() - start:.1f} s in total")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
