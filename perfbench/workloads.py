"""The benchmark's workloads: one trotopt command on one written config each.
Why each was chosen is recorded in BENCHMARK.json and README.md.

Every workload evolves an Ising chain for time ``T`` under timing jitter of
width ``SIGMA``.  The seed reaches the program only through ``--seed``; it
changes the sampled jitter of ``montecarlo`` and leaves the averaged-jitter
commands, which draw nothing, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from reference import log_grid

T = 0.1  # evolution time
SIGMA = 0.01  # width of the Gaussian timing error of each gate


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # sweep | montecarlo | optimum
    qubits: int
    noise: str  # avg-jitter | jitter
    metrics: tuple[str, ...]
    grid: tuple[int, ...]
    grid_text: str
    runs: int = 1

    @property
    def dim(self) -> int:
        return 2**self.qubits

    @property
    def evals(self) -> int:
        """Distance values one command computes: a CSV data row of ``sweep``,
        a run or aggregate row of ``montecarlo``, a grid point or defect-map
        norm of ``optimum``."""
        points = len(self.grid) * len(self.metrics)
        if self.command == "montecarlo":
            return points * (self.runs + 2)
        if self.command == "optimum":
            return points + 2 * len(self.metrics)
        return points

    def config_text(self) -> str:
        lines = [
            f"hamiltonian = ising:{self.qubits}",
            f"t = {T!r}",
            f"noise = {self.noise}:{SIGMA!r}",
            f"metrics = {','.join(self.metrics)}",
            f"n_grid = {self.grid_text}",
        ]
        if self.command == "montecarlo":
            lines.append(f"runs = {self.runs}")
        return "\n".join(lines) + "\n"


def _log(lo: int, hi: int, per_decade: int) -> dict:
    return {"grid": tuple(log_grid(lo, hi, per_decade)), "grid_text": f"log:{lo}:{hi}:{per_decade}"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-readme",
            command="sweep",
            qubits=2,
            noise="avg-jitter",
            metrics=("j", "diamond"),
            **_log(1, 64, 8),
        ),
        Workload(
            name="montecarlo-ising2",
            command="montecarlo",
            qubits=2,
            noise="jitter",
            metrics=("j", "diamond"),
            grid=(16, 128),
            grid_text="16,128",
            runs=200,
        ),
        Workload(
            name="optimum-ising4",
            command="optimum",
            qubits=4,
            noise="avg-jitter",
            metrics=("j",),
            **_log(1, 1000, 24),
        ),
        Workload(
            name="sweep-heuristic-ising3",
            command="sweep",
            qubits=3,
            noise="avg-jitter",
            metrics=("j", "heuristic"),
            **_log(1, 64, 8),
        ),
    )
}
