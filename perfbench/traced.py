"""Run one trotopt command with a span recorded around every call of the
public functions the benchmark reports on.

    python3 perfbench/traced.py SPANS_PATH COMMAND [CLI OPTIONS...]

The functions are the layers named by the per-layer metrics of
BENCHMARK.json (``<module>.<function>.calls`` or ``.s``).  Each function is
replaced at every name it is bound to in the trotopt modules, which is the
name its callers look it up by: ``experiments`` binds
``diamond_distance`` at import, while ``metrics`` reaches ``sdp.solve``
through the module.  A span is (layer, start, end, parent span, SDP
iterations); spans stay in memory and are written to SPANS_PATH as one
``.npz`` file when the command ends, together with the measured cost of one
wrapper call.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SOLVER = "sdp.solve"

# Layers wrapped, as "<module>.<function>" inside the trotopt package.
LAYERS = tuple(dict.fromkeys(name.rsplit(".", 1)[0] for name in PER_LAYER if name.endswith((".calls", ".s"))))


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack = [-1]

    def wrap(self, layer: int, fn, solver: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            iterations = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if solver:
                    iterations = result.iterations
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, iterations)

        return traced

    def install(self) -> None:
        """Wrap every layer at each name it is bound to in a trotopt module."""
        modules = [m for name, m in sys.modules.items() if name.startswith("trotopt.")]
        for layer, qualified in enumerate(LAYERS):
            module_name, name = qualified.rsplit(".", 1)
            original = getattr(sys.modules[f"trotopt.{module_name}"], name)
            wrapper = self.wrap(layer, original, solver=qualified == SOLVER)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def save(self, path: str, seconds_per_call: float) -> None:
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(
            path,
            layer=table[:, 0].astype(np.int64),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
            iterations=table[:, 4].astype(np.int64),
            seconds_per_call=seconds_per_call,
        )


def wrapper_seconds(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a bare call of a function that does
    nothing: the best of ``repeats`` timings of ``calls`` calls each."""

    def bare():
        return None

    wrapped = Tracer().wrap(0, bare)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            bare()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def layer_metrics(path) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one spans file: call
    counts, self times (span minus its child spans), SDP iterations, and the
    tracing overhead as spans times the measured cost of one wrapper."""
    with np.load(path) as data:
        layer, parent, iterations = data["layer"], data["parent"], data["iterations"]
        duration = data["end"] - data["start"]
        seconds_per_call = float(data["seconds_per_call"])
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = np.bincount(layer, weights=duration - children, minlength=len(LAYERS))
    calls = np.bincount(layer, minlength=len(LAYERS))
    solver = LAYERS.index(SOLVER)
    total = int(iterations[layer == solver].sum())
    values = {
        "sdp.solve.iterations": total,
        "sdp.solve.s_per_iter": float(self_time[solver]) / total if total else 0.0,
        "trace.overhead_s": len(layer) * seconds_per_call,
    }
    for name in PER_LAYER:
        if name not in values:
            qualified, kind = name.rsplit(".", 1)
            i = LAYERS.index(qualified)
            values[name] = int(calls[i]) if kind == "calls" else float(self_time[i])
    return {name: values[name] for name in PER_LAYER}


def main(argv: list[str]) -> int:
    from trotopt import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        tracer.save(argv[0], wrapper_seconds())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
