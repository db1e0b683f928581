"""The benchmark's traced run looks up every layer it reports on by name.

``BENCHMARK.json`` names per-layer metrics ``<module>.<function>.calls`` and
``<module>.<function>.s``; the traced run wraps ``trotopt.<module>.<function>``
with ``getattr``, so renaming or deleting one of these functions would break
every traced benchmark run.  It also stores the ``iterations`` of every
``sdp.solve`` result as one integer, so a stacked solve must report its
total there.
"""

import importlib
import json
from pathlib import Path

import numpy as np

from trotopt import sdp
from trotopt.linalg import choi_from_super, unitary_superop

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_every_traced_layer_is_a_package_function():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    layers = {name.rsplit(".", 1)[0] for name in names if name.endswith((".calls", ".s"))}
    assert {
        "metrics.j_distance",
        "metrics.diamond_distance_unitary",
        "channels.faulty_trotter",
        "channels.ideal_map",
    } <= layers
    for layer in sorted(layers):
        module, function = layer.rsplit(".", 1)
        found = getattr(importlib.import_module(f"trotopt.{module}"), function, None)
        assert callable(found), layer


def test_stacked_solve_reports_total_iterations():
    flip = unitary_superop(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    phase = unitary_superop(np.diag([1.0, 1.0j]))
    maps = np.array([flip - np.eye(4), 0.5 * (phase - flip)])
    result = sdp.solve(choi_from_super(maps), tol=1e-7)
    assert type(result.iterations) is int
    assert result.iterations == sum(sol.iterations for sol in result) > 0
