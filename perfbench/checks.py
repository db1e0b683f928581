"""Checks of trotopt's outputs against the reference computations of
:mod:`reference` and against properties the method must have.

Each check yields a :class:`Verdict` on one operation: a distance value the
command computed, named like ``n=8 j`` (a sweep row), ``n=16 diamond run 3``
(a Monte-Carlo row) or ``defect jitter`` (a defect-map norm of ``optimum``).
A verdict on the operation ``output`` concerns the whole output, such as
its header or row order; when one fails, every operation counts as failed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

import reference as ref
from workloads import SIGMA, T

SWEEP_HEADER = "n,metric,exact_distance,bound,benchmark,status"
MONTECARLO_HEADER = "run_id,n,metric,value"
CONFIG_LINE = re.compile(r"# config [0-9a-f]{12} trotopt \S+")

REFERENCE_TOL = 1e-9  # averaged-jitter J-distance against the quadrature reference
UNITARY_TOL = 1e-10  # per-run J and diamond values against the closed forms
SDP_TOL = 1e-7  # the program's default certified duality gap for diamond solves
ROUNDING_TOL = 1e-12  # absolute; CSV cells carry 12 significant digits
RELATIVE_ROUNDING_TOL = 1e-11


@dataclass(frozen=True)
class Verdict:
    op: str
    check: str
    ok: bool
    detail: str = ""

    @property
    def known_fault(self) -> bool:
        """A heuristic row whose bound lies below its exact distance.

        ``tradeoff.defect_strengths`` under the heuristic metric returns
        defect norms 4-5x too small, so this check fails on every heuristic
        row until that is fixed; it is counted as failed without making the
        run incorrect."""
        return self.check == "bound" and self.op.endswith(" heuristic")


def _close(op: str, check: str, value: float, want: float, tol: float) -> Verdict:
    err = abs(value - want)
    return Verdict(op, check, bool(err <= tol), f"{value!r} vs {want!r} (|diff| {err:.3g} > {tol:g})")


def _le(op: str, check: str, lo: float, hi: float, tol: float) -> Verdict:
    return Verdict(op, check, bool(lo <= hi + tol), f"{lo!r} > {hi!r}")


def _printed_tol(printed: float, digits: int = 6) -> float:
    """Half a unit in the last of ``digits`` significant digits, plus slack
    for the reference's own roundoff."""
    if printed == 0.0:
        return 1e-12
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - digits + 1) * 1.001 + 1e-12


def _csv_body(text: str, header: str) -> tuple[list[list[str]], list[Verdict]]:
    lines = text.splitlines()
    ok = len(lines) >= 2 and bool(CONFIG_LINE.fullmatch(lines[0])) and lines[1] == header
    return [line.split(",") for line in lines[2:]], [Verdict("output", "header", ok, "\n".join(lines[:2]))]


def _defect_strengths(terms) -> tuple[float, float]:
    return ref.commutator_defect_j_norm(terms), ref.jitter_defect_j_norm(terms)


# -- sweep ------------------------------------------------------------------


def check_sweep(w, terms, text: str) -> list[Verdict]:
    """Rows of ``sweep`` under averaged jitter, metrics out of j, diamond
    and heuristic (the heuristic only next to j)."""
    cells, verdicts = _csv_body(text, SWEEP_HEADER)
    rows = {}
    keys = []
    for f in cells:
        try:
            n, metric, exact, bound, bench, status = int(f[0]), f[1], *map(float, f[2:5]), f[5]
            if len(f) != 6:
                raise ValueError
        except (ValueError, IndexError):
            verdicts.append(Verdict("output", "row format", False, ",".join(f)))
            continue
        keys.append((n, metric))
        rows[(n, metric)] = (exact, bound, bench, status)
    expected = [(n, m) for n in w.grid for m in sorted(w.metrics)]
    verdicts.append(Verdict("output", "rows in order", keys == expected, f"{len(keys)} rows"))

    d = w.dim
    commutator, jitter = _defect_strengths(terms)
    step_cost, noise_cost = commutator * T**2 / 2.0, jitter * SIGMA**2
    deltas = {n: ref.averaged_jitter_delta(terms, T, n, SIGMA) for n in w.grid}
    for n, m in expected:
        op = f"n={n} {m}"
        if (n, m) not in rows:
            verdicts.append(Verdict(op, "present", False))
            continue
        exact, bound, bench, status = rows[(n, m)]
        verdicts.append(Verdict(op, "status", status == "ok", status))
        want_bench = 2.0 - 2.0 / d if m == "heuristic" else 2.0 - 2.0 / d**2
        verdicts.append(_close(op, "benchmark", bench, want_bench, ROUNDING_TOL))
        verdicts.append(_le(op, "bound", exact, bound, SDP_TOL if m == "diamond" else ROUNDING_TOL))
        if m == "j":
            want = ref.trace_norm_hermitian(deltas[n])
            verdicts.append(_close(op, "reference J", exact, want, REFERENCE_TOL))
            want = step_cost / n + noise_cost * n
            verdicts.append(_close(op, "reference bound", bound, want, RELATIVE_ROUNDING_TOL * want))
            continue
        if (n, "j") not in rows:
            verdicts.append(Verdict(op, "J row", False))
            continue
        j = rows[(n, "j")][0]
        verdicts.extend(_norm_bounds(op, m, exact, j, d, deltas[n]))
    return verdicts


def _norm_bounds(op: str, metric: str, value: float, j: float, d: int, delta: np.ndarray) -> list[Verdict]:
    """Bounds on a diamond or heuristic value of ``Delta``, whose J-norm is
    ``j`` and whose Choi state is ``delta``.

    Diamond: ``J <= diamond``, the reference see-saw's lower bound, the
    reference Jordan-split upper bound and ``min(2, d J)``.  Heuristic (a
    search over pure inputs without ancilla): ``J / d``, since the
    unstabilized norm is at least ``diamond / d``, the best computational
    basis input, and the same two upper bounds.
    """
    upper = ref.diamond_upper_bound(delta)
    verdicts = [
        _le(op, f"{metric} <= reference upper bound", value, upper, SDP_TOL),
        _le(op, f"{metric} <= min(2, d J)", value, min(2.0, d * j), SDP_TOL),
    ]
    if metric == "diamond":
        verdicts.append(_le(op, "J <= diamond", j, value, SDP_TOL))
        verdicts.append(_le(op, "see-saw lower bound <= diamond", ref.diamond_lower_bound(delta), value, SDP_TOL))
    else:
        verdicts.append(_le(op, "J / d <= heuristic", j / d, value, ROUNDING_TOL))
        basis = ref.basis_input_lower_bound(delta)
        verdicts.append(_le(op, "basis-input lower bound <= heuristic", basis, value, ROUNDING_TOL))
    return verdicts


# -- montecarlo -------------------------------------------------------------


def check_montecarlo(w, terms, text: str, seed: int) -> list[Verdict]:
    """Rows of ``montecarlo`` with metrics j and diamond."""
    cells, verdicts = _csv_body(text, MONTECARLO_HEADER)
    rows = {}
    keys = []
    for f in cells:
        try:
            run, n, metric, value = f[0], int(f[1]), f[2], float(f[3])
            if len(f) != 4:
                raise ValueError
        except (ValueError, IndexError):
            verdicts.append(Verdict("output", "row format", False, ",".join(f)))
            continue
        keys.append((n, metric, run))
        rows[(n, metric, run)] = value
    run_ids = [str(r) for r in range(w.runs)] + ["averaged", "mean"]
    expected = [(n, m, r) for n in w.grid for m in sorted(w.metrics) for r in run_ids]
    verdicts.append(Verdict("output", "rows in order", keys == expected, f"{len(keys)} rows"))
    missing = [k for k in expected if k not in rows]
    for n, m, r in missing:
        verdicts.append(Verdict(f"n={n} {m} run {r}", "present", False))
    if missing:
        return verdicts

    d = w.dim
    ideal = ref.gate(sum(terms[1:], start=np.array(terms[0], dtype=complex)), T)
    for n in w.grid:
        u = ref.sampled_unitaries(terms, T, n, SIGMA, seed, w.runs)
        delta = ref.averaged_jitter_delta(terms, T, n, SIGMA)
        closed_form = {"j": ref.unitary_j(u, ideal), "diamond": ref.unitary_diamond(u, ideal)}
        j_runs = [rows[(n, "j", str(r))] for r in range(w.runs)]
        j_avg = rows[(n, "j", "averaged")]
        for m in w.metrics:
            values = [rows[(n, m, str(r))] for r in range(w.runs)]
            for r, value in enumerate(values):
                op = f"n={n} {m} run {r}"
                verdicts.append(_close(op, f"closed-form {m}", value, closed_form[m][r], UNITARY_TOL))
                if m == "diamond":
                    verdicts.append(_le(op, "J <= diamond", j_runs[r], value, ROUNDING_TOL))
                    verdicts.append(_le(op, "diamond <= min(2, d J)", value, min(2.0, d * j_runs[r]), ROUNDING_TOL))
            op = f"n={n} {m} run averaged"
            averaged, mean = rows[(n, m, "averaged")], rows[(n, m, "mean")]
            verdicts.append(_le(op, "averaged <= mean", averaged, mean, ROUNDING_TOL))
            if m == "j":
                want = ref.trace_norm_hermitian(delta)
                verdicts.append(_close(op, "reference J", averaged, want, REFERENCE_TOL))
            else:
                verdicts.extend(_norm_bounds(op, m, averaged, j_avg, d, delta))
            op = f"n={n} {m} run mean"
            verdicts.append(_close(op, "mean of runs", mean, float(np.mean(values)), 1e-10))
    return verdicts


# -- optimum ----------------------------------------------------------------

_ASSIGNMENT = re.compile(r"([a-z_][a-z_ ]*?)\s*=\s*([^,\s]+)")


def parse_optimum_report(text: str, metric: str) -> dict[str, str]:
    """``key = value`` pairs of one metric's block of the ``optimum`` report."""
    values = {}
    inside = False
    for line in text.splitlines():
        if not line.startswith("  "):
            inside = line == f"metric {metric}:"
        elif inside:
            values.update((k.strip(), v) for k, v in _ASSIGNMENT.findall(line))
    return values


def check_optimum(w, terms, text: str) -> list[Verdict]:
    """Report of ``optimum`` under averaged jitter with metric j.

    The report prints 6 significant digits, so printed values are held to
    half a unit in their last digit."""
    values = parse_optimum_report(text, "j")
    defects = ("defect commutator", "defect jitter")
    verdicts = []

    def number(key: str, ops=defects) -> float | None:
        try:
            return float(values[key])
        except (KeyError, ValueError):
            verdicts.extend(Verdict(op, f"line {key!r}", False) for op in ops)
            return None

    def printed(ops, check: str, value: float | None, want: float):
        if value is not None:
            verdicts.extend(_close(op, check, value, want, _printed_tol(value)) for op in ops)

    commutator, jitter = _defect_strengths(terms)
    step_cost, noise_cost = commutator * T**2 / 2.0, jitter * SIGMA**2
    n_real = math.sqrt(step_cost / noise_cost)
    printed(defects[:1], "commutator strength", number("commutator_strength", defects[:1]), commutator)
    printed(defects[1:], "jitter strength", number("jitter_strength", defects[1:]), jitter)
    printed(defects[:1], "step cost", number("step_cost", defects[:1]), step_cost)
    printed(defects[1:], "noise cost", number("noise_cost", defects[1:]), noise_cost)
    printed(defects, "real optimum", number("real optimal steps"), n_real)
    printed(defects, "bound at optimum", number("bound at optimum"), 2.0 * math.sqrt(step_cost * noise_cost))
    integer = number("integer optimal steps")
    if integer is not None:
        want = ref.best_integer_steps(step_cost, noise_cost, max(w.grid))
        verdicts.extend(Verdict(op, "integer optimum", integer == want, f"{integer} vs {want}") for op in defects)

    measured = number("measured optimal steps", ("output",))
    if measured is None:
        return verdicts
    n_star = int(measured)
    op = f"n={n_star} j"
    if n_star not in w.grid:
        return verdicts + [Verdict("output", "measured optimum on the grid", False, str(n_star))]
    index = w.grid.index(n_star)
    nearest = min(range(len(w.grid)), key=lambda i: abs(w.grid[i] - n_real))
    verdicts.append(
        Verdict(op, "near the predicted optimum", abs(index - nearest) <= 1, f"{n_star} vs {n_real:.4g}")
    )
    j_star = ref.averaged_jitter_j(terms, T, n_star, SIGMA)
    printed([op], "reference J", number("measured minimum distance", [op]), j_star)
    for i in (index - 1, index + 1):
        if 0 <= i < len(w.grid):
            j_other = ref.averaged_jitter_j(terms, T, w.grid[i], SIGMA)
            verdicts.append(_le(op, f"grid minimum against n={w.grid[i]}", j_star, j_other, 0.0))
    return verdicts


def check_output(w, terms, text: str, seed: int) -> list[Verdict]:
    if w.command == "sweep":
        return check_sweep(w, terms, text)
    if w.command == "montecarlo":
        return check_montecarlo(w, terms, text, seed)
    return check_optimum(w, terms, text)


def failed_ops(verdicts: list[Verdict], attempted: int) -> int:
    """Operations with at least one failed verdict; all of them when the
    output as a whole failed a check."""
    bad = {v.op for v in verdicts if not v.ok}
    return attempted if "output" in bad else min(len(bad), attempted)


def unexpected(verdicts: list[Verdict]) -> list[Verdict]:
    """Failed verdicts other than the known heuristic bound fault."""
    return [v for v in verdicts if not v.ok and not v.known_fault]
