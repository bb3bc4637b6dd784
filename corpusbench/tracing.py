"""Span tracing at hornsafe's module boundaries, from outside the program.

Entering a Tracer wraps every public function of the traced modules,
and until it is left the wrapper replaces the original in every
hornsafe module that holds it by name: `driver` imports `analyze`,
`absint` imports `hull`, `project` and `widen`, `solver` calls its own
`is_sat` from `entails`, and the kernel is reached as
`kernel.simplex_feasible`.  Each call records a span (name, start,
end, parent span, instance id) in memory; sizes are read from arguments
and return values at the same boundary.  Self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> prefix of its span names
LAYERS = {
    "hornsafe.chc_core": "chc_core",
    "hornsafe.absint": "absint",
    "hornsafe.lra.solver": "lra",
    "hornsafe.lra.kernel": "lra.kernel",
    "hornsafe.fta": "fta",
    "hornsafe.derivations": "derivations",
    "hornsafe.tree_interpolation": "tree_interpolation",
    "hornsafe.refinement": "refinement",
    "hornsafe.driver": "driver",
}


def _rows(constraint) -> int:
    return len(constraint.rows)


def _poly_rows(poly) -> int:
    return 0 if poly.empty else len(poly.constraint.rows)


def _automaton(args, out) -> dict[str, int]:
    return {"states": len(out.states), "transitions": len(out.transitions)}


# span name -> sizes read at the boundary; every caller in hornsafe
# passes these arguments positionally
SIZES = {
    "lra.kernel.simplex_feasible": lambda args, out: {
        "rows": len(args[1]),
        "cols": args[0],
        "sat": out is not None,
    },
    "lra.entails": lambda args, out: {"true": bool(out)},
    "lra.minimise": lambda args, out: {
        "rows_in": _rows(args[0]),
        "rows_out": _rows(out),
    },
    "lra.project": lambda args, out: {
        "rows_in": _rows(args[0]),
        "rows_out": _rows(out),
    },
    "lra.widen": lambda args, out: {
        "rows_in": _poly_rows(args[0]),
        "rows_out": _poly_rows(out),
    },
    "absint.analyze": lambda args, out: {
        "model_rows": sum(_poly_rows(p) for p in out.entries.values())
    },
    "fta.model_fta": _automaton,
    "fta.difference": lambda args, out: {"states_out": len(out.states)},
    "fta.determinise": lambda args, out: {
        "states_in": len(args[0].states),
        "states_out": len(out.states),
    },
    "derivations.and_tree": lambda args, out: {"nodes": len(out)},
    "derivations.feasible": lambda args, out: {"cex": out is not None},
    "tree_interpolation.interpolant_automaton": _automaton,
    "refinement.generate_clauses": lambda args, out: {"clauses_out": len(out)},
}


def _public_functions(module):
    """Public functions a module defines, or takes from a private
    implementation module of its own package (the kernel's)."""
    package = module.__name__.rpartition(".")[0]
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        home = obj.__module__
        if home == module.__name__ or home.startswith(package + "._"):
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.instance = ""
        # [name, start, end, parent index or -1, instance]
        self.spans: list[list] = []
        self.sizes: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        sizes = SIZES.get(span)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if sizes is not None:
                bucket = self.sizes[span]
                for key, value in sizes(args, out).items():
                    bucket[key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for modname, prefix in LAYERS.items():
            module = importlib.import_module(modname)
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{prefix}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "hornsafe" and not modname.startswith("hornsafe."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> tuple[list[list], dict[str, dict[str, int]]]:
        """Hand over the spans and sizes recorded so far and start afresh."""
        # the wrappers hold these containers, so they are emptied in place
        spans = list(self.spans)
        sizes = {k: dict(v) for k, v in self.sizes.items()}
        self.spans.clear()
        self.sizes.clear()
        return spans, sizes


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, self seconds).  Calls nest on one thread, so
    the children of a span cover disjoint parts of its interval."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, start, end, _, _), cover in zip(spans, covered):
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start - cover
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: list[list], sizes: dict[str, dict[str, int]], scale: float = 1.0
) -> dict[str, float]:
    """The per-layer metrics of one pass, by metric name; times are
    multiplied by scale."""
    times = self_times(spans)
    out: dict[str, float] = {}

    def calls_and_self(span: str, stem: str | None = None) -> int:
        calls, secs = times.get(span, (0, 0.0))
        stem = stem or span
        out[f"{stem}.calls"] = calls
        out[f"{stem}.self_ms"] = secs * 1000.0 * scale
        return calls

    def size(span: str, key: str, stem: str | None = None) -> int:
        value = sizes.get(span, {}).get(key, 0)
        out[f"{stem or span}.{key}"] = value
        return value

    parse_s = times.get("chc_core.parse_program", (0, 0.0))[1]
    out["chc_core.parse_program.ms"] = parse_s * 1000.0 * scale

    kernel = "lra.kernel.simplex_feasible"
    calls = calls_and_self(kernel, "lra.kernel")
    size(kernel, "rows", "lra.kernel")
    size(kernel, "cols", "lra.kernel")
    out["lra.kernel.sat_ratio"] = _ratio(sizes.get(kernel, {}).get("sat", 0), calls)

    for fn in ("is_sat", "entails", "minimise", "project", "hull", "widen", "interpolate"):
        calls_and_self(f"lra.{fn}")
    out["lra.entails.true_ratio"] = _ratio(
        sizes.get("lra.entails", {}).get("true", 0), out["lra.entails.calls"]
    )
    for fn in ("minimise", "project", "widen"):
        size(f"lra.{fn}", "rows_in")
        size(f"lra.{fn}", "rows_out")

    calls_and_self("absint.analyze")
    calls_and_self("absint.clause_post")
    size("absint.analyze", "model_rows", "absint")

    calls_and_self("fta.model_fta")
    size("fta.model_fta", "states")
    size("fta.model_fta", "transitions")
    calls_and_self("fta.find_accepted")
    calls_and_self("fta.difference")
    size("fta.difference", "states_out")
    calls_and_self("fta.determinise")
    size("fta.determinise", "states_in")
    size("fta.determinise", "states_out")

    calls_and_self("derivations.and_tree")
    size("derivations.and_tree", "nodes")
    calls = calls_and_self("derivations.feasible")
    out["derivations.feasible.cex_ratio"] = _ratio(
        sizes.get("derivations.feasible", {}).get("cex", 0), calls
    )

    calls_and_self("tree_interpolation.tree_interpolant")
    calls_and_self("tree_interpolation.interpolant_automaton")
    size("tree_interpolation.interpolant_automaton", "states")
    size("tree_interpolation.interpolant_automaton", "transitions")

    calls_and_self("refinement.generate_clauses")
    size("refinement.generate_clauses", "clauses_out")
    return out


def write_spans(path: Path, groups: list[list[list]]) -> None:
    """One tab-separated line per span: index, name, start and end in
    microseconds, parent index (-1 for a root), instance.  Each group is
    a list as Tracer.take() returns it; indices run on across groups."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write("index\tname\tstart_us\tend_us\tparent\tinstance\n")
        base = 0
        for spans in groups:
            for i, (name, start, end, parent, instance) in enumerate(spans):
                if parent >= 0:
                    parent += base
                out.write(
                    f"{base + i}\t{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}"
                    f"\t{parent}\t{instance}\n"
                )
            base += len(spans)
