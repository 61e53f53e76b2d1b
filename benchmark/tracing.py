"""Outside-in tracing of weylcheck's public functions.

The tracer rebinds each traced function, in every loaded weylcheck module
that holds it by name (``spectral`` imports ``dense_spectrum`` by name,
``heat`` imports ``counting``), to a wrapper that records one span per call:
id, parent span id, name, start, end, the time its child spans cover, the
exception it raised and a few facts read from its arguments or result.
Spans stay in memory until the caller takes them; self time ("busy") is the
span's duration minus the time covered by its children.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("geometry", "discretization", "eigensolve", "oracles", "spectral",
          "heat", "cli")

CLI_COMMANDS = ("solve", "count", "chain", "super", "cover", "oracle", "heat",
                "karamata")


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _nodes(args, kwargs, result):
    return {"nodes": _first(args, kwargs).n_rows}


def _nnz(args, kwargs, result):
    return {"nnz": result.matrix.nnz}


def _mask_key(args, kwargs, result):
    mask = _first(args, kwargs)
    digest = hashlib.sha1(repr(mask.h).encode())
    digest.update(mask.interior.tobytes())
    return {"mask": digest.hexdigest()}


# traced function ("module.function") -> facts recorded on a successful call
TRACED = {
    "geometry.rasterize": lambda a, k, r: {"nodes": r.n_nodes},
    "geometry.membership": None,
    "geometry.distance_to_complement": None,
    "geometry.inner_domain": None,
    "geometry.cube_cover": lambda a, k, r: {"cubes": len(r.corners)},
    "discretization.assemble_dirichlet_laplacian": _nnz,
    "discretization.assemble_clamped_bilaplacian": _nnz,
    "discretization.assemble_buckling_pencil": None,
    "eigensolve.dense_spectrum": _nodes,
    "eigensolve.generalized_spectrum": None,
    "eigensolve.inertia_count": _nodes,
    "eigensolve.lowest_k": None,
    "oracles.rectangle_spectrum": None,
    "oracles.disk_spectrum": None,
    "oracles.bessel_j_series": None,
    "spectral.counting": None,
    "spectral.robust_count": None,
    "spectral.solve_all_problems": _mask_key,
    "spectral.verify_chain": None,
    "spectral.superadditivity_check": None,
    "heat.heat_trace": lambda a, k, r: {
        "exp_evals": r.times.size * len(_first(a, k))},
    "heat.heat_upper_bound_check": None,
    "heat.karamata_estimate": None,
    **{f"cli.cmd_{c}": None for c in CLI_COMMANDS},
}

# Besides self time ("busy_s") for every traced function outside cli and
# wall time for each CLI command, the per-layer metrics report call counts
# of these functions ...
CALLS = ("geometry.rasterize", "geometry.membership", "eigensolve.dense_spectrum",
         "eigensolve.generalized_spectrum", "eigensolve.inertia_count",
         "eigensolve.lowest_k", "oracles.bessel_j_series",
         "spectral.solve_all_problems", "spectral.robust_count",
         "spectral.counting")
# ... and these facts, summed over calls.
FACTS = (("geometry.rasterize", "nodes"), ("geometry.cube_cover", "cubes"),
         ("eigensolve.dense_spectrum", "nodes"),
         ("eigensolve.inertia_count", "nodes"), ("heat.heat_trace", "exp_evals"))


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, child_s, error, facts)
        self._stack = []  # [id, child_s] of the open spans
        self._ids = itertools.count()
        self._restore = []  # (module, attribute, original)

    def wrap(self, name, fn, facts=None):
        """``fn`` recording one span named ``name`` per call; ``facts(args,
        kwargs, result)`` gives the facts of a successful call."""
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            error = "interrupted"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = None
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], parent and parent[0], name, start, end,
                              frame[1], error,
                              facts(args, kwargs, result)
                              if facts and error is None else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "weylcheck" or n.startswith("weylcheck.")]
        for qualname, facts in TRACED.items():
            module_name, attr = qualname.split(".")
            original = getattr(importlib.import_module(f"weylcheck.{module_name}"),
                               attr)
            wrapper = self.wrap(qualname, original, facts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def take(self):
        """Remove and return the spans recorded so far, in end order."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans, pass_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    total = defaultdict(float)
    errors = defaultdict(int)
    facts = defaultdict(int)
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    child_inertia = defaultdict(int)  # robust_count span -> inertia calls
    masks = defaultdict(list)  # root span -> solve_all_problems mask keys
    for sid, parent, name, start, end, child_s, error, fs in spans:
        calls[name] += 1
        busy[name] += end - start - child_s
        total[name] += end - start
        if error is not None:
            errors[name] += 1
        for key, value in (fs or {}).items():
            if key == "mask":
                root = sid
                while parent_of[root] is not None:
                    root = parent_of[root]
                masks[root].append(value)
            else:
                facts[(name, key)] += value
        if (name == "eigensolve.inertia_count" and parent is not None
                and name_of.get(parent) == "spectral.robust_count"):
            child_inertia[parent] += 1

    solves = sum(len(v) for v in masks.values())
    distinct = sum(len(set(v)) for v in masks.values())
    m = {f"{n}.calls": (calls[n], "count") for n in CALLS}
    m.update((f"{n}.busy_s", (busy[n], "s"))
             for n in TRACED if not n.startswith("cli."))
    m.update((f"{n}.{key}", (facts[(n, key)], "count")) for n, key in FACTS)
    m["eigensolve.inertia_count.errors"] = (errors["eigensolve.inertia_count"],
                                            "count")
    m["spectral.robust_count.retries"] = (
        sum(n - 1 for n in child_inertia.values()), "count")
    m["spectral.solve_all_problems.repeat_ratio"] = (
        (solves - distinct) / distinct if distinct else 0.0, "ratio")
    m["discretization.nnz"] = (
        sum(v for (_, key), v in facts.items() if key == "nnz"), "count")
    m.update((f"cli.{c}.wall_s", (total[f"cli.cmd_{c}"], "s"))
             for c in CLI_COMMANDS)
    m.update((f"{layer}.busy_s",
              (sum(v for n, v in busy.items() if n.startswith(layer + ".")), "s"))
             for layer in LAYERS)
    m["trace.wall_s"] = (pass_wall_s, "s")
    return m


def run_metrics(per_pass: list[dict], untraced_wall_s: float):
    """Median of each metric over the traced passes, plus the tracing
    overhead: median traced pass wall time minus the untraced pass's."""
    m = {name: (statistics.median(p[name][0] for p in per_pass), unit)
         for name, (_, unit) in per_pass[0].items()}
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - untraced_wall_s, "s")
    return m


def write_spans(path, spans) -> None:
    """Write spans as CSV: id,parent,name,start_s,end_s,error."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s,error\n")
        for sid, parent, name, start, end, _child, error, _facts in spans:
            fh.write(f"{sid},{'' if parent is None else parent},{name},"
                     f"{start:.9f},{end:.9f},{error or ''}\n")
