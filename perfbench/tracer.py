"""Span tracer for the wfgraph benchmark.

The tracer wraps public functions of the wfgraph modules from the outside:
it replaces the attribute each caller looks the function up under (a module
global or a class attribute) and restores it afterwards, so nothing under
``src/`` changes.  Every wrapped call records one span

    [boundary, start_ns, end_ns, parent span, operation id, child_ns, outer, n]

kept in memory until the run writes them out.  ``outer`` is 1 when no
enclosing span has the same boundary, so busy time counts recursion once;
``child_ns`` accumulates the durations of direct child spans, so self time is
``end - start - child_ns``; ``n`` is the boundary's first counter for this
call (values found, rows built, ...).
"""

from __future__ import annotations

import gzip
import importlib
import json
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional


@dataclass(frozen=True)
class Boundary:
    key: str                         # metric prefix, "<layer>.<name>"
    sites: tuple[str, ...]           # "module:attr" or "module:Class.attr"
    calls_name: Optional[str] = None  # metric name of the call count
    counters: tuple[str, ...] = ()   # summed per call from (args, result)
    count: Optional[Callable] = None


# Each function is wrapped under every name its callers look it up by: a
# function imported with ``from .x import f`` is a separate global of the
# importing module.
BOUNDARIES = (
    Boundary("enumeration.query",
             ("wfgraph.absgraph:compute_finite_values",
              "wfgraph.certify:compute_finite_values"),
             calls_name="enumeration.queries",
             counters=("enumeration.values", "enumeration.solve_calls"),
             count=lambda a, r: (len(r.values), r.solve_calls)),
    Boundary("veceval.scalarize",
             ("wfgraph.veceval:scalarize", "wfgraph.bitblast:scalarize")),
    Boundary("veceval.build", ("wfgraph.veceval:build_table",),
             calls_name="veceval.tables", counters=("veceval.rows",),
             count=lambda a, r: (r.n,)),
    Boundary("veceval.distinct", ("wfgraph.veceval:distinct_rows",),
             counters=("veceval.distinct_values",),
             count=lambda a, r: (len(r),)),
    Boundary("bitblast.blast", ("wfgraph.enumeration:bitblast",),
             counters=("bitblast.vars", "bitblast.clauses"),
             count=lambda a, r: (r.num_vars, len(r.clauses))),
    Boundary("sat.solve", ("wfgraph.sat:DpllSolver.solve",),
             calls_name="sat.solves", counters=("sat.sat_answers",),
             count=lambda a, r: (int(bool(r)),)),
    Boundary("sat.add_clause", ("wfgraph.sat:DpllSolver.add_clause",)),
    Boundary("absgraph.map_graph",
             ("wfgraph.absgraph:map_graph", "wfgraph.bakery:map_graph"),
             counters=("absgraph.nodes", "absgraph.arcs"),
             count=lambda a, r: (len(r.nodes), len(r.arcs))),
    Boundary("absgraph.tag_graph",
             ("wfgraph.absgraph:tag_graph", "wfgraph.bakery:tag_graph")),
    Boundary("measure.synthesize",
             ("wfgraph.measure:synthesize_omap",
              "wfgraph.bakery:synthesize_omap")),
    Boundary("measure.mk_bnl", ("wfgraph.measure:Omap.mk_bnl",)),
    Boundary("certify.relation", ("wfgraph.certify:certify_relation",)),
    Boundary("certify.closure", ("wfgraph.certify:check_closure",)),
    Boundary("certify.arc_tags", ("wfgraph.certify:check_arc_tags",)),
    Boundary("certify.omap_valid", ("wfgraph.certify:check_omap_valid",)),
    Boundary("certify.measure_decrease",
             ("wfgraph.certify:check_measure_decrease",)),
    Boundary("ordinals.bnl_to_ordinal",
             ("wfgraph.ordinals:bnl_to_ordinal",
              "wfgraph.certify:bnl_to_ordinal",
              "wfgraph.measure:bnl_to_ordinal")),
    Boundary("ordinals.o_lt",
             ("wfgraph.ordinals:o_lt", "wfgraph.certify:o_lt",
              "wfgraph.bakery:o_lt")),
    # only top-level evaluations: the recursion inside model.eval_expr
    # resolves the name in wfgraph.model, which stays unwrapped
    Boundary("model.eval_expr", ("wfgraph.certify:eval_expr",)),
    Boundary("model.parse", ("wfgraph.bakery:parse_model",)),
    Boundary("bakery.run", ("wfgraph.bakery:Bakery.run",),
             counters=("bakery.steps",), count=lambda a, r: (r.steps,)),
    Boundary("bakery.choose_ready", ("wfgraph.bakery:choose_ready",)),
    Boundary("bakery.step", ("wfgraph.bakery:Bakery.step",)),
    Boundary("bakery.rank_bnll", ("wfgraph.bakery:Bakery.rank_bnll",)),
)


def _resolve(site: str):
    """(owner object, attribute name) for a "module:[Class.]attr" site."""
    mod_name, path = site.split(":")
    owner = importlib.import_module(mod_name)
    *classes, attr = path.split(".")
    for c in classes:
        owner = getattr(owner, c)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers at every boundary while used as a
    context manager; spans stay in memory until ``write``."""

    def __init__(self):
        self.boundaries = BOUNDARIES
        self.keys = [b.key for b in BOUNDARIES]
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._active = [0] * len(self.boundaries)
        self._counts = [[0] * len(b.counters) for b in self.boundaries]
        self._saved: list[tuple[object, str, object]] = []

    def set_op(self, name: str):
        """Tag the spans that follow with an operation (instance or run) id."""
        self.ops.append(name)
        self.op = len(self.ops) - 1

    def _wrap(self, bid: int, fn):
        spans, stack, active = self.spans, self._stack, self._active
        counts = self._counts[bid]
        count = self.boundaries[bid].count

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [bid, 0, 0, stack[-1] if stack else -1, self.op, 0,
                    int(active[bid] == 0), 0]
            spans.append(span)
            stack.append(idx)
            active[bid] += 1
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter_ns()
                active[bid] -= 1
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][5] += end - span[1]
            if count is not None:
                got = count(args, result)
                span[7] = got[0]
                for k, c in enumerate(got):
                    counts[k] += c
            return result

        return traced

    def __enter__(self):
        try:
            for bid, b in enumerate(self.boundaries):
                sites = [_resolve(s) for s in b.sites]
                if len({id(getattr(o, a)) for o, a in sites}) != 1:
                    raise RuntimeError(
                        f"{b.key}: its sites hold different functions")
                wrapper = self._wrap(bid, getattr(*sites[0]))
                for owner, attr in sites:
                    self._saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def summary(self) -> dict:
        """Per-boundary calls, busy and self nanoseconds, summed counters,
        the number of spans with negative self time, and the cases the
        measure-decrease sweeps enumerated."""
        nb = len(self.boundaries)
        calls, busy, self_ns = [0] * nb, [0] * nb, [0] * nb
        negative = 0
        sweep_bid = self.keys.index("certify.measure_decrease")
        query_bid = self.keys.index("enumeration.query")
        sweep_parents = set()
        for i, (bid, start, end, _, _, child, outer, _) in enumerate(
                self.spans):
            dur = end - start
            calls[bid] += 1
            if outer:
                busy[bid] += dur
            own = dur - child
            if own < 0:
                negative += 1
            self_ns[bid] += own
            if bid == sweep_bid:
                sweep_parents.add(i)
        sweep_cases = sum(
            s[7] for s in self.spans
            if s[0] == query_bid and s[3] in sweep_parents)
        counters = {}
        for b, vals in zip(self.boundaries, self._counts):
            counters.update(zip(b.counters, vals))
        return {"calls": dict(zip(self.keys, calls)),
                "busy_ns": dict(zip(self.keys, busy)),
                "self_ns": dict(zip(self.keys, self_ns)),
                "counters": counters, "negative_self": negative,
                "sweep_cases": sweep_cases}

    def write(self, path, meta: dict):
        """Write every span, with the run metadata, as gzipped JSON."""
        doc = {"meta": meta, "boundaries": self.keys, "ops": self.ops,
               "span_fields": ["boundary", "start_ns", "end_ns", "parent",
                               "op", "child_ns", "outer", "n"],
               "spans": self.spans}
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
