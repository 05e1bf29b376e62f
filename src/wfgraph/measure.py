"""Measure synthesis: map every node of a tagged graph to a descriptor.

The algorithm alternates two phases over subgraphs.  If the subgraph is
strongly connected and has at least one arc, scan the component measures
in declared order for one that never increases on the subgraph and
strictly decreases somewhere; delete its strictly-decreasing arcs, solve
the rest, and prepend the measure's name to every descriptor.  Otherwise
partition into strongly connected components, solve each on its internal
arcs, and prepend each component's rank, counting 1, 2, ... from the
sinks up (reverse topological order).  A single node with no arcs is the
base and gets descriptor (0).

When no measure qualifies on a strongly connected subgraph the relation
is not well-founded by these measures; synthesis fails with a shortest
cycle witnessing it: a closed walk on which no measure both strictly
decreases and avoids increasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .absgraph import MAY_INC, STRICT_DEC, Graph, GraphError, TaggedGraph
from .model import Value, value_from_json, value_text, value_to_json
from .ordinals import (Bnl, Descriptor, Ordinal, bnl_bnd, bnl_to_ordinal,
                       mk_bnl)


class SynthesisError(ValueError):
    pass


class CycleCounterexample(Exception):
    """A non-decreasing closed walk: proof that the declared measures
    cannot order this subgraph.  ``cycle`` lists nodes with first = last;
    ``arc_tags`` gives each traversed arc's per-measure tags."""

    def __init__(self, cycle: list[Value], arc_tags: list[dict[str, str]]):
        self.cycle = cycle
        self.arc_tags = arc_tags
        super().__init__(
            f"no qualifying measure on a cycle of {len(arc_tags)} arcs "
            f"starting at {value_text(cycle[0])}")


@dataclass(frozen=True)
class Omap:
    """Total mapping from graph nodes to measure descriptors."""

    descriptors: tuple[tuple[Value, Descriptor], ...]
    measures: tuple[str, ...]
    widths: dict[str, int]

    def descriptor(self, node: Value) -> Descriptor:
        try:
            return self._by_node[node]
        except KeyError:
            raise SynthesisError(
                f"node not in omap: {value_text(node)}") from None

    @property
    def nodes(self) -> tuple[Value, ...]:
        return tuple(n for n, _ in self.descriptors)

    @cached_property
    def _by_node(self) -> dict[Value, Descriptor]:
        return dict(self.descriptors)

    def as_dict(self) -> dict[Value, Descriptor]:
        return dict(self._by_node)

    @cached_property
    def bnl_bound(self) -> int:
        return bnl_bnd((d for _, d in self.descriptors), self.widths)

    def mk_bnl(self, x, abstract: Callable) -> Bnl:
        return mk_bnl(x, self._by_node, self.widths, self.bnl_bound,
                      abstract)

    def msr(self, x, abstract: Callable) -> Ordinal:
        return bnl_to_ordinal(self.mk_bnl(x, abstract))


# -- strongly connected components -----------------------------------------

def _scc_indices(nodes: Sequence[int],
                 arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Tarjan, iterative; components in reverse topological order.
    Deterministic: roots and successors visited in ascending index order."""
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    for (i, j) in arcs:
        succ[i].append(j)
    for v in succ:
        succ[v].sort()
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        frames: list[tuple[int, Iterable[int]]] = [(root, iter(succ[root]))]
        while frames:
            v, it = frames[-1]
            w = next(it, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    frames.append((w, iter(succ[w])))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            frames.pop()
            if frames:
                p = frames[-1][0]
                low[p] = min(low[p], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == v:
                        break
                out.append(sorted(comp))
    return out


def scc_partition(g: Graph) -> list[tuple[Value, ...]]:
    """The graph's strongly connected components, sinks first."""
    comps = _scc_indices(range(len(g.nodes)), g.arcs)
    return [tuple(g.nodes[i] for i in comp) for comp in comps]


# -- synthesis ---------------------------------------------------------------

def synthesize_omap(tg: TaggedGraph) -> Omap:
    """Descriptor for every node, or raise CycleCounterexample."""
    arcs = set(tg.arcs)
    desc = _synth(tg, sorted(range(len(tg.nodes))), arcs)
    ordered = tuple((tg.nodes[i], tuple(desc[i]))
                    for i in range(len(tg.nodes)))
    return Omap(ordered, tg.measures, dict(tg.widths))


def _synth(tg: TaggedGraph, nodes: list[int],
           arcs: set[tuple[int, int]]) -> dict[int, list]:
    if len(nodes) == 1 and not arcs:
        return {nodes[0]: [0]}
    comps = _scc_indices(nodes, arcs)
    if len(comps) == 1 and arcs:
        # strongly connected: find a measure that never increases here
        # and decreases somewhere, then discard its decreasing arcs
        for name in tg.measures:
            tags = [tg.tags[(i, j, name)] for (i, j) in arcs]
            if MAY_INC not in tags and STRICT_DEC in tags:
                kept = {(i, j) for (i, j) in arcs
                        if tg.tags[(i, j, name)] != STRICT_DEC}
                assert len(kept) < len(arcs)
                inner = _synth(tg, nodes, kept)
                return {i: [name] + d for i, d in inner.items()}
        raise find_min_nondec_cycle(tg, nodes, arcs)
    out: dict[int, list] = {}
    for rank, comp in enumerate(comps, start=1):
        members = set(comp)
        assert len(comp) < len(nodes)
        internal = {(i, j) for (i, j) in arcs
                    if i in members and j in members}
        inner = _synth(tg, comp, internal)
        for i, d in inner.items():
            out[i] = [rank] + d
    return out


def find_min_nondec_cycle(tg: TaggedGraph, nodes: Optional[list[int]] = None,
                          arcs: Optional[set[tuple[int, int]]] = None
                          ) -> CycleCounterexample:
    """Shortest closed walk on which every measure either avoids strict
    decrease or includes an increase.  Breadth-first search over
    (node, per-measure strict/increase flags); ties broken by canonical
    order of the starting node.
    """
    if nodes is None:
        nodes = list(range(len(tg.nodes)))
    if arcs is None:
        arcs = set(tg.arcs)
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    for (i, j) in sorted(arcs):
        succ[i].append(j)
    k = len(tg.measures)
    ok_mask = (1 << k) - 1

    def step_masks(i: int, j: int, strict: int, inc: int) -> tuple[int, int]:
        for b, name in enumerate(tg.measures):
            t = tg.tags[(i, j, name)]
            if t == STRICT_DEC:
                strict |= 1 << b
            elif t == MAY_INC:
                inc |= 1 << b
        return strict, inc

    best: Optional[list[tuple[int, int]]] = None  # list of arcs
    for start in nodes:
        if not succ[start]:
            continue
        seen = {(start, 0, 0)}
        frontier: list[tuple[int, int, int]] = [(start, 0, 0)]
        parent: dict[tuple[int, int, int],
                     tuple[tuple[int, int, int], tuple[int, int]]] = {}
        found: Optional[list[tuple[int, int]]] = None
        depth = 0
        while frontier and found is None:
            depth += 1
            if best is not None and depth >= len(best):
                break
            nxt: list[tuple[int, int, int]] = []
            for st in frontier:
                v, strict, inc = st
                for w in succ[v]:
                    s2, i2 = step_masks(v, w, strict, inc)
                    if w == start and (s2 & ~i2) == 0:
                        walk = [(v, w)]
                        cur = st
                        while cur in parent:
                            cur, arc = parent[cur]
                            walk.append(arc)
                        walk.reverse()
                        found = walk
                        break
                    st2 = (w, s2, i2)
                    if st2 in seen:
                        continue
                    seen.add(st2)
                    parent[st2] = (st, (v, w))
                    nxt.append(st2)
                if found:
                    break
            frontier = nxt
        if found is None:
            continue
        if best is None or len(found) < len(best):
            best = found
    if best is None:
        raise SynthesisError("no cycle found; subgraph is not strongly "
                             "connected with arcs")
    cycle = [tg.nodes[best[0][0]]] + [tg.nodes[j] for (_, j) in best]
    arc_tags = [{name: tg.tags[(i, j, name)] for name in tg.measures}
                for (i, j) in best]
    return CycleCounterexample(cycle, arc_tags)


def verify_counterexample(tg: TaggedGraph, cc: CycleCounterexample) -> bool:
    """Check the counterexample invariant: the walk is closed, its arcs
    exist, and no measure strictly decreases without also increasing."""
    if len(cc.cycle) < 2 or cc.cycle[0] != cc.cycle[-1]:
        return False
    if len(cc.arc_tags) != len(cc.cycle) - 1:
        return False
    arcset = set(tg.arcs)
    strict: dict[str, bool] = {m: False for m in tg.measures}
    inc: dict[str, bool] = {m: False for m in tg.measures}
    for n, (u, v) in enumerate(zip(cc.cycle, cc.cycle[1:])):
        try:
            i, j = tg.node_index(u), tg.node_index(v)
        except GraphError:
            return False
        if (i, j) not in arcset:
            return False
        for name in tg.measures:
            t = tg.tags[(i, j, name)]
            if cc.arc_tags[n].get(name) != t:
                return False
            if t == STRICT_DEC:
                strict[name] = True
            elif t == MAY_INC:
                inc[name] = True
    return all(not strict[m] or inc[m] for m in tg.measures)


# -- serialization -----------------------------------------------------------

def omap_to_json(m: Omap) -> dict:
    return {
        "format": "wfgraph-omap-v1",
        "measures": list(m.measures),
        "widths": dict(m.widths),
        "nodes": [value_to_json(n) for n, _ in m.descriptors],
        "node_texts": [value_text(n) for n, _ in m.descriptors],
        "descriptors": [list(d) for _, d in m.descriptors],
    }


def omap_from_json(doc) -> Omap:
    """The omap of a parsed ``omap_to_json`` document.  A document of any
    other shape raises SynthesisError."""
    if not isinstance(doc, dict) or doc.get("format") != "wfgraph-omap-v1":
        raise SynthesisError("not an omap document")
    for key, kind, what in (("nodes", list, "an array"),
                            ("descriptors", list, "an array"),
                            ("measures", list, "an array"),
                            ("widths", dict, "an object")):
        if not isinstance(doc.get(key), kind):
            raise SynthesisError(f"omap {key!r} is missing or not {what}")
    nodes, seen = [], set()
    for n in doc["nodes"]:
        try:
            node = value_from_json(n)
        except (KeyError, IndexError, TypeError, ValueError):
            raise SynthesisError(f"bad omap node {n!r}") from None
        if node in seen:
            raise SynthesisError(f"omap lists node {value_text(node)} twice")
        seen.add(node)
        nodes.append(node)
    measures = doc["measures"]
    if not all(isinstance(m, str) for m in measures):
        raise SynthesisError("omap measures must be names")
    descs = []
    for d in doc["descriptors"]:
        if not isinstance(d, list):
            raise SynthesisError(f"bad descriptor {d!r}")
        for e in d:
            if not isinstance(e, (int, str)) or isinstance(e, bool):
                raise SynthesisError(f"bad descriptor entry {e!r}")
            if isinstance(e, str) and e not in measures:
                raise SynthesisError(
                    f"descriptor entry {e!r} is not a measure of the omap")
        descs.append(tuple(d))
    if len(nodes) != len(descs):
        raise SynthesisError("node/descriptor count mismatch")
    widths = doc["widths"]
    if not all(isinstance(w, int) and not isinstance(w, bool) and w >= 0
               for w in widths.values()):
        raise SynthesisError("omap widths must be naturals")
    return Omap(tuple(zip(nodes, descs)), tuple(measures), dict(widths))


def omap_text(m: Omap) -> str:
    return json.dumps(omap_to_json(m), indent=2) + "\n"


def counterexample_to_json(cc: CycleCounterexample) -> dict:
    return {
        "format": "wfgraph-counterexample-v1",
        "cycle": [value_to_json(n) for n in cc.cycle],
        "cycle_texts": [value_text(n) for n in cc.cycle],
        "arc_tags": [dict(t) for t in cc.arc_tags],
    }


def counterexample_report(cc: CycleCounterexample) -> str:
    lines = [f"non-decreasing cycle of {len(cc.arc_tags)} arcs:"]
    for n, (u, v) in enumerate(zip(cc.cycle, cc.cycle[1:])):
        tags = " ".join(f"{k}:{v2}" for k, v2 in sorted(cc.arc_tags[n].items()))
        lines.append(f"  {value_text(u)} -> {value_text(v)}  [{tags}]")
    return "\n".join(lines) + "\n"
