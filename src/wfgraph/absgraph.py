"""Abstract reachable graphs over finite-state models, with order tags.

A graph's nodes are the values an abstraction map's node expression takes;
arcs record which nodes can follow which.  Both come from the image of the
map's concrete relation (``system.relation_parts``): one enumeration query
for the distinct (node(x), node(y)) pairs of related states x, y.
``map_graph`` keeps what that image reaches from the map's seed nodes: the
initial node of a step map, every domain node of a blocking map.
``tag_graph`` tags every arc, per component measure, with whether the
measure strictly decreases, never increases, or may increase across the
concrete pairs the arc abstracts, from one more image query that carries
per-measure order flags.

Every query is total: ``enumeration.compute_finite_values`` returns every
value or raises NotTotal naming the query (``init``, ``step``, ``domain``,
``relation`` or ``tag``), so no graph is built from a partial image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

# NotTotal is raised by enumeration; it stays importable from here
from .enumeration import NotTotal, compute_finite_values  # noqa: F401
from .model import (
    And, BoolV, Const, Eq, Expr, Le, Lt, Model, Or, TupleE, Value,
    canonical_sorted, subst_vars, value_from_json, value_text, value_to_json)
from .system import relation_parts

STRICT_DEC = "strict-dec"
NON_INC = "non-inc"
MAY_INC = "may-inc"
ORDER_TAGS = (STRICT_DEC, NON_INC, MAY_INC)


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    nodes: tuple[Value, ...]                 # canonically ordered
    arcs: tuple[tuple[int, int], ...]        # sorted index pairs

    @cached_property
    def _index(self) -> dict[Value, int]:
        index: dict[Value, int] = {}
        for i, v in enumerate(self.nodes):
            index.setdefault(v, i)
        return index

    @cached_property
    def _succ(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {}
        for (s, j) in self.arcs:
            succ.setdefault(s, []).append(j)
        return succ

    def node_index(self, v: Value) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"not a node: {value_text(v)}") from None

    def succ_indices(self, i: int) -> list[int]:
        return list(self._succ.get(i, ()))


@dataclass(frozen=True)
class TaggedGraph(Graph):
    measures: tuple[str, ...] = ()
    widths: dict[str, int] = field(default_factory=dict)
    tags: dict[tuple[int, int, str], str] = field(default_factory=dict)


def _freeze(nodes: set[Value], arcs: set[tuple[Value, Value]]) -> Graph:
    ordered = tuple(canonical_sorted(list(nodes)))
    index = {v: i for i, v in enumerate(ordered)}
    arc_ix = tuple(sorted((index[u], index[v]) for (u, v) in arcs))
    return Graph(ordered, arc_ix)


def _tuple_items(e: Expr, what: str) -> list[Expr]:
    if not isinstance(e, TupleE):
        raise GraphError(f"{what} must be a tuple expression")
    return [x for _, x in e.items]


def lex_lt_expr(a: Expr, b: Expr) -> Expr:
    """a <lex b over equal-width tuples of naturals."""
    xs, ys = _tuple_items(a, "measure"), _tuple_items(b, "measure")
    if len(xs) != len(ys):
        raise GraphError("lexicographic comparison of unequal widths")
    cases = []
    for i in range(len(xs)):
        eqs: list[Expr] = [Eq(xs[j], ys[j]) for j in range(i)]
        cases.append(And(tuple(eqs + [Lt(xs[i], ys[i])])))
    return Or(tuple(cases)) if cases else Const(BoolV(False))


def lex_le_expr(a: Expr, b: Expr) -> Expr:
    xs, ys = _tuple_items(a, "measure"), _tuple_items(b, "measure")
    if len(xs) != len(ys):
        raise GraphError("lexicographic comparison of unequal widths")
    if not xs:
        return Const(BoolV(True))
    out: Expr = Le(xs[-1], ys[-1])
    for i in range(len(xs) - 2, -1, -1):
        out = Or((Lt(xs[i], ys[i]), And((Eq(xs[i], ys[i]), out))))
    return out


# -- model-level construction ----------------------------------------------

def _image(parts, backend: str, what: str,
           scope: Optional[tuple[Value, ...]] = None,
           measures: tuple[str, ...] = ()
           ) -> dict[tuple[Value, Value], set[str]]:
    """The relation's abstract image, from one enumeration query.

    Over the related pairs (x, y) of ``parts`` (as ``relation_parts``
    returns them) whose source node lies in ``scope`` (default: all), maps
    each abstract pair (node(x), node(y)) to the flags that held on some
    concrete pair: ``le-<m>`` when measure m's source is <=lex its
    destination, ``lt-<m>`` when it is <lex.  Keys come in canonical
    (source, destination) order.
    """
    mp, rel, dst_state, var_sorts = parts
    node = mp.node
    items: list[tuple[Optional[str], Expr]] = [
        ("src", node), ("dst", subst_vars(node, {mp.var: dst_state}))]
    for name in measures:
        src_e = mp.measure_expr(name)
        dst_e = subst_vars(src_e, {mp.var: dst_state})
        items.append((f"le-{name}", lex_le_expr(src_e, dst_e)))
        items.append((f"lt-{name}", lex_lt_expr(src_e, dst_e)))
    hyp = rel
    if scope is not None:
        hyp = And((rel, Or(tuple(Eq(node, Const(u)) for u in scope))))
    image: dict[tuple[Value, Value], set[str]] = {}
    for q in compute_finite_values(var_sorts, hyp, TupleE(tuple(items)),
                                   backend, what).values:
        (_, u), (_, v), *flags = q.items  # type: ignore[union-attr]
        image.setdefault((u, v), set()).update(
            f for f, x in flags if x == BoolV(True))
    return image


def map_graph(model: Model, map_name: str,
              backend: str = "exhaustive") -> Graph:
    """Abstract graph of a map: its seed nodes, closed under the image of
    its relation.

    A step map is seeded with the node of the system's init state, a
    blocking map with every node of its declared domain.  One query finds
    the seeds, one more the relation's image (``_image``); the graph keeps
    the image pairs the seeds reach.  A blocking map's relation already
    keeps both ends in its domain, so its graph is the whole image.
    """
    parts = relation_parts(model, map_name)
    mp, _, _, var_sorts = parts
    if mp.kind == "step":
        init = model.define(model.system.init).body  # type: ignore[union-attr]
        seeds, sweep = "init", "step"
        hyp, trm = Const(BoolV(True)), subst_vars(mp.node, {mp.var: init})
    else:
        seeds, sweep = "domain", "relation"
        hyp, trm = mp.domain, mp.node
    nodes: set[Value] = set(
        compute_finite_values(var_sorts, hyp, trm, backend, seeds).values)
    succ: dict[Value, list[Value]] = {}
    for u, v in _image(parts, backend, sweep):
        succ.setdefault(u, []).append(v)
    arcs: set[tuple[Value, Value]] = set()
    work = list(nodes)
    while work:
        u = work.pop()
        for v in succ.get(u, ()):
            arcs.add((u, v))
            if v not in nodes:
                nodes.add(v)
                work.append(v)
    return _freeze(nodes, arcs)


def tag_graph(model: Model, map_name: str, g: Graph,
              backend: str = "exhaustive") -> TaggedGraph:
    """Tag every arc of ``g`` with the ordering behavior of each of the
    map's component measures.

    For arc (u, v) and measure o with source/destination measure terms
    (s, d): if no concrete pair on the arc has d >=lex s the measure
    strictly decreases there; failing that, if none has d >lex s it is
    non-increasing; otherwise it may increase.  One image query, scoped
    to the sources of ``g``'s arcs, carries every arc's flags; a graph
    without arcs asks none.  Image pairs that are not arcs of ``g`` are
    ignored, and an arc with no concrete pair reads strict-dec.
    """
    parts = relation_parts(model, map_name)
    mp = parts[0]
    tags: dict[tuple[int, int, str], str] = {}
    sources = sorted({i for (i, _) in g.arcs})
    if sources:
        image = _image(parts, backend, "tag",
                       tuple(g.nodes[i] for i in sources), mp.measure_names)
        for (i, j) in g.arcs:
            got = image.get((g.nodes[i], g.nodes[j]), ())
            for name in mp.measure_names:
                tags[(i, j, name)] = (
                    STRICT_DEC if f"le-{name}" not in got
                    else NON_INC if f"lt-{name}" not in got
                    else MAY_INC)
    return TaggedGraph(g.nodes, g.arcs, tuple(mp.measure_names),
                       dict(mp.widths), tags)


# -- serialization ---------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    doc = {
        "format": "wfgraph-graph-v1",
        "nodes": [value_to_json(n) for n in g.nodes],
        "node_texts": [value_text(n) for n in g.nodes],
        "arcs": [list(a) for a in g.arcs],
    }
    if isinstance(g, TaggedGraph):
        doc["measures"] = list(g.measures)
        doc["widths"] = dict(g.widths)
        doc["arc_tags"] = [
            {name: g.tags[(i, j, name)] for name in g.measures}
            for (i, j) in g.arcs]
    return doc


def graph_from_json(doc: dict) -> Graph:
    if doc.get("format") != "wfgraph-graph-v1":
        raise GraphError("not a graph document")
    nodes = tuple(value_from_json(n) for n in doc["nodes"])
    arcs = tuple((int(i), int(j)) for i, j in doc["arcs"])
    if "measures" not in doc:
        return Graph(nodes, arcs)
    measures = tuple(doc["measures"])
    widths = {str(k): int(v) for k, v in doc["widths"].items()}
    tags: dict[tuple[int, int, str], str] = {}
    for (i, j), per in zip(arcs, doc["arc_tags"]):
        for name in measures:
            tag = per[name]
            if tag not in ORDER_TAGS:
                raise GraphError(f"unknown order tag {tag!r}")
            tags[(i, j, name)] = tag
    return TaggedGraph(nodes, arcs, measures, widths, tags)


def graph_text(g: Graph) -> str:
    return json.dumps(graph_to_json(g), indent=2, sort_keys=False) + "\n"


def graph_to_dot(g: Graph, title: str = "absgraph") -> str:
    lines = [f'digraph "{title}" {{', "  rankdir=TB;",
             '  node [shape=box, fontname="monospace", fontsize=9];']
    for i, n in enumerate(g.nodes):
        label = value_text(n).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for (i, j) in g.arcs:
        if isinstance(g, TaggedGraph) and g.measures:
            parts = [f"{m}:{g.tags[(i, j, m)]}" for m in g.measures]
            label = "\\n".join(parts)
            lines.append(f'  n{i} -> n{j} [label="{label}", fontsize=8];')
        else:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
