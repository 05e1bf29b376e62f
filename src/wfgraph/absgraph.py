"""Abstract reachable graphs over finite-state models, with order tags.

A graph's nodes are the values an abstraction map's node expression takes;
arcs record which nodes can succeed which.  Both come from the image of the
map's concrete relation (``system.relation_parts``): the distinct
(node(x), node(y)) pairs of related states x, y.  ``map_graph`` keeps what
that image reaches from the map's seed nodes.  A step map's seeds are the
nodes of the system's initial processes (``system.initial_nodes``,
compiled from the model's `init` alone), and one ``enumeration.reach`` query
finds the arcs they reach.  A blocking map's seeds are every domain node,
so its graph is the whole image, which one enumeration query finds.  That
one query per map also carries per-measure order flags, as the paper
extracts the graph "along with annotations on whether certain measures
decrease or not on arcs".  ``tag_graph`` tags every arc, per component
measure, with whether the measure strictly decreases, never increases, or
may increase across the concrete pairs the arc abstracts.  It reads the
flags a graph from ``map_graph`` keeps (``Graph.built``) and tags no other
graph: graphs are outputs, written as JSON or dot and never read back.

Every query is total: ``enumeration.compute_finite_values`` and
``enumeration.reach`` return every value or arc, or raise NotTotal naming
the query (``step``, ``domain`` or ``relation``), so no graph is built
from a partial image.  This module holds no backend's code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

# NotTotal is enumeration's; perfbench/test_smoke.py raises it from here
from .enumeration import NotTotal, compute_finite_values, reach  # noqa: F401
from .model import (
    And, BoolV, Const, Eq, Expr, Le, Lt, Model, Or, TupleE, Value,
    canonical_sorted, subst_vars, value_text, value_to_json)
from .system import initial_nodes, relation_parts

STRICT_DEC = "strict-dec"
NON_INC = "non-inc"
MAY_INC = "may-inc"


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    nodes: tuple[Value, ...]                 # canonically ordered
    arcs: tuple[tuple[int, int], ...]        # sorted index pairs
    # set by map_graph alone; not an init field, so a copy made with
    # dataclasses.replace is not taken for the graph that was built
    built: Optional[Built] = field(default=None, init=False,
                                   compare=False, repr=False)

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


def _tuple_items(e: Expr, what: str) -> list[Expr]:
    if not isinstance(e, TupleE):
        raise GraphError(f"{what} must be a tuple expression")
    return [x for _, x in e.items]


def _lex_expr(a: Expr, b: Expr, last: type[Lt] | type[Le]) -> Expr:
    """a <lex b, or a <=lex b with ``last`` Le: one right fold."""
    xs, ys = _tuple_items(a, "measure"), _tuple_items(b, "measure")
    if len(xs) != len(ys):
        raise GraphError("lexicographic comparison of unequal widths")
    if not xs:
        return Const(BoolV(last is Le))
    out: Expr = last(xs[-1], ys[-1])
    for x, y in zip(xs[-2::-1], ys[-2::-1]):
        out = Or((Lt(x, y), And((Eq(x, y), out))))
    return out


def lex_lt_expr(a: Expr, b: Expr) -> Expr:
    """a <lex b over equal-width tuples of naturals."""
    return _lex_expr(a, b, Lt)


def lex_le_expr(a: Expr, b: Expr) -> Expr:
    """a <=lex b over equal-width tuples of naturals."""
    return _lex_expr(a, b, Le)


# -- model-level construction ----------------------------------------------

Flags = dict[tuple[Value, Value], set[str]]


@dataclass(frozen=True)
class Built:
    """The query a graph was built from: its model object, map, backend
    and flagged image (``_image``)."""
    model: Model
    map_name: str
    backend: str
    flags: Flags


def _image(model: Model, map_name: str, backend: str,
           seeds: set[Value]) -> Flags:
    """A map's flagged image, from one query (``relation_parts``): each
    pair (node(x), node(y)) of related states, a step map's reached from
    ``seeds`` (``step``), a blocking map's all (``relation``), mapped to
    the flags that held on some concrete pair: ``le-<m>`` when measure m's
    source is <=lex its destination, ``lt-<m>`` when it is <lex."""
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    node = mp.node
    items: list[tuple[Optional[str], Expr]] = [
        ("src", node), ("dst", subst_vars(node, {mp.var: dst_state}))]
    for name in mp.measure_names:
        src_e = mp.measure_expr(name)
        dst_e = subst_vars(src_e, {mp.var: dst_state})
        items.append((f"le-{name}", lex_le_expr(src_e, dst_e)))
        items.append((f"lt-{name}", lex_lt_expr(src_e, dst_e)))
    trm = TupleE(tuple(items))
    if mp.kind == "step":
        found = reach(var_sorts, rel, trm, seeds, backend, "step")
    else:
        found = compute_finite_values(var_sorts, rel, trm, backend,
                                      "relation").values
    flags: Flags = {}
    for q in found:
        (_, u), (_, v), *held = q.items  # type: ignore[union-attr]
        flags.setdefault((u, v), set()).update(
            f for f, x in held if x.val)  # type: ignore[union-attr]
    return flags


def map_graph(model: Model, map_name: str,
              backend: str = "exhaustive") -> Graph:
    """Abstract graph of a map: its seed nodes, closed under the image of
    its relation.

    A step map is seeded with the node of each process of the system's
    initial state, and one flagged reach query finds the image arcs those
    seeds reach.  A blocking map is seeded with every node of its declared
    domain, which one query finds; its relation already keeps both ends in
    that domain, so its graph is the whole image, which one more query
    finds.  The graph keeps its flagged image (``Graph.built``).
    """
    mp = model.map_decl(map_name)
    if mp.kind == "step":
        nodes = set(initial_nodes(model, map_name))
    else:
        nodes = set(compute_finite_values(
            {mp.var: mp.state_sort}, mp.domain, mp.node, backend,
            "domain").values)
    flags = _image(model, map_name, backend, nodes)
    nodes.update(v for _, v in flags)
    ordered = tuple(canonical_sorted(list(nodes)))
    index = {v: i for i, v in enumerate(ordered)}
    arcs = tuple(sorted((index[u], index[v]) for (u, v) in flags))
    g = Graph(ordered, arcs)
    object.__setattr__(g, "built", Built(model, map_name, backend, flags))
    return g


def tag_graph(model: Model, map_name: str, g: Graph,
              backend: str = "exhaustive") -> TaggedGraph:
    """Tag every arc of ``g`` with the ordering behavior of each of the
    map's component measures.

    For arc (u, v) and measure o with source/destination measure terms
    (s, d): if no concrete pair on the arc has d >=lex s the measure
    strictly decreases there; failing that, if none has d >lex s it is
    non-increasing; otherwise it may increase.  The flags are those ``g``
    keeps (``Graph.built``), so ``g`` must be the graph ``map_graph``
    built for this model object (by identity), map and backend; any other
    graph raises GraphError and asks nothing.
    """
    mp = model.map_decl(map_name)
    built = g.built
    if built is None or built.model is not model or (
            built.map_name, built.backend) != (map_name, backend):
        raise GraphError("graph was not built by map_graph for this model "
                         "object, map and backend")
    tags: dict[tuple[int, int, str], str] = {}
    for (i, j) in g.arcs:
        held = built.flags[(g.nodes[i], g.nodes[j])]
        for name in mp.measure_names:
            tags[(i, j, name)] = (
                STRICT_DEC if f"le-{name}" not in held
                else NON_INC if f"lt-{name}" not in held
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
