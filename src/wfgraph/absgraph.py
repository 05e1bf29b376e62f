"""Abstract reachable graphs over finite-state models, with order tags.

A graph's nodes are the values an abstraction map's node expression takes;
arcs record which nodes can follow which.  Both come from the image of the
map's concrete relation (``system.relation_parts``): the distinct
(node(x), node(y)) pairs of related states x, y.  ``map_graph`` keeps what
that image reaches from the map's seed nodes.  A step map's seeds are the
nodes of the system's initial processes, compiled from the model
(``system.System``), and one ``enumeration.reach`` query finds the arcs
they reach.  A blocking map's seeds are every domain node, so its graph is
the whole image, which one enumeration query finds.  That one query per map
also carries per-measure order flags, as the paper extracts the graph
"along with annotations on whether certain measures decrease or not on
arcs".  ``tag_graph`` tags every arc, per component measure, with whether
the measure strictly decreases, never increases, or may increase across
the concrete pairs the arc abstracts; it reads the flags of the image
``map_graph`` found, kept per model object (by identity, dropped with the
object), and queries only what that image lacks.

Every query is total: ``enumeration.compute_finite_values`` and
``enumeration.reach`` return every value or arc, or raise NotTotal naming
the query (``step``, ``domain``, ``relation`` or ``tag``), so no graph is
built from a partial image.  This module holds no backend's code.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

# NotTotal is raised by enumeration; it stays importable from here
from .enumeration import NotTotal, compute_finite_values, reach  # noqa: F401
from .model import (
    And, BoolV, Const, Eq, Expr, Le, Lt, Model, Or, TupleE, Value,
    canonical_sorted, subst_vars, value_from_json, value_text, value_to_json)
from .system import System, abstraction_functions, relation_parts

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

@dataclass
class _Image:
    """A map's flagged image, decoded: each abstract pair (node(x), node(y))
    of a related pair (x, y) whose source node was asked, mapped to the
    flags that held on some concrete pair: ``le-<m>`` when measure m's
    source is <=lex its destination, ``lt-<m>`` when it is <lex."""
    flags: dict[tuple[Value, Value], set[str]]
    asked: Optional[set[Value]]  # None: every source node


# per model object, by identity: (map name, backend) -> the image its last
# builder query found; an entry goes with its model
_IMAGES: dict[int, dict[tuple[str, str], _Image]] = {}


def _images(model: Model) -> dict[tuple[str, str], _Image]:
    key = id(model)
    if key not in _IMAGES:
        _IMAGES[key] = {}
        weakref.finalize(model, _IMAGES.pop, key, None)
    return _IMAGES[key]


def _image(model: Model, map_name: str, backend: str,
           nodes: Optional[set[Value]] = None) -> _Image:
    """One flagged image query of the map's relation (``relation_parts``).

    Without ``nodes`` it is the builder's query: a step map's pairs
    reached from the nodes of the system's initial processes
    (``enumeration.reach``, ``step``), a blocking map's whole image
    (``relation``).  With ``nodes`` it asks those source nodes alone
    (``tag``)."""
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
    asked: Optional[set[Value]]
    if nodes is not None:
        found = reach(var_sorts, rel, trm, nodes, backend, "tag", False)
        asked = set(nodes)
    elif mp.kind == "step":
        map_e, _ = abstraction_functions(model, map_name)
        seeds = set(map(map_e, System.compile(model).initial.trs))
        found = reach(var_sorts, rel, trm, seeds, backend, "step")
        # a reach asks every node it finds
        asked = seeds | {q.items[1][1]  # type: ignore[union-attr]
                         for q in found}
    else:
        found = compute_finite_values(var_sorts, rel, trm, backend,
                                      "relation").values
        asked = None
    flags: dict[tuple[Value, Value], set[str]] = {}
    for q in found:
        (_, u), (_, v), *held = q.items  # type: ignore[union-attr]
        flags.setdefault((u, v), set()).update(
            f for f, x in held if x.val)  # type: ignore[union-attr]
    return _Image(flags, asked)


def map_graph(model: Model, map_name: str,
              backend: str = "exhaustive") -> Graph:
    """Abstract graph of a map: its seed nodes, closed under the image of
    its relation.

    A step map is seeded with the node of each process of the system's
    initial state, and one flagged reach query finds the image arcs those
    seeds reach.  A blocking map is seeded with every node of its declared
    domain, which one query finds; its relation already keeps both ends in
    that domain, so its graph is the whole image, which one more query
    finds.  The flagged image is kept for ``tag_graph``.
    """
    mp = model.map_decl(map_name)
    nodes: set[Value] = set()
    if mp.kind != "step":
        nodes.update(compute_finite_values(
            {mp.var: mp.state_sort}, mp.domain, mp.node, backend,
            "domain").values)
    image = _images(model)[(map_name, backend)] = _image(model, map_name,
                                                         backend)
    nodes.update(image.asked or ())
    nodes.update(v for _, v in image.flags)
    return _freeze(nodes, set(image.flags))


def tag_graph(model: Model, map_name: str, g: Graph,
              backend: str = "exhaustive") -> TaggedGraph:
    """Tag every arc of ``g`` with the ordering behavior of each of the
    map's component measures.

    For arc (u, v) and measure o with source/destination measure terms
    (s, d): if no concrete pair on the arc has d >=lex s the measure
    strictly decreases there; failing that, if none has d >lex s it is
    non-increasing; otherwise it may increase.  The flags come from the
    image ``map_graph`` kept for this model object, map and backend, or
    from the same query, run here when there is none; a source node that
    image never asked is asked now (``tag``).  A graph without arcs asks
    nothing.  Image pairs that are not arcs of ``g`` are ignored, and an
    arc with no concrete pair reads strict-dec.
    """
    mp = model.map_decl(map_name)
    tags: dict[tuple[int, int, str], str] = {}
    if g.arcs:
        images = _images(model)
        image = images.get((map_name, backend))
        if image is None:
            image = images[(map_name, backend)] = _image(model, map_name,
                                                         backend)
        if image.asked is not None:
            missing = {g.nodes[i] for (i, _) in g.arcs} - image.asked
            if missing:
                image.flags.update(_image(model, map_name, backend,
                                          missing).flags)
                image.asked |= missing
        for (i, j) in g.arcs:
            got = image.flags.get((g.nodes[i], g.nodes[j]), ())
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


def _first_repeat(items):
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


def graph_from_json(doc) -> Graph:
    """The graph that ``graph_to_json`` wrote as ``doc``.  Entries are read
    as they are, never coerced: anything else raises GraphError."""
    if not isinstance(doc, dict) or doc.get("format") != "wfgraph-graph-v1":
        raise GraphError("not a graph document")
    required = {"nodes": list, "arcs": list}
    if "measures" in doc:
        required.update(measures=list, widths=dict, arc_tags=list)
    for key, kind in required.items():
        if not isinstance(doc.get(key), kind):
            raise GraphError(f"graph {key!r} is missing or not a "
                             f"{kind.__name__}")
    nodes = tuple(value_from_json(n) for n in doc["nodes"])
    twice = _first_repeat(nodes)
    if twice is not None:
        raise GraphError(f"graph lists node {value_text(twice)} twice")
    for a in doc["arcs"]:
        if not (isinstance(a, list) and len(a) == 2 and all(
                type(i) is int and 0 <= i < len(nodes) for i in a)):
            raise GraphError(f"bad arc {a!r} of {len(nodes)} nodes")
    arcs = tuple((i, j) for i, j in doc["arcs"])
    twice = _first_repeat(arcs)
    if twice is not None:
        raise GraphError(f"graph lists arc {list(twice)} twice")
    if "measures" not in doc:
        return Graph(nodes, arcs)
    measures = tuple(doc["measures"])
    widths = doc["widths"]
    if not all(isinstance(m, str) for m in measures):
        raise GraphError("graph measures must be names")
    if not all(type(w) is int for w in widths.values()):
        raise GraphError("graph widths must be integers")
    if len(doc["arc_tags"]) != len(arcs):
        raise GraphError("arc/arc tag count mismatch")
    tags: dict[tuple[int, int, str], str] = {}
    for (i, j), per in zip(arcs, doc["arc_tags"]):
        for name in measures:
            tag = per.get(name) if isinstance(per, dict) else None
            if tag not in ORDER_TAGS:
                raise GraphError(f"unknown order tag {tag!r}")
            tags[(i, j, name)] = tag
    return TaggedGraph(nodes, arcs, measures, dict(widths), tags)


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
