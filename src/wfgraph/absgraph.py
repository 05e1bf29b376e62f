"""Abstract reachable graphs over finite-state models, with order tags.

A graph's nodes are the values an abstraction map's node expression takes;
arcs record which nodes can follow which.  Both come from the image of the
map's concrete relation (``relation_parts``): one enumeration query for
the distinct (node(x), node(y)) pairs of related states x, y.  A step map's
graph keeps what that image reaches from the initial nodes (``reach_graph``);
a blocking map's graph is the image over its declared domain
(``rel_graph``).  ``tag_graph`` tags every arc, per component measure, with
whether the measure strictly decreases, never increases, or may increase
across the concrete pairs the arc abstracts, from one more image query
that carries per-measure order flags.  ``certify_state_invariant`` re-runs
reachability with a claimed state predicate in the node and reports the
reached nodes where it is false.

Every enumeration must be total: a cutoff means the abstraction has more
behavior than the budget and raises NotTotal rather than returning a
partial graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .enumeration import compute_finite_values
from .model import (
    And, BoolV, Const, Eq, Expr, Le, Lt, Model, Not, Or, Sort, TupleE,
    TupleV, Value, Var, canonical_sorted, subst_vars, value_from_json,
    value_text, value_to_json)
from .veceval import DEFAULT_ROW_CAP

# Tag queries take no caller budget.  An exhaustive table never holds more
# distinct values than veceval's row cap, and a SAT query returns at most
# one value per (source node, destination node, tag combination), so this
# bound only guards totality.
TAG_BUDGET = DEFAULT_ROW_CAP + 1

STRICT_DEC = "strict-dec"
NON_INC = "non-inc"
MAY_INC = "may-inc"
ORDER_TAGS = (STRICT_DEC, NON_INC, MAY_INC)


class GraphError(ValueError):
    pass


class NotTotal(GraphError):
    """An enumeration hit its budget before exhausting the value set."""

    def __init__(self, what: str, num: int):
        super().__init__(
            f"{what} enumeration exceeded the budget of {num} values; "
            f"the abstraction is too large or num is too small")
        self.what = what
        self.num = num


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


def false_inv_nodes(g: Graph) -> list[Value]:
    """Reached nodes whose :inv field is false; a non-empty result means
    the claimed state invariant is not inductive on the abstraction."""
    out = []
    for n in g.nodes:
        if isinstance(n, TupleV):
            for name, v in n.items:
                if name == "inv" and v == BoolV(False):
                    out.append(n)
    return out


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

_SHARED_VAR = "@sh"
_OTHER_VAR = "@oth"


def _step_parts(model: Model, map_name: str):
    mp = model.map_decl(map_name)
    if mp.kind != "step":
        raise GraphError(f"map '{map_name}' is not a step map")
    sysd = model.system
    if sysd is None:
        raise GraphError("model has no system declaration")
    a = mp.var
    state = mp.state_sort
    shared = model.record_sort(sysd.shared_sort_name)
    y = model.define(sysd.next).apply(
        *_role_args(model, sysd.next, a, _SHARED_VAR))
    not_done = Not(model.define(sysd.done).apply(
        *_role_args(model, sysd.done, a, _SHARED_VAR)))
    dom_a = mp.domain
    dom_y = subst_vars(mp.domain, {a: y})
    rel = And((not_done, dom_a, dom_y))
    var_sorts: dict[str, Sort] = {a: state, _SHARED_VAR: shared}
    return mp, rel, y, var_sorts


def _role_args(model: Model, define_name: str, state_var: str,
               extra_var: str) -> list[Expr]:
    d = model.define(define_name)
    if len(d.params) == 1:
        return [Var(state_var)]
    return [Var(state_var), Var(extra_var)]


def _image(parts, node: Expr, num: int, backend: str, what: str,
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
    r = compute_finite_values(var_sorts, hyp, TupleE(tuple(items)), num,
                              backend)
    if not r.is_total:
        raise NotTotal(what, num)
    image: dict[tuple[Value, Value], set[str]] = {}
    for q in r.values:
        (_, u), (_, v), *flags = q.items  # type: ignore[union-attr]
        image.setdefault((u, v), set()).update(
            f for f, x in flags if x == BoolV(True))
    return image


def reach_graph(model: Model, map_name: str, backend: str = "exhaustive",
                num: int = 4096) -> Graph:
    """Reachable abstract graph of a step map: initial node from the
    system's init function, arcs from its step relation (undone states
    inside the map domain)."""
    return _reach(model, map_name, model.map_decl(map_name).node, backend,
                  num)


def _reach(model: Model, map_name: str, node: Expr, backend: str,
           num: int) -> Graph:
    """``reach_graph`` with ``node`` as the step map's node expression:
    the init query's nodes, closed under the step relation's image."""
    parts = _step_parts(model, map_name)
    mp, _, _, var_sorts = parts
    init_trm = subst_vars(node, {mp.var: model.define(model.system.init).body})
    r = compute_finite_values(var_sorts, Const(BoolV(True)), init_trm, num,
                              backend)
    if not r.is_total:
        raise NotTotal("init", num)
    succ: dict[Value, list[Value]] = {}
    for u, v in _image(parts, node, num, backend, "step"):
        succ.setdefault(u, []).append(v)
    nodes: set[Value] = set(r.values)
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


def certify_state_invariant(model: Model, map_name: str,
                            inv: Optional[Expr] = None,
                            backend: str = "exhaustive", num: int = 4096
                            ) -> tuple[bool, Graph, list[Value]]:
    """Prove a state predicate holds on every reachable abstract node by
    re-running reachability with the predicate as the node's inv field.
    Defaults to the map's own declared inv entry."""
    mp = model.map_decl(map_name)
    if mp.kind != "step":
        raise GraphError("state invariants certify against a step map")
    items = []
    replaced = False
    for name, e in mp.node.items:
        if name == "inv":
            items.append((name, inv if inv is not None else e))
            replaced = True
        else:
            items.append((name, e))
    if not replaced:
        if inv is None:
            raise GraphError(f"map '{map_name}' declares no inv field")
        items.append(("inv", inv))
    g = _reach(model, map_name, TupleE(tuple(items)), backend, num)
    offenders = false_inv_nodes(g)
    return (not offenders, g, offenders)


def rel_graph(model: Model, map_name: str, backend: str = "exhaustive",
              num: int = 4096) -> Graph:
    """Graph of a blocking map: nodes are the map's domain values, arcs
    the image of the system's blocking relation."""
    if model.map_decl(map_name).kind != "blok":
        raise GraphError(f"map '{map_name}' is not a blocking map")
    parts = relation_parts(model, map_name)
    mp, _, _, var_sorts = parts
    r = compute_finite_values(var_sorts, mp.domain, mp.node, num, backend)
    if not r.is_total:
        raise NotTotal("domain", num)
    nodes: set[Value] = set(r.values)
    image = _image(parts, mp.node, num, backend, "relation")
    for u, v in image:
        if v not in nodes:
            raise GraphError(
                f"relation leaves the declared domain: "
                f"{value_text(u)} -> {value_text(v)}")
    return _freeze(nodes, set(image))


def map_graph(model: Model, map_name: str, backend: str = "exhaustive",
              num: int = 4096) -> Graph:
    mp = model.map_decl(map_name)
    if mp.kind == "step":
        return reach_graph(model, map_name, backend, num)
    return rel_graph(model, map_name, backend, num)


def relation_parts(model: Model, map_name: str):
    """The concrete relation a map abstracts over.

    Returns (map decl, relation hypothesis, destination-state expression,
    query variable sorts).  The source state is the map's own variable;
    for a step map the destination is the next-state expression, for a
    blocking map it is a second free state variable.
    """
    mp = model.map_decl(map_name)
    if mp.kind == "step":
        return _step_parts(model, map_name)
    sysd = model.system
    if sysd is None:
        raise GraphError("model has no system declaration")
    a = mp.var
    blok = model.define(sysd.blok).apply(Var(a), Var(_OTHER_VAR))
    dom_b = subst_vars(mp.domain, {a: Var(_OTHER_VAR)})
    rel = And((blok, mp.domain, dom_b))
    var_sorts: dict[str, Sort] = {a: mp.state_sort, _OTHER_VAR: mp.state_sort}
    return mp, rel, Var(_OTHER_VAR), var_sorts


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
        image = _image(parts, mp.node, TAG_BUDGET, backend, "tag",
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
