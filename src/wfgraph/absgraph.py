"""Abstract reachable graphs over finite-state models, with order tags.

A graph's nodes are the values an abstraction map's node expression takes;
arcs record which nodes can follow which.  ``comp_map_reach`` builds the
graph by worklist closure from the initial nodes, ``comp_map_rel`` builds
it from an explicit binary relation over a declared domain, and
``comp_map_order`` tags every arc, per component measure, with whether the
measure strictly decreases, never increases, or may increase across the
concrete pairs the arc abstracts.  Tagging asks one query per source
node, covering all of its arcs and measures at once.
``certify_state_invariant`` re-runs reachability with a claimed state
predicate in the node and reports the reached nodes where it is false.

Reachability queries reference the current source node through the
reserved variable ``@src``; this module substitutes the concrete node
value before enumeration.  Every enumeration must be total: a cutoff
means the abstraction has more behavior than the budget and raises
NotTotal rather than returning a partial graph.
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

SRC_VAR = "@src"

# Tag queries take no caller budget.  An exhaustive table never holds more
# distinct values than veceval's row cap, and a SAT query returns at most
# one value per (destination node, tag combination), so this bound only
# guards totality.
TAG_BUDGET = DEFAULT_ROW_CAP + 1

STRICT_DEC = "strict-dec"
NON_INC = "non-inc"
MAY_INC = "may-inc"
ORDER_TAGS = (STRICT_DEC, NON_INC, MAY_INC)


class GraphError(ValueError):
    pass


class NotTotal(GraphError):
    """An enumeration hit its budget before exhausting the value set."""

    def __init__(self, what: str, num: int, node: Optional[Value] = None):
        at = f" at node {value_text(node)}" if node is not None else ""
        super().__init__(
            f"{what} enumeration{at} exceeded the budget of {num} values; "
            f"the abstraction is too large or num is too small")
        self.what = what
        self.num = num
        self.node = node


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

    def nexts(self, u: Value) -> list[Value]:
        return [self.nodes[j] for j in self.succ_indices(self.node_index(u))]

    def succ_indices(self, i: int) -> list[int]:
        return list(self._succ.get(i, ()))


@dataclass(frozen=True)
class TaggedGraph(Graph):
    measures: tuple[str, ...] = ()
    widths: dict[str, int] = field(default_factory=dict)
    tags: dict[tuple[int, int, str], str] = field(default_factory=dict)


def chk_ord_arc(g: TaggedGraph, u: Value, v: Value, measure: str) -> str:
    key = (g.node_index(u), g.node_index(v), measure)
    if key not in g.tags:
        raise GraphError(
            f"no tag for arc {value_text(u)} -> {value_text(v)} "
            f"measure {measure!r}")
    return g.tags[key]


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


def comp_map_reach(var_sorts: dict[str, Sort], init_hyp: Expr,
                   init_trm: Expr, step_hyp: Expr, step_trm: Expr,
                   backend: str = "exhaustive", num: int = 4096) -> Graph:
    """Worklist closure: nodes = init values plus everything step values
    reach; ``step_hyp``/``step_trm`` see the current node as ``@src``."""
    r = compute_finite_values(var_sorts, init_hyp, init_trm, num, backend)
    if not r.is_total:
        raise NotTotal("init", num)
    nodes: set[Value] = set(r.values)
    arcs: set[tuple[Value, Value]] = set()
    work = list(r.values)
    while work:
        u = work.pop()
        sub = {SRC_VAR: Const(u)}
        hyp_u = subst_vars(step_hyp, sub)
        trm_u = subst_vars(step_trm, sub)
        ru = compute_finite_values(var_sorts, hyp_u, trm_u, num, backend)
        if not ru.is_total:
            raise NotTotal("step", num, u)
        for v in ru.values:
            arcs.add((u, v))
            if v not in nodes:
                nodes.add(v)
                work.append(v)
    return _freeze(nodes, arcs)


def comp_map_rel(var_sorts: dict[str, Sort], dom_hyp: Expr, dom_trm: Expr,
                 rel_hyp: Expr, src_trm: Expr, dst_trm: Expr,
                 backend: str = "exhaustive", num: int = 4096) -> Graph:
    """Graph of an explicit relation: nodes are the domain values, arcs
    (u, v) exist when some concrete pair related by ``rel_hyp`` maps to
    them."""
    r = compute_finite_values(var_sorts, dom_hyp, dom_trm, num, backend)
    if not r.is_total:
        raise NotTotal("domain", num)
    nodes: set[Value] = set(r.values)
    arcs: set[tuple[Value, Value]] = set()
    for u in r.values:
        hyp_u = And((rel_hyp, Eq(src_trm, Const(u))))
        ru = compute_finite_values(var_sorts, hyp_u, dst_trm, num, backend)
        if not ru.is_total:
            raise NotTotal("relation", num, u)
        for v in ru.values:
            if v not in nodes:
                raise GraphError(
                    f"relation leaves the declared domain: "
                    f"{value_text(u)} -> {value_text(v)}")
            arcs.add((u, v))
    return _freeze(nodes, arcs)


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


def comp_map_order(g: Graph, var_sorts: dict[str, Sort], rel_hyp: Expr,
                   src_trm: Expr, dst_trm: Expr,
                   ord_trms: dict[str, tuple[Expr, Expr]],
                   measures: tuple[str, ...], widths: dict[str, int],
                   backend: str = "exhaustive") -> TaggedGraph:
    """Tag every arc of ``g`` with the ordering behavior of each measure.

    For arc (u, v) and measure o with source/destination measure terms
    (s, d): if no concrete pair on the arc has d >=lex s the measure
    strictly decreases there; failing that, if none has d >lex s it is
    non-increasing; otherwise it may increase.

    One query per source node u enumerates the distinct (destination
    node, s <=lex d, s <lex d per measure) combinations of pairs related
    by ``rel_hyp`` whose source maps to u.  Destinations that are not
    successors of u in ``g`` are ignored, and a successor with no
    concrete pair reads strict-dec.
    """
    tags: dict[tuple[int, int, str], str] = {}
    items: list[tuple[Optional[str], Expr]] = [("dst", dst_trm)]
    for name in measures:
        src_e, dst_e = ord_trms[name]
        items.append((f"le-{name}", lex_le_expr(src_e, dst_e)))
        items.append((f"lt-{name}", lex_lt_expr(src_e, dst_e)))
    trm = TupleE(tuple(items))
    for i in sorted({i for (i, _) in g.arcs}):
        u = g.nodes[i]
        hyp_u = And((rel_hyp, Eq(src_trm, Const(u))))
        r = compute_finite_values(var_sorts, hyp_u, trm, TAG_BUDGET,
                                  backend)
        if not r.is_total:
            raise NotTotal("tag", TAG_BUDGET, u)
        held: dict[Value, set[str]] = {}  # dst -> flags true for it
        for q in r.values:
            (_, dst), *flags = q.items  # type: ignore[union-attr]
            held.setdefault(dst, set()).update(
                f for f, x in flags if x == BoolV(True))
        for j in g.succ_indices(i):
            got = held.get(g.nodes[j], set())
            for name in measures:
                tags[(i, j, name)] = (
                    STRICT_DEC if f"le-{name}" not in got
                    else NON_INC if f"lt-{name}" not in got
                    else MAY_INC)
    return TaggedGraph(g.nodes, g.arcs, tuple(measures), dict(widths), tags)


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
    return mp, y, rel, var_sorts


def _role_args(model: Model, define_name: str, state_var: str,
               extra_var: str) -> list[Expr]:
    d = model.define(define_name)
    if len(d.params) == 1:
        return [Var(state_var)]
    return [Var(state_var), Var(extra_var)]


def reach_graph(model: Model, map_name: str, backend: str = "exhaustive",
                num: int = 4096) -> Graph:
    """Reachable abstract graph of a step map: initial node from the
    system's init function, arcs from its step relation (undone states
    inside the map domain)."""
    return _reach(model, map_name, model.map_decl(map_name).node, backend,
                  num)


def _reach(model: Model, map_name: str, node: Expr, backend: str,
           num: int) -> Graph:
    """``reach_graph`` with ``node`` as the step map's node expression."""
    mp, y, rel, var_sorts = _step_parts(model, map_name)
    init_trm = subst_vars(node, {mp.var: model.define(model.system.init).body})
    step_hyp = And((Eq(node, Var(SRC_VAR)), rel))
    step_trm = subst_vars(node, {mp.var: y})
    return comp_map_reach(var_sorts, Const(BoolV(True)), init_trm,
                          step_hyp, step_trm, backend, num)


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
    """Graph of a blocking map: nodes are the map's domain, arcs follow
    the system's blocking relation."""
    if model.map_decl(map_name).kind != "blok":
        raise GraphError(f"map '{map_name}' is not a blocking map")
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    dst_trm = subst_vars(mp.node, {mp.var: dst_state})
    return comp_map_rel(var_sorts, mp.domain, mp.node, rel, mp.node,
                        dst_trm, backend, num)


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
        _, y, rel, var_sorts = _step_parts(model, map_name)
        return mp, rel, y, var_sorts
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
    """Order-tag an abstract graph using the map's component measures."""
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    node_dst = subst_vars(mp.node, {mp.var: dst_state})
    ord_trms = {
        name: (mp.measure_expr(name),
               subst_vars(mp.measure_expr(name), {mp.var: dst_state}))
        for name in mp.measure_names}
    return comp_map_order(g, var_sorts, rel, mp.node, node_dst, ord_trms,
                          mp.measure_names, mp.widths, backend)


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
