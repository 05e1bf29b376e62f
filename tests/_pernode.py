"""Per-node reference versions of the abstract graph builder.

``wfgraph.absgraph`` builds each graph, and each tagging, from one query
over the whole concrete relation.  These are the per-node loops it
replaced, kept as the oracle its graphs are compared against: a worklist
that asks one step query per reached node (the node fixed through the
``@src`` variable), one relation query per domain node of a blocking map,
and one tag query per source node of a graph.  Every query is total or
raises NotTotal, as the library's are.
"""

from __future__ import annotations

from typing import Optional

from wfgraph.absgraph import (
    MAY_INC, NON_INC, STRICT_DEC, Graph, GraphError, TaggedGraph,
    lex_le_expr, lex_lt_expr)
from wfgraph.enumeration import compute_finite_values
from wfgraph.model import (
    And, BoolV, Const, Eq, Expr, Model, TupleE, Value, Var,
    canonical_sorted, subst_vars, value_text)
from wfgraph.system import relation_parts

SRC_VAR = "@src"


def _freeze(nodes: set[Value], arcs: set[tuple[Value, Value]]) -> Graph:
    ordered = tuple(canonical_sorted(list(nodes)))
    index = {v: i for i, v in enumerate(ordered)}
    return Graph(ordered, tuple(sorted((index[u], index[v])
                                       for (u, v) in arcs)))


def _values(var_sorts, hyp: Expr, trm: Expr, backend: str, what: str):
    return compute_finite_values(var_sorts, hyp, trm, backend, what).values


def reach_graph(model: Model, map_name: str,
                backend: str = "exhaustive") -> Graph:
    """Worklist closure from the initial nodes, one step query per reached
    node."""
    mp, rel, y, var_sorts = relation_parts(model, map_name)
    node = mp.node
    init_trm = subst_vars(node, {mp.var: model.define(model.system.init).body})
    init = _values(var_sorts, Const(BoolV(True)), init_trm, backend, "init")
    step_hyp = And((Eq(node, Var(SRC_VAR)), rel))
    step_trm = subst_vars(node, {mp.var: y})
    nodes: set[Value] = set(init)
    arcs: set[tuple[Value, Value]] = set()
    work = list(init)
    while work:
        u = work.pop()
        sub = {SRC_VAR: Const(u)}
        for v in _values(var_sorts, subst_vars(step_hyp, sub),
                         subst_vars(step_trm, sub), backend, "step"):
            arcs.add((u, v))
            if v not in nodes:
                nodes.add(v)
                work.append(v)
    return _freeze(nodes, arcs)


def rel_graph(model: Model, map_name: str,
              backend: str = "exhaustive") -> Graph:
    """Domain values as nodes, one relation query per domain node."""
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    domain = _values(var_sorts, mp.domain, mp.node, backend, "domain")
    dst_trm = subst_vars(mp.node, {mp.var: dst_state})
    nodes: set[Value] = set(domain)
    arcs: set[tuple[Value, Value]] = set()
    for u in domain:
        for v in _values(var_sorts, And((rel, Eq(mp.node, Const(u)))),
                         dst_trm, backend, "relation"):
            if v not in nodes:
                raise GraphError(
                    f"relation leaves the declared domain: "
                    f"{value_text(u)} -> {value_text(v)}")
            arcs.add((u, v))
    return _freeze(nodes, arcs)


def map_graph(model: Model, map_name: str,
              backend: str = "exhaustive") -> Graph:
    if model.map_decl(map_name).kind == "step":
        return reach_graph(model, map_name, backend)
    return rel_graph(model, map_name, backend)


def tag_graph(model: Model, map_name: str, g: Graph,
              backend: str = "exhaustive") -> TaggedGraph:
    """One tag query per source node u: the distinct (destination node,
    le-<m>, lt-<m> ...) values of pairs whose source maps to u."""
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    items: list[tuple[Optional[str], Expr]] = [
        ("dst", subst_vars(mp.node, {mp.var: dst_state}))]
    for name in mp.measure_names:
        src_e = mp.measure_expr(name)
        dst_e = subst_vars(src_e, {mp.var: dst_state})
        items.append((f"le-{name}", lex_le_expr(src_e, dst_e)))
        items.append((f"lt-{name}", lex_lt_expr(src_e, dst_e)))
    trm = TupleE(tuple(items))
    tags: dict[tuple[int, int, str], str] = {}
    for i in sorted({i for (i, _) in g.arcs}):
        hyp_u = And((rel, Eq(mp.node, Const(g.nodes[i]))))
        held: dict[Value, set[str]] = {}  # dst -> flags true for it
        for q in _values(var_sorts, hyp_u, trm, backend, "tag"):
            (_, dst), *flags = q.items  # type: ignore[union-attr]
            held.setdefault(dst, set()).update(
                f for f, x in flags if x == BoolV(True))
        for j in g.succ_indices(i):
            got = held.get(g.nodes[j], set())
            for name in mp.measure_names:
                tags[(i, j, name)] = (
                    STRICT_DEC if f"le-{name}" not in got
                    else NON_INC if f"lt-{name}" not in got
                    else MAY_INC)
    return TaggedGraph(g.nodes, g.arcs, tuple(mp.measure_names),
                       dict(mp.widths), tags)
