"""Independent certification of abstractions, tags, and measures.

The builder modules construct a tagged graph and synthesize an omap; this
module re-checks everything from the model and the serialized artifacts
without trusting builder state:

  closure            every concrete related pair stays inside the graph's
                     arcs (sources quantified over states mapping into the
                     graph)
  strict-arc/noninc  the order tags are sound against the concrete
                     semantics, arc by arc
  omap-valid         the descriptor mapping decreases lexicographically
                     across every arc, by symbolic entry scan
  measure-decrease   concrete sweep: across every related pair the
                     synthesized bnl and its ordinal strictly drop,
                     checked with the plain evaluator and plain Python
                     comparisons rather than the query pipeline

A Certificate records input hashes and one verdict per check; it passes
only if every check does.  ``iterate_descent`` and
``certify_state_invariant`` are the dynamic companions: one walks a
concrete descent asserting the measure falls each step, the other proves
a claimed state invariant inductive over the reachable abstraction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from .absgraph import (
    NON_INC, SRC_VAR, STRICT_DEC, Graph, GraphError, NotTotal, TaggedGraph,
    comp_map_reach, false_inv_nodes, lex_le_expr, lex_lt_expr,
    relation_parts)
from .enumeration import compute_finite_values
from .measure import Omap
from .model import (
    And, BoolV, Const, Eq, Expr, Model, Not, Or, TupleE, TupleV, Value, Var,
    eval_expr, subst_vars, value_text, value_to_json)
from .ordinals import Ordinal, bnl_lt, bnl_to_ordinal, expand_descriptor, o_lt


class CertificationError(Exception):
    pass


class DescentError(CertificationError):
    """A step failed to decrease the measure: the certificate lied."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    method: str
    witness: Optional[dict] = None


@dataclass(frozen=True)
class Certificate:
    model_sha256: str
    graph_sha256: str
    omap_sha256: str
    map_name: str
    params: tuple[tuple[str, int], ...]
    backend: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def abstraction_functions(model: Model, map_name: str):
    """Concrete evaluators (map_e, map_o) for a map declaration."""
    mp = model.map_decl(map_name)

    def map_e(x: Value) -> Value:
        return eval_expr(mp.node, {mp.var: x})

    def map_o(x: Value, name: str) -> tuple[int, ...]:
        v = eval_expr(mp.measure_expr(name), {mp.var: x})
        assert isinstance(v, TupleV)
        return tuple(item.val for _, item in v.items)  # type: ignore[union-attr]

    return map_e, map_o


def _method(backend: str) -> str:
    return "exhaustive" if backend == "exhaustive" else "sat-emptiness"


def _arc_exprs(model: Model, map_name: str):
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    node_x = mp.node
    node_y = subst_vars(mp.node, {mp.var: dst_state})
    ord_x = {n: mp.measure_expr(n) for n in mp.measure_names}
    ord_y = {n: subst_vars(mp.measure_expr(n), {mp.var: dst_state})
             for n in mp.measure_names}
    return mp, rel, var_sorts, node_x, node_y, ord_x, ord_y


def check_closure(model: Model, map_name: str, g: Graph,
                  backend: str = "exhaustive") -> CheckResult:
    """No concrete related pair may leave the graph: for every node u,
    sources mapping to u only reach destinations among u's successors."""
    _, rel, var_sorts, node_x, node_y, _, _ = _arc_exprs(model, map_name)
    pair = TupleE((("src", node_x), ("dst", node_y)))
    for i, u in enumerate(g.nodes):
        succs = [g.nodes[j] for j in g.succ_indices(i)]
        escape: Expr
        if succs:
            inside = Or(tuple(Eq(node_y, Const(v)) for v in succs))
            escape = Not(inside)
        else:
            escape = Const(BoolV(True))
        hyp = And((rel, Eq(node_x, Const(u)), escape))
        r = compute_finite_values(var_sorts, hyp, pair, 1, backend)
        if r.values:
            w = r.values[0]
            return CheckResult("closure", False, _method(backend),
                               {"pair": value_to_json(w),
                                "pair_text": value_text(w)})
    return CheckResult("closure", True, _method(backend))


def check_arc_tags(model: Model, map_name: str, tg: TaggedGraph,
                   backend: str = "exhaustive") -> list[CheckResult]:
    """Tag soundness, split into the strict and non-increasing halves:
    a strict-dec tag admits no concrete pair whose measure fails to drop,
    a non-inc tag admits none whose measure grows."""
    _, rel, var_sorts, node_x, node_y, ord_x, ord_y = _arc_exprs(
        model, map_name)
    results = {}
    for check_name, bad_tag in (("strict-arc-decrease", STRICT_DEC),
                                ("noninc-arc-nonincrease", NON_INC)):
        witness = None
        for (i, j) in tg.arcs:
            for name in tg.measures:
                if tg.tags[(i, j, name)] != bad_tag:
                    continue
                if bad_tag == STRICT_DEC:
                    # violation: destination measure not below source
                    violation = lex_le_expr(ord_x[name], ord_y[name])
                else:
                    # violation: destination measure above source
                    violation = lex_lt_expr(ord_x[name], ord_y[name])
                hyp = And((rel, Eq(node_x, Const(tg.nodes[i])),
                           Eq(node_y, Const(tg.nodes[j])), violation))
                pair = TupleE((("src-ord", ord_x[name]),
                               ("dst-ord", ord_y[name])))
                r = compute_finite_values(var_sorts, hyp, pair, 1, backend)
                if r.values:
                    witness = {
                        "src": value_text(tg.nodes[i]),
                        "dst": value_text(tg.nodes[j]),
                        "measure": name,
                        "orders": value_to_json(r.values[0]),
                    }
                    break
            if witness:
                break
        results[check_name] = CheckResult(check_name, witness is None,
                                          _method(backend), witness)
    return [results["strict-arc-decrease"],
            results["noninc-arc-nonincrease"]]


def check_omap_valid(tg: TaggedGraph, omap: Omap) -> CheckResult:
    """Symbolic scan: across every arc the descriptors must decrease
    lexicographically, entry by entry, with measure entries judged by
    their tags.  An arc endpoint the omap does not cover fails the check,
    with that node as the witness."""

    def arc_ok(i: int, j: int) -> Optional[str]:
        du = omap.descriptor(tg.nodes[i])
        dv = omap.descriptor(tg.nodes[j])
        for k in range(min(len(du), len(dv))):
            eu, ev = du[k], dv[k]
            if isinstance(eu, int) and isinstance(ev, int):
                if eu > ev:
                    return None
                if eu < ev:
                    return f"entry {k}: rank {eu} < {ev}"
                continue
            if isinstance(eu, str) and isinstance(ev, str) and eu == ev:
                t = tg.tags[(i, j, eu)]
                if t == STRICT_DEC:
                    return None
                if t == NON_INC:
                    continue
                return f"entry {k}: measure {eu} may increase"
            return f"entry {k}: mismatched entries {eu!r} vs {ev!r}"
        return "entries exhausted without a strict decrease"

    covered = set(omap.nodes)
    for (i, j) in tg.arcs:
        missing = [n for n in (tg.nodes[i], tg.nodes[j]) if n not in covered]
        if missing:
            return CheckResult("omap-valid", False, "symbolic-scan", {
                "src": value_text(tg.nodes[i]),
                "dst": value_text(tg.nodes[j]),
                "node": value_text(missing[0]),
                "reason": "node not in omap",
            })
        reason = arc_ok(i, j)
        if reason is not None:
            return CheckResult("omap-valid", False, "symbolic-scan", {
                "src": value_text(tg.nodes[i]),
                "dst": value_text(tg.nodes[j]),
                "reason": reason,
            })
    return CheckResult("omap-valid", True, "symbolic-scan")


def _tuple_field(v: TupleV, name: str) -> Value:
    for n, x in v.items:
        if n == name:
            return x
    raise KeyError(name)


def check_measure_decrease(model: Model, map_name: str, omap: Omap,
                           backend: str = "exhaustive",
                           num: int = 65536) -> CheckResult:
    """Concrete sweep of the synthesized measure across the relation.

    Enumerates the distinct (source node, source measures, destination
    node, destination measures) combinations the relation produces, then
    checks bnl and ordinal strict decrease for each in plain Python; this
    route shares no ordering code with graph construction.  Each side of a
    case, a (node, measure tuples) half-state, recurs across many cases, so
    its padded bnl and ordinal are computed once per distinct half-state;
    ``bnl_lt`` and ``o_lt`` still compare every case, in order.
    """
    mp, rel, var_sorts, node_x, node_y, ord_x, ord_y = _arc_exprs(
        model, map_name)
    in_scope = Or(tuple(Eq(node_x, Const(u)) for u in omap.nodes))
    items: list[tuple[Optional[str], Expr]] = [("src", node_x),
                                               ("dst", node_y)]
    for name in mp.measure_names:
        items.append((f"src-{name}", ord_x[name]))
        items.append((f"dst-{name}", ord_y[name]))
    r = compute_finite_values(var_sorts, And((rel, in_scope)),
                              TupleE(tuple(items)), num, backend)
    if not r.is_total:
        raise NotTotal("measure-decrease sweep", num)
    descs = omap.as_dict()
    bound = omap.bnl_bound
    halves: dict[tuple, tuple[tuple[int, ...], Ordinal]] = {}

    def half(node: Value, prefix: str, q: TupleV
             ) -> tuple[tuple[int, ...], Ordinal]:
        """Padded bnl and ordinal of one side of a case, computed once per
        distinct (node, measure tuples)."""
        ts = tuple(_tuple_field(q, f"{prefix}-{name}")
                   for name in mp.measure_names)
        key = (node, ts)
        got = halves.get(key)
        if got is None:
            vals = {}
            for name, t in zip(mp.measure_names, ts):
                assert isinstance(t, TupleV)
                vals[name] = tuple(x.val for _, x in t.items)  # type: ignore
            e = expand_descriptor(descs[node], vals)
            bnl = tuple(e) + (0,) * (bound - len(e))
            got = halves[key] = (bnl, bnl_to_ordinal(bnl))
        return got

    for q in r.values:
        assert isinstance(q, TupleV)
        src = _tuple_field(q, "src")
        dst = _tuple_field(q, "dst")
        bad = None
        if dst not in descs:
            bad = "destination outside the omap"
        else:
            bx, ox = half(src, "src", q)
            by, oy = half(dst, "dst", q)
            if not bnl_lt(by, bx):
                bad = f"bnl does not decrease: {by} !< {bx}"
            elif not o_lt(oy, ox):
                bad = "ordinal does not decrease"
        if bad is not None:
            return CheckResult("measure-decrease", False, "concrete-sweep", {
                "case": value_text(q), "reason": bad})
    return CheckResult("measure-decrease", True, "concrete-sweep")


def certify_relation(model: Model, map_name: str, tg: TaggedGraph,
                     omap: Omap, model_text: str,
                     backend: str = "exhaustive",
                     num: int = 65536) -> Certificate:
    from .absgraph import graph_text
    from .measure import omap_text
    checks = [check_closure(model, map_name, tg, backend)]
    checks.extend(check_arc_tags(model, map_name, tg, backend))
    checks.append(check_omap_valid(tg, omap))
    checks.append(check_measure_decrease(model, map_name, omap, backend, num))
    return Certificate(
        model_sha256=_sha256(model_text),
        graph_sha256=_sha256(graph_text(tg)),
        omap_sha256=_sha256(omap_text(omap)),
        map_name=map_name,
        params=model.params,
        backend=backend,
        checks=tuple(checks),
    )


def certificate_to_json(c: Certificate) -> dict:
    return {
        "format": "wfgraph-certificate-v1",
        "model_sha256": c.model_sha256,
        "graph_sha256": c.graph_sha256,
        "omap_sha256": c.omap_sha256,
        "map": c.map_name,
        "params": {k: v for k, v in c.params},
        "backend": c.backend,
        "checks": [
            {"name": ch.name, "pass": ch.passed, "method": ch.method,
             "witness": ch.witness}
            for ch in c.checks],
        "pass": c.passed,
    }


def certificate_text(c: Certificate) -> str:
    return json.dumps(certificate_to_json(c), indent=2) + "\n"


def iterate_descent(x0: Value, chooser: Callable[[Value], Optional[Value]],
                    omap: Omap, map_e: Callable, map_o: Callable,
                    max_steps: int = 1_000_000
                    ) -> list[tuple[Value, Ordinal]]:
    """Follow chooser-selected successors, asserting the measure strictly
    falls at every step; returns the list of (state, measure) visited
    after x0.  Termination within max_steps is guaranteed by descent."""
    x = x0
    m = omap.msr(x, map_e, map_o)
    trace: list[tuple[Value, Ordinal]] = []
    for _ in range(max_steps):
        y = chooser(x)
        if y is None:
            return trace
        my = omap.msr(y, map_e, map_o)
        if not o_lt(my, m):
            raise DescentError(
                f"measure failed to decrease at step {len(trace)}: "
                f"{value_text(x)} -> {value_text(y)}")
        trace.append((y, my))
        x, m = y, my
    raise DescentError(f"no normal form within {max_steps} steps")


def certify_state_invariant(model: Model, map_name: str,
                            inv: Optional[Expr] = None,
                            backend: str = "exhaustive", num: int = 4096
                            ) -> tuple[bool, Graph, list[Value]]:
    """Prove a state predicate holds on every reachable abstract node by
    re-running reachability with the predicate as the node's inv field.
    Defaults to the map's own declared inv entry."""
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
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
    node = TupleE(tuple(items))
    sysd = model.system
    init_trm = subst_vars(node, {mp.var: model.define(sysd.init).body})
    step_hyp = And((Eq(node, Var(SRC_VAR)), rel))
    step_trm = subst_vars(node, {mp.var: dst_state})
    g = comp_map_reach(var_sorts, Const(BoolV(True)), init_trm, step_hyp,
                       step_trm, backend, num)
    offenders = false_inv_nodes(g)
    return (not offenders, g, offenders)
