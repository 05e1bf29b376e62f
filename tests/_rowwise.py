"""Row-by-row reference versions of the certifier's sweep checks.

``wfgraph.certify`` checks the sweep over integer columns and decodes only
witnesses.  These are the plain-Python checks it replaced, kept as the
oracle its results are compared against: every case is a decoded
``TupleV``, grouped by (source, destination) pair, and checked one at a
time.
"""

from __future__ import annotations

from itertools import groupby

from wfgraph.absgraph import NON_INC, STRICT_DEC, Graph, TaggedGraph
from wfgraph.certify import SWEEP, CheckResult, Sweep
from wfgraph.measure import Omap
from wfgraph.model import (
    TupleV, Value, canonical_sorted, value_text, value_to_json)
from wfgraph.ordinals import (
    Ordinal, bnl_lt, bnl_to_ordinal, expand_descriptor, o_lt)

# the sweep's decoded (src, dst, src-<m>, dst-<m>...) tuples, grouped by
# abstract (source, destination) pair
RowSweep = dict[tuple[Value, Value], list[TupleV]]


def row_sweep(sweep: Sweep) -> RowSweep:
    """Decode every case and group by pair, reading neither the sweep's
    pair ranges nor its id columns."""
    return {pair: list(group) for pair, group in groupby(
        sweep.rows, key=lambda q: (q.items[0][1], q.items[1][1]))}


def _nats(t: Value) -> tuple[int, ...]:
    assert isinstance(t, TupleV)
    return tuple(x.val for _, x in t.items)  # type: ignore[union-attr]


def _side(q: TupleV, side: str) -> dict[str, tuple[int, ...]]:
    """One side ("src" or "dst") of a sweep case: its measures by name."""
    return {name[len(side) + 1:]: _nats(x) for name, x in q.items[2:]
            if name.startswith(side + "-")}  # type: ignore[union-attr]


def _pair_failure(u: Value, v: Value) -> CheckResult:
    w = TupleV((("src", u), ("dst", v)))
    return CheckResult("closure", False, SWEEP,
                       {"pair": value_to_json(w), "pair_text": value_text(w)})


def check_closure(g: Graph, sweep: RowSweep,
                  roots: tuple[Value, ...]) -> CheckResult:
    """``roots`` are the nodes a step map's relation starts from."""
    for u in canonical_sorted(roots):
        if u not in g.nodes:
            return CheckResult("closure", False, SWEEP, {
                "node": value_to_json(u), "node_text": value_text(u),
                "reason": "initial node not in graph"})
    for u, v in sweep:
        if u not in g.nodes:
            return _pair_failure(u, v)
    for i, u in enumerate(g.nodes):
        succs = {g.nodes[j] for j in g.succ_indices(i)}
        for s, v in sweep:
            if s == u and v not in succs:
                return _pair_failure(u, v)
    return CheckResult("closure", True, SWEEP)


def check_arc_tags(tg: TaggedGraph, sweep: RowSweep) -> list[CheckResult]:
    results = []
    for check_name, bad_tag, holds in (
            ("strict-arc-decrease", STRICT_DEC, lambda s, d: d < s),
            ("noninc-arc-nonincrease", NON_INC, lambda s, d: d <= s)):
        witness = None
        for (i, j) in tg.arcs:
            u, v = tg.nodes[i], tg.nodes[j]
            for name in tg.measures:
                if tg.tags[(i, j, name)] != bad_tag:
                    continue
                src, dst = f"src-{name}", f"dst-{name}"
                ords = [(_nats(q.get(src)), _nats(q.get(dst)), q)
                        for q in sweep.get((u, v), ())]
                bad = [o for o in ords if not holds(o[0], o[1])]
                if bad:
                    q = min(bad, key=lambda o: o[:2])[2]
                    orders = TupleV((("src-ord", q.get(src)),
                                     ("dst-ord", q.get(dst))))
                    witness = {"src": value_text(u), "dst": value_text(v),
                               "measure": name,
                               "orders": value_to_json(orders)}
                    break
            if witness:
                break
        results.append(CheckResult(check_name, witness is None, SWEEP,
                                   witness))
    return results


def check_measure_decrease(omap: Omap, sweep: RowSweep) -> CheckResult:
    descs = omap.as_dict()
    bound = omap.bnl_bound
    halves: dict[Value, dict[tuple, tuple[tuple[int, ...], Ordinal]]] = {}

    def half(node: Value, q: TupleV, side: str, memo: dict
             ) -> tuple[tuple[int, ...], Ordinal]:
        key = q.items[2::2] if side == "src" else q.items[3::2]
        got = memo.get(key)
        if got is None:
            e = expand_descriptor(descs[node], _side(q, side))
            bnl = tuple(e) + (0,) * (bound - len(e))
            got = memo[key] = (bnl, bnl_to_ordinal(bnl))
        return got

    def failed(q: TupleV, reason: str) -> CheckResult:
        return CheckResult("measure-decrease", False, SWEEP, {
            "case": value_text(q), "reason": reason})

    for (u, v), cases in sweep.items():
        if u not in descs:
            continue
        if v not in descs:
            return failed(cases[0], "destination outside the omap")
        memo_u = halves.setdefault(u, {})
        memo_v = halves.setdefault(v, {})
        for q in cases:
            bx, ox = half(u, q, "src", memo_u)
            by, oy = half(v, q, "dst", memo_v)
            if not bnl_lt(by, bx):
                return failed(q, f"bnl does not decrease: {by} !< {bx}")
            if not o_lt(oy, ox):
                return failed(q, "ordinal does not decrease")
    return CheckResult("measure-decrease", True, SWEEP)
