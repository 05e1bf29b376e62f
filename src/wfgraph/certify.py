"""Independent certification of abstractions, tags, and measures.

The builder modules construct a tagged graph and synthesize an omap; this
module re-checks everything from the model and the serialized artifacts
without trusting builder state.  One enumeration query, ``relation_cases``,
sweeps the concrete relation once: the distinct (source node, destination
node, source and destination measures) combinations of related pairs whose
source lies in the graph or the omap.  The cases stay integer columns (a
``veceval.DistinctRows``: each item's distinct values, decoded once, and
one id per case), canonically ordered, so each (source, destination)
pair's cases are one row range.  Four of the five checks read those
columns, with no further queries and no ordering code shared with graph
construction; only a witness case is decoded:

  closure            every case from a graph node lands on one of that
                     node's successors
  strict-arc/noninc  the order tags are sound: on each tagged arc, every
                     case's measure drops (strict-dec) or does not grow
                     (non-inc), comparing ranks of the measures' tuples
  omap-valid         the descriptor mapping decreases lexicographically
                     across every arc, by symbolic entry scan (no query)
  measure-decrease   across every case the synthesized bnl and its
                     ordinal strictly drop; a bnl is built once per
                     distinct half-state, and each distinct (source bnl,
                     destination bnl) pair is compared once

Before the sweep, an omap no bnl can be built from is refused: other
measures or widths than the map's, a node that is not a value of the
map's node sort, or a descriptor entry that is neither a natural nor a
measure name.  A Certificate records input hashes and one verdict per
check; it passes only if every check does.  The relation itself comes from
``system.relation_parts``, which says what the model's `system`
declaration means; from ``absgraph`` this module takes only the graph data
types, the tag names and ``graph_text`` (for the graph's hash), never graph
construction.  The sweep is total or refused: ``compute_finite_values``
raises NotTotal, naming the ``certificate sweep``, rather than return part
of the relation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .absgraph import NON_INC, STRICT_DEC, Graph, TaggedGraph
from .enumeration import compute_finite_values
from .measure import Omap
from .model import (
    And, Const, Eq, Expr, Model, Or, TupleE, TupleV, Value, has_sort,
    sort_text, subst_vars, value_text, value_to_json)
# not called here; the benchmark tracer counts one-shot evaluations at
# ``wfgraph.certify:eval_expr`` and resolves that name by import
from .model import eval_expr  # noqa: F401
from .ordinals import bnl_ranks, bnl_to_ordinal, expand_descriptor, o_lt
from .system import relation_parts
from .veceval import DistinctRows, lex_rank


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


def _nats(t: Value) -> tuple[int, ...]:
    assert isinstance(t, TupleV)
    return tuple(x.val for _, x in t.items)  # type: ignore[union-attr]


SWEEP = "concrete-sweep"


@dataclass(frozen=True)
class Sweep:
    """The sweep's distinct (src, dst, src-<m>, dst-<m>...) cases as integer
    columns, canonically ordered, and each abstract (source, destination)
    pair's row range ``[lo, hi)``, in that order."""
    rows: DistinctRows
    pairs: dict[tuple[Value, Value], tuple[int, int]]


def relation_cases(model: Model, map_name: str, scope: tuple[Value, ...],
                   backend: str = "exhaustive") -> Sweep:
    """The one enumeration behind the relation checks: the distinct (source
    node, destination node, source and destination measures) combinations
    of related pairs whose source maps into ``scope``, canonically ordered.
    """
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    node_x = mp.node
    items: list[tuple[Optional[str], Expr]] = [
        ("src", node_x), ("dst", subst_vars(node_x, {mp.var: dst_state}))]
    for name in mp.measure_names:
        ord_x = mp.measure_expr(name)
        items.append((f"src-{name}", ord_x))
        items.append((f"dst-{name}", subst_vars(ord_x, {mp.var: dst_state})))
    in_scope = Or(tuple(Eq(node_x, Const(u)) for u in scope))
    rows = compute_finite_values(var_sorts, And((rel, in_scope)),
                                 TupleE(tuple(items)), backend,
                                 "certificate sweep").values
    if not rows:
        return Sweep(rows, {})
    # canonical order sorts on src, then dst, so each pair's cases are
    # adjacent: a pair starts wherever either id changes
    src, dst = rows.item_ids[0], rows.item_ids[1]
    cut = (np.flatnonzero((src[1:] != src[:-1]) | (dst[1:] != dst[:-1]))
           + 1).tolist()
    return Sweep(rows, {(rows.item(0, lo), rows.item(1, lo)): (lo, hi)
                        for lo, hi in zip([0] + cut, cut + [len(rows)])})


def check_closure(g: Graph, sweep: Sweep) -> CheckResult:
    """No concrete related pair may leave the graph: for every node u, the
    cases from u only reach u's successors.  The witness is the
    canonically first escaping pair of the first such node."""
    dsts: dict[Value, list[Value]] = {}
    for u, v in sweep.pairs:
        dsts.setdefault(u, []).append(v)
    for i, u in enumerate(g.nodes):
        succs = {g.nodes[j] for j in g.succ_indices(i)}
        for v in dsts.get(u, ()):
            if v not in succs:
                w = TupleV((("src", u), ("dst", v)))
                return CheckResult("closure", False, SWEEP,
                                   {"pair": value_to_json(w),
                                    "pair_text": value_text(w)})
    return CheckResult("closure", True, SWEEP)


def _measure_ranks(rows: DistinctRows, name: str
                   ) -> tuple[int, int, np.ndarray, np.ndarray]:
    """The item indices of measure ``name``'s source and destination
    values, and per case their ranks in one shared order of the measure's
    nat tuples."""
    s, d = rows.names.index(f"src-{name}"), rows.names.index(f"dst-{name}")
    ranks = np.array(bnl_ranks([_nats(x) for k in (s, d)
                                for x in rows.item_values[k]]),
                     dtype=np.int64)
    ns = len(rows.item_values[s])
    return s, d, ranks[:ns][rows.item_ids[s]], ranks[ns:][rows.item_ids[d]]


def check_arc_tags(tg: TaggedGraph, sweep: Sweep) -> list[CheckResult]:
    """Tag soundness, split into the strict and non-increasing halves:
    a strict-dec tag admits no case on its arc whose measure fails to drop,
    a non-inc tag admits none whose measure grows.  Measures compare as
    tuples of naturals, through their ranks, over the arc's row range; the
    witness is the first offending (arc, measure) in arc order, with its
    smallest (source, destination) pair."""
    rows = sweep.rows
    ranked: dict[str, tuple[int, int, np.ndarray, np.ndarray]] = {}
    results = []
    for check_name, bad_tag, holds in (
            ("strict-arc-decrease", STRICT_DEC, np.less),
            ("noninc-arc-nonincrease", NON_INC, np.less_equal)):
        witness = None
        for (i, j) in tg.arcs:
            u, v = tg.nodes[i], tg.nodes[j]
            for name in tg.measures:
                if tg.tags[(i, j, name)] != bad_tag:
                    continue
                span = sweep.pairs.get((u, v))
                if span is None:
                    continue
                if name not in ranked:
                    ranked[name] = _measure_ranks(rows, name)
                s_item, d_item, s_rank, d_rank = ranked[name]
                lo, hi = span
                s, d = s_rank[lo:hi], d_rank[lo:hi]
                bad = np.flatnonzero(~holds(d, s))
                if bad.size:
                    key = s[bad] * (int(d.max()) + 1) + d[bad]
                    row = lo + int(bad[np.argmin(key)])
                    orders = TupleV((("src-ord", rows.item(s_item, row)),
                                     ("dst-ord", rows.item(d_item, row))))
                    witness = {"src": value_text(u), "dst": value_text(v),
                               "measure": name,
                               "orders": value_to_json(orders)}
                    break
            if witness:
                break
        results.append(CheckResult(check_name, witness is None, SWEEP,
                                   witness))
    return results


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


def check_measure_decrease(omap: Omap, sweep: Sweep) -> CheckResult:
    """Strict decrease of the synthesized measure across every case whose
    source the omap covers.

    This route shares no ordering code with graph construction.  A case's
    verdict depends only on its two padded bnls, and each side of a case,
    a (node, measure tuples) half-state, recurs across many cases.  So the
    distinct halves of each side are found over the id columns and each
    one's bnl is built once; the bnls get dense ranks
    (``ordinals.bnl_ranks``), and each distinct (source rank, destination
    rank) pair is compared once: by rank, then by ``o_lt`` on ordinals
    built once per distinct bnl.  The pairs' verdicts are scattered back
    over the cases, and the first failing case in canonical order is the
    witness, the only case decoded.  ``certify_relation`` refuses omaps
    whose bnls cannot be built; called directly on one, this raises
    ``OrdinalError``.
    """
    descs = omap.as_dict()
    bound = omap.bnl_bound
    rows = sweep.rows

    def failed(row: int, reason: str) -> CheckResult:
        return CheckResult("measure-decrease", False, SWEEP, {
            "case": value_text(rows[row]), "reason": reason})

    checked = np.zeros(len(rows), dtype=bool)
    outside = None  # the first case whose destination the omap lacks
    for (u, v), (lo, hi) in sweep.pairs.items():
        if u not in descs:
            continue
        if v not in descs:
            outside = lo
            break
        checked[lo:hi] = True
    at = np.flatnonzero(checked)
    if at.size:
        names = rows.names
        assert names is not None
        bnls: list[tuple[int, ...]] = []  # each distinct half's, both sides
        of = []  # per side, each checked case's half as an index into bnls
        for side in (0, 1):
            cols = [ids[at] for ids in rows.item_ids[side::2]]
            half_of, first = lex_rank(cols, [len(v) for v in
                                             rows.item_values[side::2]])
            of.append(half_of + len(bnls))
            for node, *key in np.column_stack(
                    [c[first] for c in cols]).tolist():
                values = {names[k][4:]: _nats(rows.item_values[k][i])
                          for k, i in zip(range(side + 2, len(names), 2),
                                          key)}
                e = expand_descriptor(descs[rows.item_values[side][node]],
                                      values)
                bnls.append(tuple(e) + (0,) * (bound - len(e)))
        rank = np.array(bnl_ranks(bnls), dtype=np.int64)
        by_rank = dict(zip(rank.tolist(), bnls))
        ords = {r: bnl_to_ordinal(b) for r, b in by_rank.items()}
        n = len(by_rank)
        pairs, pair_of = np.unique(rank[of[0]] * n + rank[of[1]],
                                   return_inverse=True)
        reasons = {}  # each failing pair's, by its index in pairs
        for p, (x, y) in enumerate(zip((pairs // n).tolist(),
                                       (pairs % n).tolist())):
            if y >= x:
                reasons[p] = (f"bnl does not decrease: {by_rank[y]} !< "
                              f"{by_rank[x]}")
            elif not o_lt(ords[y], ords[x]):
                reasons[p] = "ordinal does not decrease"
        if reasons:
            k = int(np.argmax(np.isin(pair_of, list(reasons))))
            return failed(int(at[k]), reasons[int(pair_of[k])])
    if outside is not None:
        return failed(outside, "destination outside the omap")
    return CheckResult("measure-decrease", True, SWEEP)


def certify_relation(model: Model, map_name: str, tg: TaggedGraph,
                     omap: Omap, model_text: str,
                     backend: str = "exhaustive") -> Certificate:
    """Run the five checks.  The relation is enumerated once, from the
    graph's and the omap's nodes; the closure, tag and measure-decrease
    checks all read those cases.  An omap no bnl can be built from (see
    the module docstring) is refused first, with ``CertificationError``."""
    from .absgraph import graph_text
    from .measure import omap_text
    mp = model.map_decl(map_name)
    if omap.measures != mp.measure_names or omap.widths != mp.widths:
        raise CertificationError(
            f"omap measures {list(omap.measures)} with widths "
            f"{dict(omap.widths)} differ from map '{map_name}', which "
            f"declares {list(mp.measure_names)} with widths {mp.widths}")
    for node, desc in omap.descriptors:
        if not has_sort(node, mp.node_sort):
            raise CertificationError(
                f"omap node {json.dumps(value_to_json(node))} is not a "
                f"node of map '{map_name}', of sort "
                f"{sort_text(mp.node_sort)}")
        for e in desc:
            if not (e in mp.measure_names if isinstance(e, str) else
                    isinstance(e, int) and not isinstance(e, bool) and e >= 0):
                raise CertificationError(
                    f"omap descriptor {list(desc)} of {value_text(node)} "
                    f"has entry {e!r}, neither a natural nor a measure name")
    scope = tuple(dict.fromkeys(omap.nodes + tg.nodes))
    sweep = relation_cases(model, map_name, scope, backend)
    checks = [check_closure(tg, sweep)]
    checks.extend(check_arc_tags(tg, sweep))
    checks.append(check_omap_valid(tg, omap))
    checks.append(check_measure_decrease(omap, sweep))
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
