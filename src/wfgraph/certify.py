"""Independent certification of abstractions, tags, and measures.

The builder modules construct a tagged graph and synthesize an omap; this
module re-checks everything from what it is handed, the model, a tagged
graph and an omap, without trusting builder state.  One enumeration query,
``relation_cases``, sweeps the concrete relation once: the distinct (source
node, destination node, source and destination measures) combinations of
related pairs.  A step map is swept from the graph's and the omap's
nodes, the pairs whose source lies in them, and its graph must hold the
initial processes' nodes; a blocking map, which has no initial nodes, is
swept over its whole relation.  The cases stay integer columns (a
``veceval.DistinctRows``: each item's distinct values, decoded once, and
one id per case), canonically ordered, so each (source, destination)
pair's cases are one row range.  Four of the five checks read those
columns, with no further queries, and order measures by this module's own
ranker (``_rank_rows``), sharing no ordering code with graph
construction; only a witness case is decoded:

  closure            a step map's initial nodes are graph nodes, and
                     every case starts at a graph node and lands on one
                     of that node's successors
  strict-arc/noninc  the order tags are sound: on each tagged arc, every
                     case's measure drops (strict-dec) or does not grow
                     (non-inc), comparing ranks of the measures' tuples
  omap-valid         the descriptor mapping decreases lexicographically
                     across every arc, by symbolic entry scan (no query)
  measure-decrease   across every case the synthesized bnl and its
                     ordinal strictly drop; the bnls are one int64 matrix,
                     a row per distinct half-state, filled per node, and
                     each distinct (source bnl, destination bnl) pair is
                     compared once

Before the sweep, an omap no bnl can be built from is refused: other
measures or widths than the map's, a node that is not a value of the
map's node sort, or a descriptor entry that is neither a natural below
2**63 nor a measure name.  A Certificate records input hashes and one
verdict per check; it passes only if every check does.  The relation
itself comes from ``system.relation_parts``, which says what the model's
`system` declaration means; from ``absgraph`` this module takes only the
graph data types, the tag names and ``graph_text`` (for the graph's
hash), never graph construction, and from ``veceval`` only the
``DistinctRows`` type.  The sweep is total or refused:
``compute_finite_values`` raises NotTotal, naming the ``certificate
sweep``, rather than return part of the relation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .absgraph import NON_INC, STRICT_DEC, Graph, TaggedGraph, graph_text
from .enumeration import compute_finite_values
from .measure import Omap, omap_text
from .model import (
    And, Const, Eq, Expr, Model, Or, TupleE, TupleV, Value, sort_text,
    subst_vars, value_sort, value_text, value_to_json)
# not called here; the benchmark tracer counts one-shot evaluations at
# ``wfgraph.certify:eval_expr`` and resolves that name by import
from .model import eval_expr  # noqa: F401
from .ordinals import OrdinalError, bnl_to_ordinal, o_lt
from .system import initial_nodes, relation_parts
from .veceval import DistinctRows


class CertificationError(ValueError):
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


def _rank_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense lexicographic rank of each row of ``m``, an int64 matrix of
    naturals, and the first row of each rank.  The columns are narrowed to
    the smallest unsigned type that holds them (numpy radix-sorts narrow
    codes), sorted by one lexsort, and compared column by column."""
    if not m.size:  # no rows, or every row the empty tuple
        return np.zeros(len(m), dtype=np.int64), np.arange(min(len(m), 1))
    cols = m.T.astype(np.min_scalar_type(int(m.max())))
    order = np.lexsort(cols[::-1])
    # a sorted row starts a new rank where any column changes
    new = np.r_[True, np.any([np.diff(c[order]) != 0 for c in cols], axis=0)]
    rank = np.empty(len(m), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


SWEEP = "concrete-sweep"


@dataclass(frozen=True)
class Sweep:
    """The sweep's distinct (src, dst, src-<m>, dst-<m>...) cases as integer
    columns, canonically ordered, and each abstract (source, destination)
    pair's row range ``[lo, hi)``, in that order.  ``roots`` are the nodes
    the relation starts from, canonically ordered: a step map's initial
    processes' nodes; a blocking map has none.  ``nats`` holds each measure
    item's distinct values, by item name, as an int64 matrix of naturals."""
    rows: DistinctRows
    pairs: dict[tuple[Value, Value], tuple[int, int]]
    roots: tuple[Value, ...]
    nats: dict[str, np.ndarray]


def relation_cases(model: Model, map_name: str, scope: tuple[Value, ...],
                   backend: str = "exhaustive") -> Sweep:
    """The one enumeration behind the relation checks: the distinct (source
    node, destination node, source and destination measures) combinations
    of related pairs, canonically ordered.

    A step map's relation is swept from ``scope`` (the graph's and the
    omap's nodes) alone, the pairs whose source maps into it: runs start
    at the initial processes' nodes (the sweep's ``roots``), so once the
    graph holds those and is closed under the cases from its nodes, no
    run reaches a node outside it.  A blocking map's relation has no
    start: every pair in it is one a run may take, so it is swept whole
    and ``scope`` is not read.
    """
    mp, rel, dst_state, var_sorts = relation_parts(model, map_name)
    node_x = mp.node
    items: list[tuple[Optional[str], Expr]] = [
        ("src", node_x), ("dst", subst_vars(node_x, {mp.var: dst_state}))]
    for name in mp.measure_names:
        ord_x = mp.measure_expr(name)
        items.append((f"src-{name}", ord_x))
        items.append((f"dst-{name}", subst_vars(ord_x, {mp.var: dst_state})))
    roots: tuple[Value, ...] = ()
    if mp.kind == "step":
        rel = And((rel, Or(tuple(Eq(node_x, Const(u)) for u in scope))))
        roots = initial_nodes(model, map_name)
    rows = compute_finite_values(var_sorts, rel, TupleE(tuple(items)),
                                 backend, "certificate sweep").values
    if not rows:
        return Sweep(rows, {}, roots, {})
    # canonical order sorts on src, then dst, so each pair's cases are
    # adjacent: a pair starts wherever either id changes
    src, dst = rows.item_ids[0], rows.item_ids[1]
    cut = (np.flatnonzero((src[1:] != src[:-1]) | (dst[1:] != dst[:-1]))
           + 1).tolist()
    nats = {name: np.array([[x.val for _, x in t.items] for t in values],
                           dtype=np.int64)
            for name, values in zip(rows.names[2:], rows.item_values[2:])}
    return Sweep(rows, {(rows.item(0, lo), rows.item(1, lo)): (lo, hi)
                        for lo, hi in zip([0] + cut, cut + [len(rows)])},
                 roots, nats)


def _pair_witness(u: Value, v: Value) -> dict:
    w = TupleV((("src", u), ("dst", v)))
    return {"pair": value_to_json(w), "pair_text": value_text(w)}


def check_closure(g: Graph, sweep: Sweep) -> CheckResult:
    """No run may leave the graph: every root is a graph node, and every
    case's source is a graph node u and its destination one of u's
    successors.  The witness is the canonically first missing root; else
    the canonically first pair whose source is not a graph node; else the
    canonically first escaping pair of the first graph node with one."""
    in_graph = set(g.nodes)
    for u in sweep.roots:
        if u not in in_graph:
            return CheckResult("closure", False, SWEEP, {
                "node": value_to_json(u), "node_text": value_text(u),
                "reason": "initial node not in graph"})
    dsts: dict[Value, list[Value]] = {}
    for u, v in sweep.pairs:
        if u not in in_graph:
            return CheckResult("closure", False, SWEEP, _pair_witness(u, v))
        dsts.setdefault(u, []).append(v)
    for i, u in enumerate(g.nodes):
        succs = {g.nodes[j] for j in g.succ_indices(i)}
        for v in dsts.get(u, ()):
            if v not in succs:
                return CheckResult("closure", False, SWEEP,
                                   _pair_witness(u, v))
    return CheckResult("closure", True, SWEEP)


def check_arc_tags(tg: TaggedGraph, sweep: Sweep) -> list[CheckResult]:
    """Tag soundness, split into the strict and non-increasing halves:
    a strict-dec tag admits no case on its arc whose measure fails to drop,
    a non-inc tag admits none whose measure grows.  Measures compare as
    tuples of naturals, through their ranks (``_rank_rows``), over the
    arc's row range; the witness is the first offending (arc, measure) in
    arc order, with its smallest (source, destination) pair."""
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
                    s_item, d_item = (rows.names.index(f"{side}-{name}")
                                      for side in ("src", "dst"))
                    ns = len(rows.item_values[s_item])
                    # one order of the measure's source and destination values
                    rank, _ = _rank_rows(np.concatenate(
                        [sweep.nats[rows.names[k]] for k in (s_item, d_item)]))
                    ranked[name] = (s_item, d_item,
                                    rank[:ns][rows.item_ids[s_item]],
                                    rank[ns:][rows.item_ids[d_item]])
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
    distinct halves of each side are ranked over the id columns
    (``_rank_rows``), and their bnls are built as one int64 matrix, a row
    per half: the halves of one node, adjacent in rank order, take that
    node's descriptor in one slice each, a constant for a rank entry and
    the halves' rows of the measure's matrix (``Sweep.nats``) for a
    measure.  The bnls are ranked in turn, and each distinct (source
    rank, destination rank) pair is compared once: by rank, then by
    ``o_lt`` on ordinals built once per distinct bnl.  The pairs' verdicts
    are scattered back over the cases, and the first failing case in
    canonical order is the witness, the only case decoded.
    ``certify_relation`` refuses omaps whose bnls cannot be built; called
    directly on one with a negative entry, this raises ``OrdinalError``.
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
        sides = []  # per side, its distinct halves' bnls, a row each
        of = []  # per side, each checked case's half as a row of the bnls
        for side in (0, 1):
            halves = np.stack([ids[at] for ids in rows.item_ids[side::2]],
                              axis=1)
            half_of, first = _rank_rows(halves)
            of.append(half_of + sum(len(b) for b in sides))
            node, *measure = halves[first].T
            # per measure, each half's value as a row of naturals
            by_measure = {name[4:]: sweep.nats[name][ids] for name, ids in
                          zip(names[side + 2::2], measure)}
            bnls = np.zeros((len(first), bound), dtype=np.int64)
            # the halves are in rank order, so each node's are one run
            cut = (np.flatnonzero(node[1:] != node[:-1]) + 1).tolist()
            for lo, hi in zip([0] + cut, cut + [len(node)]):
                at_col = 0
                for e in descs[rows.item_values[side][node[lo]]]:
                    if isinstance(e, str):
                        width = by_measure[e].shape[1]
                        bnls[lo:hi, at_col:at_col + width] = \
                            by_measure[e][lo:hi]
                        at_col += width
                    elif e < 0:
                        raise OrdinalError(f"bnl entry {e!r} is not a natural")
                    else:
                        bnls[lo:hi, at_col] = e
                        at_col += 1
            sides.append(bnls)
        bnls = np.concatenate(sides)
        rank, first = _rank_rows(bnls)
        by_rank = [tuple(b) for b in bnls[first].tolist()]
        ords = [bnl_to_ordinal(b) for b in by_rank]
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
    """Run the five checks.  The relation is enumerated once, a step map's
    from the graph's and the omap's nodes, a blocking map's whole; the
    closure, tag and measure-decrease checks all read those cases.  An
    omap no bnl can be built from (see the module docstring) is refused
    first, with ``CertificationError``."""
    mp = model.map_decl(map_name)
    if omap.measures != mp.measure_names or omap.widths != mp.widths:
        raise CertificationError(
            f"omap measures {list(omap.measures)} with widths "
            f"{dict(omap.widths)} differ from map '{map_name}', which "
            f"declares {list(mp.measure_names)} with widths {mp.widths}")
    for node, desc in omap.descriptors:
        if value_sort(node) != mp.node_sort:
            raise CertificationError(
                f"omap node {json.dumps(value_to_json(node))} is not a "
                f"node of map '{map_name}', of sort "
                f"{sort_text(mp.node_sort)}")
        for e in desc:
            if not (e in mp.measure_names if isinstance(e, str) else
                    isinstance(e, int) and not isinstance(e, bool)
                    and 0 <= e < 1 << 63):
                raise CertificationError(
                    f"omap descriptor {list(desc)} of {value_text(node)} "
                    f"has entry {e!r}, neither a natural below 2**63 nor "
                    f"a measure name")
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
