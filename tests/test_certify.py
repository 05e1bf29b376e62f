"""Certification re-checks builder output from scratch; these tests feed it
honest artifacts (both maps must pass) and tampered ones (each check must
catch its own class of lie)."""

import ast
import dataclasses
import hashlib
import json
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import _rowwise as rowwise
import wfgraph.certify as certify
import wfgraph.system as system
from wfgraph.absgraph import (
    MAY_INC, NON_INC, STRICT_DEC, TaggedGraph, graph_text, map_graph,
    tag_graph)
from wfgraph.bakery import bakery_model, bakery_text
from wfgraph.certify import (
    Certificate,
    certificate_text,
    certificate_to_json,
    certify_relation,
    check_arc_tags,
    check_closure,
    check_measure_decrease,
    check_omap_valid,
    relation_cases,
)
from wfgraph.measure import Omap, omap_text, synthesize_omap
from wfgraph.model import (
    And, Const, Eq, Or, TupleV, code_value, eval_expr, parse_model,
    sort_card, value_from_json, value_text)
from wfgraph.ordinals import OrdinalError


W = 2  # width override keeping concrete sweeps quick


@pytest.fixture(scope="module")
def model():
    return bakery_model(w=W)


@pytest.fixture(scope="module")
def rank_parts(model):
    tg = tag_graph(model, "rank", map_graph(model, "rank"))
    return tg, synthesize_omap(tg)


@pytest.fixture(scope="module")
def nlock_parts(model):
    tg = tag_graph(model, "nlock", map_graph(model, "nlock"))
    return tg, synthesize_omap(tg)


def _verdicts(cert: Certificate) -> dict:
    return {c.name: c.passed for c in cert.checks}


ALL_CHECKS = ("closure", "strict-arc-decrease", "noninc-arc-nonincrease",
              "omap-valid", "measure-decrease")


def test_rank_certifies(model, rank_parts):
    tg, om = rank_parts
    cert = certify_relation(model, "rank", tg, om, bakery_text())
    assert tuple(c.name for c in cert.checks) == ALL_CHECKS
    assert cert.passed
    assert _verdicts(cert) == {name: True for name in ALL_CHECKS}


def test_nlock_certifies(model, nlock_parts):
    tg, om = nlock_parts
    cert = certify_relation(model, "nlock", tg, om, bakery_text())
    assert cert.passed


def _retag(tg: TaggedGraph, arc, measure, tag) -> TaggedGraph:
    tags = dict(tg.tags)
    tags[(arc[0], arc[1], measure)] = tag
    return TaggedGraph(tg.nodes, tg.arcs, tg.measures, tg.widths, tags)


def test_deleted_arc_fails_closure(model, rank_parts):
    tg, om = rank_parts
    arcs = tuple(a for a in tg.arcs if a != (0, 1))
    tags = {k: v for k, v in tg.tags.items() if (k[0], k[1]) != (0, 1)}
    cut = TaggedGraph(tg.nodes, arcs, tg.measures, tg.widths, tags)
    cert = certify_relation(model, "rank", cut, om, bakery_text())
    assert _verdicts(cert) == {
        "closure": False,
        "strict-arc-decrease": True,
        "noninc-arc-nonincrease": True,
        "omap-valid": True,
        "measure-decrease": True,
    }
    closure = cert.checks[0]
    assert closure.witness is not None
    assert "pair_text" in closure.witness


def test_lying_strict_tag_caught_twice(model, rank_parts):
    # claim runs strictly decreases on the 0 -> 1 arc; the arc check
    # catches the tag, and the measure-decrease check catches the omap
    # synthesized from the lie; both read the one concrete sweep
    tg, _ = rank_parts
    lied = _retag(tg, (0, 1), "runs", "strict-dec")
    om = synthesize_omap(lied)
    cert = certify_relation(model, "rank", lied, om, bakery_text())
    assert _verdicts(cert) == {
        "closure": True,
        "strict-arc-decrease": False,
        "noninc-arc-nonincrease": True,
        "omap-valid": True,
        "measure-decrease": False,
    }
    strict = next(c for c in cert.checks if c.name == "strict-arc-decrease")
    assert strict.witness["measure"] == "runs"


def test_lying_noninc_tag_caught(model, rank_parts):
    # the loop counter is reloaded on the 2 -> 3 arc, so non-inc is a lie;
    # synthesis never consults that tag (the arc sits outside the inner
    # loop components), leaving exactly one check to catch it
    tg, om = rank_parts
    lied = _retag(tg, (2, 3), "loop", "non-inc")
    assert synthesize_omap(lied) == om
    cert = certify_relation(model, "rank", lied, om, bakery_text())
    assert _verdicts(cert) == {
        "closure": True,
        "strict-arc-decrease": True,
        "noninc-arc-nonincrease": False,
        "omap-valid": True,
        "measure-decrease": True,
    }


def test_tampered_descriptor_fails_omap_valid(rank_parts):
    tg, om = rank_parts
    descs = list(om.descriptors)
    # raise node 1's rank entry above node 0's
    node, d = descs[1]
    assert d == (4, "runs", 10, 0)
    descs[1] = (node, (4, "runs", 12, 0))
    bad = Omap(tuple(descs), om.measures, om.widths)
    res = check_omap_valid(tg, bad)
    assert not res.passed
    assert "rank" in res.witness["reason"]


def test_omap_valid_rejects_mismatched_entries(rank_parts):
    tg, om = rank_parts
    descs = [(n, ("fuel",) + d[1:] if i == 0 else d)
             for i, (n, d) in enumerate(om.descriptors)]
    res = check_omap_valid(tg, Omap(tuple(descs), om.measures, om.widths))
    assert not res.passed


def test_tampered_omap_fails_concrete_sweep(model, rank_parts):
    # swap two descriptors: the sweep checks real pairs, so it must refuse
    tg, om = rank_parts
    descs = list(om.descriptors)
    descs[0], descs[1] = ((descs[0][0], descs[1][1]),
                          (descs[1][0], descs[0][1]))
    bad = Omap(tuple(descs), om.measures, om.widths)
    res = check_measure_decrease(bad, relation_cases(model, "rank", bad.nodes))
    assert not res.passed
    assert "does not decrease" in res.witness["reason"]


def test_empty_descriptors_tie_every_bnl(model, rank_parts):
    # an omap of empty descriptors builds bnls of length 0: every case ties
    tg, om = rank_parts
    flat = Omap(tuple((node, ()) for node in om.nodes), om.measures,
                om.widths)
    sweep = relation_cases(model, "rank", om.nodes)
    res = check_measure_decrease(flat, sweep)
    assert res == rowwise.check_measure_decrease(flat,
                                                 rowwise.row_sweep(sweep))
    assert res.witness["reason"] == "bnl does not decrease: () !< ()"


@pytest.fixture(scope="module")
def nlock_223():
    m = bakery_model(n=2, r=2, w=3)
    tg = tag_graph(m, "nlock", map_graph(m, "nlock"))
    return m, synthesize_omap(tg)


def test_perturbed_nlock_descriptor_pins_sweep_witness(nlock_223):
    # swap the two measures in one descriptor: the sweep must report the
    # same first failing case and reason text as the per-case computation
    m, om = nlock_223
    descs = list(om.descriptors)
    k = [d for _, d in descs].index((24, "pos", 2, "ndx", 0))
    descs[k] = (descs[k][0], (24, "ndx", 2, "pos", 0))
    bad = Omap(tuple(descs), om.measures, om.widths)
    res = check_measure_decrease(bad, relation_cases(m, "nlock", bad.nodes))
    assert not res.passed
    assert res.witness == {
        "case": "((:src ((:loc 9) (:choosing nil) (:pos-valid t) "
                "(:pos=0 nil) (:inv t))) (:dst ((:loc 10) (:choosing nil) "
                "(:pos-valid t) (:pos=0 nil) (:inv t))) (:src-pos (2)) "
                "(:dst-pos (1)) (:src-ndx (0)) (:dst-ndx (2)))",
        "reason": "bnl does not decrease: (24, 2, 2, 1, 0) !< "
                  "(24, 2, 1, 0, 0)"}


def test_sweep_compares_each_bnl_pair_once(nlock_223, monkeypatch):
    # a case's verdict depends only on its two padded bnls: each distinct
    # (source bnl, destination bnl) pair is compared once, and each
    # distinct bnl's ordinal is built once
    m, om = nlock_223
    sweep = relation_cases(m, "nlock", om.nodes)

    def bnl(q, side):
        return om.mk_bnl(q, lambda q: (q.get(side), {
            name: tuple(x.val for _, x in q.get(f"{side}-{name}").items)
            for name in om.measures}))

    pairs = {(bnl(q, "src"), bnl(q, "dst")) for q in sweep.rows}
    assert len(sweep.rows) == 11264 and len(pairs) == 500
    lt_calls, ord_calls = [], []
    real_lt, real_ord = certify.o_lt, certify.bnl_to_ordinal

    def lt(a, b):
        lt_calls.append(1)
        return real_lt(a, b)

    def to_ord(a):
        ord_calls.append(1)
        return real_ord(a)

    monkeypatch.setattr(certify, "o_lt", lt)
    monkeypatch.setattr(certify, "bnl_to_ordinal", to_ord)
    assert check_measure_decrease(om, sweep).passed
    assert len(lt_calls) == len(pairs)
    assert len(ord_calls) <= len({b for pair in pairs for b in pair})


TOP = (1 << 63) - 1  # the largest natural an omap entry may hold


def test_measure_decrease_matches_rowwise_up_to_int64_max(nlock_223):
    # every nlock descriptor leads with a rank entry: shifting those so the
    # largest is 2**63 - 1 keeps every comparison, so the omap certifies;
    # raising one destination's to 2**63 - 1 makes the cases into it lie
    m, om = nlock_223
    sweep = relation_cases(m, "nlock", om.nodes)
    rows = rowwise.row_sweep(sweep)
    shift = TOP - max(d[0] for _, d in om.descriptors)
    descs = [(node, (d[0] + shift, *d[1:])) for node, d in om.descriptors]
    k = [node for node, _ in descs].index(next(iter(sweep.pairs))[1])
    raised = list(descs)
    raised[k] = (descs[k][0], (TOP, *descs[k][1][1:]))
    verdicts = []
    for d in (descs, raised):
        lie = Omap(tuple(d), om.measures, om.widths)
        got = check_measure_decrease(lie, sweep)
        assert got == rowwise.check_measure_decrease(lie, rows)
        verdicts.append(got.passed)
    assert verdicts == [True, False]


# the certifier's one row ranker against Python's order of tuples; at
# 2**63 - 1, or a dozen wide columns, no mixed-radix int64 key holds a row
RANKER_CASES = {
    "ties": (300, 3, range(3)),
    "one-column": (60, 1, range(10)),
    "one-row": (1, 4, range(10)),
    "int64-max": (200, 3, [0, 1, 1 << 62, TOP - 1, TOP]),
    "wide": (200, 12, [0, 5, 255, 1 << 40, TOP]),
    "no-columns": (5, 0, [0]),
    "no-rows": (0, 3, [0]),
}


@pytest.mark.parametrize("case", RANKER_CASES)
def test_rank_rows_matches_sorted_tuples(case):
    n, k, pool = RANKER_CASES[case]
    m = np.random.default_rng(7).choice(
        np.array(pool, dtype=np.int64), size=(n, k))
    rows = [tuple(r) for r in m.tolist()]
    distinct = sorted(set(rows))
    rank, first = certify._rank_rows(m)
    assert rank.tolist() == [distinct.index(r) for r in rows]
    # one row per rank, the first that holds it
    assert first.tolist() == [rows.index(t) for t in distinct]


def test_closure_passes_standalone(model, rank_parts):
    tg, _ = rank_parts
    assert check_closure(tg, relation_cases(model, "rank", tg.nodes)).passed


@pytest.mark.parametrize("backend", ["exhaustive", "sat"])
def test_certify_relation_sweeps_once(backend, monkeypatch):
    m = bakery_model(n=1, r=1, w=2)
    calls = []
    real_cfv = certify.compute_finite_values

    def cfv(*args):
        calls.append(1)
        return real_cfv(*args)

    for name in ("rank", "nlock"):
        tg = tag_graph(m, name, map_graph(m, name))
        om = synthesize_omap(tg)
        monkeypatch.setattr(certify, "compute_finite_values", cfv)
        calls.clear()
        cert = certify_relation(m, name, tg, om, bakery_text(), backend)
        monkeypatch.undo()
        assert cert.passed
        assert len(calls) == 1
        assert {c.method for c in cert.checks} == {"concrete-sweep",
                                                   "symbolic-scan"}


@pytest.mark.parametrize("entry", [True, 1.5, "fuel", 1 << 63])
def test_unusable_descriptor_entry_is_refused(entry, model, rank_parts,
                                              monkeypatch):
    # a bnl is built only from naturals and the map's own measures, and is
    # held as int64: an omap built in Python with any other entry is
    # refused before the sweep
    tg, om = rank_parts
    (node, desc), *rest = om.descriptors
    bad = Omap(((node, (entry,) + desc[1:]), *rest), om.measures, om.widths)
    monkeypatch.setattr(certify, "compute_finite_values", None)
    with pytest.raises(certify.CertificationError,
                       match=re.escape(f"has entry {entry!r}, neither")):
        certify_relation(model, "rank", tg, bad, bakery_text())


@pytest.mark.parametrize("name, params",
                         [("rank", (2, 2, 3)), ("nlock", (1, 1, 2)),
                          ("nlock", (2, 1, 2))],
                         ids=["rank-2,2,3", "nlock-1,1,2", "nlock-2,1,2"])
def test_backends_agree_on_the_whole_pipeline(name, params):
    m = bakery_model(*params)
    got = {}
    for backend in ("exhaustive", "sat"):
        g = map_graph(m, name, backend)
        tg = tag_graph(m, name, g, backend)
        om = synthesize_omap(tg)
        cert = certify_relation(m, name, tg, om, bakery_text(), backend)
        assert cert.passed, backend
        got[backend] = (graph_text(g), graph_text(tg), omap_text(om),
                        [(c.name, c.passed, c.method) for c in cert.checks])
    assert got["sat"] == got["exhaustive"]


# -- soundness: a graph that leaves out part of the relation, or where the
# relation starts, fails closure


def _drop_node(tg: TaggedGraph, k: int) -> TaggedGraph:
    """``tg`` without node ``k`` and the arcs at it."""
    keep = [i for i in range(len(tg.nodes)) if i != k]
    new = {i: n for n, i in enumerate(keep)}
    return TaggedGraph(
        tuple(tg.nodes[i] for i in keep),
        tuple((new[i], new[j]) for i, j in tg.arcs if k not in (i, j)),
        tg.measures, tg.widths,
        {(new[i], new[j], m): t for (i, j, m), t in tg.tags.items()
         if k not in (i, j)})


@pytest.fixture(scope="module")
def nlock_223_graph():
    m = bakery_model(2, 2, 3)
    return m, tag_graph(m, "nlock", map_graph(m, "nlock"))


@pytest.mark.parametrize("backend", ["exhaustive", "sat"])
def test_dropped_nlock_node_fails_closure(nlock_223_graph, backend):
    # the first node with arcs out, its 16 blocking arcs, and the arcs into
    # it are gone; the omap synthesized from what is left is valid for it,
    # and only the cases from the dropped node show what is missing
    m, tg = nlock_223_graph
    k = min(i for i, _ in tg.arcs)
    assert k == 7 and sum(i == k for i, _ in tg.arcs) == 16
    cut = _drop_node(tg, k)
    cert = certify_relation(m, "nlock", cut, synthesize_omap(cut),
                            bakery_text(), backend)
    assert _verdicts(cert) == {c: c != "closure" for c in ALL_CHECKS}
    src = value_from_json(cert.checks[0].witness["pair"]).get("src")
    assert src == tg.nodes[k]


@pytest.mark.parametrize("backend", ["exhaustive", "sat"])
@pytest.mark.parametrize("name", ["rank", "nlock"])
def test_empty_graph_and_omap_fail_closure(name, backend):
    m = bakery_model(1, 1, 2)
    mp = m.map_decl(name)
    empty = TaggedGraph((), (), mp.measure_names, mp.widths, {})
    cert = certify_relation(m, name, empty,
                            Omap((), mp.measure_names, mp.widths),
                            bakery_text(), backend)
    assert _verdicts(cert) == {c: c != "closure" for c in ALL_CHECKS}
    witness = cert.checks[0].witness
    if name == "rank":  # no step is swept from no node: the root is missing
        assert witness["reason"] == "initial node not in graph"
        init = system.initial_state(m).trs[0]
        assert value_from_json(witness["node"]) == eval_expr(
            mp.node, {mp.var: init})
    else:
        assert "pair_text" in witness


def test_sweep_roots_are_the_initial_nodes(model):
    mp = model.map_decl("rank")
    init = system.initial_state(model).trs
    roots = relation_cases(model, "rank", ()).roots
    assert set(roots) == {eval_expr(mp.node, {mp.var: x}) for x in init}
    assert len(roots) == len(set(roots))
    assert relation_cases(model, "nlock", ()).roots == ()


@pytest.mark.parametrize("backend, params, cases",
                         [("exhaustive", (2, 2, 3), 11264),
                          ("sat", (2, 1, 2), 2816)],
                         ids=["exhaustive-2,2,3", "sat-2,1,2"])
def test_honest_nlock_sweep_equals_the_scoped_sweep(backend, params, cases,
                                                    monkeypatch):
    # a blocking graph holds every source of its relation, so sweeping the
    # whole relation finds just the cases the graph's nodes scope
    m = bakery_model(*params)
    tg = tag_graph(m, "nlock", map_graph(m, "nlock", backend), backend)
    whole = relation_cases(m, "nlock", (), backend)

    def scoped(model, map_name):
        mp, rel, dst, var_sorts = system.relation_parts(model, map_name)
        in_scope = Or(tuple(Eq(mp.node, Const(u)) for u in tg.nodes))
        return mp, And((rel, in_scope)), dst, var_sorts

    monkeypatch.setattr(certify, "relation_parts", scoped)
    part = relation_cases(m, "nlock", (), backend)
    assert len(whole.rows) == cases
    assert list(whole.rows) == list(part.rows)
    assert whole.pairs == part.pairs


@pytest.mark.parametrize("backend, params",
                         [("exhaustive", (2, 2, 3)), ("sat", (2, 1, 2))],
                         ids=["exhaustive-2,2,3", "sat-2,1,2"])
def test_step_map_sweep_equals_the_whole_relation_in_scope(backend, params):
    # a step map's sweep tests each source node against the scope; every
    # value of the node sort as the scope sweeps the whole relation, and a
    # smaller scope must give exactly its sources' cases of that
    m = bakery_model(*params)
    fields = m.map_decl("rank").node_sort.fields
    every = tuple(TupleV(tuple(zip((f for f, _ in fields), vals)))
                  for vals in product(*([code_value(s, k)
                                         for k in range(sort_card(s))]
                                        for _, s in fields)))
    tg = tag_graph(m, "rank", map_graph(m, "rank", backend), backend)
    whole = relation_cases(m, "rank", every, backend)
    # the relation has sources that no run reaches, so the scope drops cases
    assert {u for u, _ in whole.pairs} - set(tg.nodes)
    for scope in (tg.nodes, tg.nodes[:1], ()):
        part = relation_cases(m, "rank", scope, backend)
        assert list(part.rows) == [q for q in whole.rows
                                   if q.items[0][1] in scope]
        # each pair keeps its cases, shifted past the dropped ones
        pairs, at = {}, 0
        for (u, v), (lo, hi) in whole.pairs.items():
            if u in scope:
                pairs[(u, v)] = (at, at + hi - lo)
                at += hi - lo
        assert part.pairs == pairs
        assert part.roots == whole.roots


# -- mutation: each lie about the graph is caught by the check that owns it,
# with a witness naming the lie; honest weakenings pass


@pytest.fixture(scope="module", params=["rank", "nlock"])
def swept(request, model):
    tg = tag_graph(model, request.param, map_graph(model, request.param))
    return tg, relation_cases(model, request.param, tg.nodes)


def _pair_text(u, v) -> str:
    return value_text(TupleV((("src", u), ("dst", v))))


def test_every_deleted_arc_fails_closure(swept):
    tg, sweep = swept
    for a in tg.arcs:
        arcs = tuple(x for x in tg.arcs if x != a)
        cut = TaggedGraph(tg.nodes, arcs, tg.measures, tg.widths, tg.tags)
        res = check_closure(cut, sweep)
        assert not res.passed
        assert res.witness["pair_text"] == _pair_text(tg.nodes[a[0]],
                                                      tg.nodes[a[1]])


PROMOTIONS = {MAY_INC: (NON_INC, STRICT_DEC), NON_INC: (STRICT_DEC,)}
DEMOTIONS = {STRICT_DEC: (NON_INC, MAY_INC), NON_INC: (MAY_INC,)}
OWNER = {STRICT_DEC: "strict-arc-decrease",
         NON_INC: "noninc-arc-nonincrease"}


def test_every_refuted_promotion_fails_its_tag_check(swept):
    tg, sweep = swept
    promoted = 0
    for (i, j) in tg.arcs:
        for name in tg.measures:
            for lie in PROMOTIONS.get(tg.tags[(i, j, name)], ()):
                res = {c.name: c for c in
                       check_arc_tags(_retag(tg, (i, j), name, lie), sweep)}
                bad = res.pop(OWNER[lie])
                (other,) = res.values()
                assert other.passed and not bad.passed
                w = bad.witness
                assert (w["src"], w["dst"], w["measure"]) == (
                    value_text(tg.nodes[i]), value_text(tg.nodes[j]), name)
                orders = value_from_json(w["orders"])
                src = tuple(x.val for _, x in orders.get("src-ord").items)
                dst = tuple(x.val for _, x in orders.get("dst-ord").items)
                assert dst >= src if lie == STRICT_DEC else dst > src
                promoted += 1
    assert promoted > 0


def test_every_demotion_passes_tag_checks(swept):
    tg, sweep = swept
    demoted = 0
    for (i, j) in tg.arcs:
        for name in tg.measures:
            for weaker in DEMOTIONS.get(tg.tags[(i, j, name)], ()):
                res = check_arc_tags(_retag(tg, (i, j), name, weaker), sweep)
                assert all(c.passed for c in res)
                demoted += 1
    assert demoted > 0


def test_certificate_json_and_hashes(model, rank_parts):
    tg, om = rank_parts
    text = bakery_text()
    cert = certify_relation(model, "rank", tg, om, text)
    doc = certificate_to_json(cert)
    assert doc["format"] == "wfgraph-certificate-v1"
    assert doc["pass"] is True
    assert doc["map"] == "rank"
    assert doc["params"] == {"n": 2, "r": 2, "w": W}
    assert doc["backend"] == "exhaustive"
    assert doc["model_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert doc["graph_sha256"] == \
        hashlib.sha256(graph_text(tg).encode()).hexdigest()
    assert doc["omap_sha256"] == \
        hashlib.sha256(omap_text(om).encode()).hexdigest()
    parsed = json.loads(certificate_text(cert))
    assert parsed == doc
    assert all(ch["witness"] is None for ch in doc["checks"])


def test_abstraction(model, rank_parts):
    tg, _ = rank_parts
    abstract = system.abstraction(model, "rank")
    x0 = system.System.compile(model).initial.trs[0]
    assert abstract(x0) == (tg.nodes[0], {"runs": (2,), "loop": (0,)})


def test_abstraction_compiles_each_expression_once(model, monkeypatch):
    x0 = system.System.compile(model).initial.trs[1]
    compiled = []
    compile_expr = system.compile_expr

    def counting(e):
        compiled.append(e)
        return compile_expr(e)

    monkeypatch.setattr(system, "compile_expr", counting)
    mp = model.map_decl("rank")
    abstract = system.abstraction(model, "rank")
    assert compiled == [mp.node] + [e for _, e in mp.measures]
    for _ in range(3):
        node, measures = abstract(x0)
        assert node == eval_expr(mp.node, {mp.var: x0})
        assert list(measures) == list(mp.measure_names)
        for name in mp.measure_names:
            assert measures[name] == tuple(
                x.val for _, x in eval_expr(mp.measure_expr(name),
                                            {mp.var: x0}).items)
    assert len(compiled) == 1 + len(mp.measures)


def _imports(module: str) -> dict[str, set[str]]:
    """Every import in a ``wfgraph`` module's source, nested ones included:
    each module named (``.x`` for a relative one) with the names taken
    from it."""
    tree = ast.parse((Path(certify.__file__).parent / f"{module}.py")
                     .read_text())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            key = "." * node.level + (node.module or "")
            found.setdefault(key, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                found.setdefault(a.name, set())
    return found


def test_trust_boundary_imports():
    # the certifier takes from the graph builder only data types, tag names
    # and the graph's serialization (hashed into the certificate), never
    # graph construction; its query refuses a partial sweep by itself
    found = _imports("certify")
    assert set(found) == {
        "__future__", "hashlib", "json", "dataclasses", "typing", "numpy",
        ".absgraph", ".enumeration", ".measure", ".model", ".ordinals",
        ".system", ".veceval"}
    assert found[".absgraph"] == {"Graph", "TaggedGraph", "STRICT_DEC",
                                  "NON_INC", "graph_text"}
    assert found[".enumeration"] == {"compute_finite_values"}
    assert found[".measure"] == {"Omap", "omap_text"}
    # the certifier orders measures with its own ranker: it takes no
    # ordering code from the builder's evaluator, nor a ranking from
    # ``ordinals``, only the ordinal embedding it checks
    assert found[".veceval"] == {"DistinctRows"}
    assert found[".ordinals"] == {"OrdinalError", "bnl_to_ordinal", "o_lt"}
    # the system layer says what the relation means and where it starts,
    # not how a graph is built
    assert found[".system"] == {"initial_nodes", "relation_parts"}
    # the benchmark tracer resolves ``wfgraph.certify:eval_expr``
    assert "eval_expr" in found[".model"]
    # the system layer, which says what the relation is, stands on the
    # model alone
    assert {m for m in _imports("system")
            if m.startswith((".", "wfgraph"))} == {".model"}
    # the monitor takes only its error type from the certifier
    assert _imports("bakery")[".certify"] == {"DescentError"}


@pytest.mark.parametrize("name", ["rank", "nlock"])
def test_certificate_reads_no_builder_image(name):
    # the builder's graph keeps its flagged image; the certifier runs its
    # own sweep, so its certificate is the same on the builder's model
    # object and on a fresh equal one
    m = bakery_model(1, 1, 2)
    tg = tag_graph(m, name, map_graph(m, name))
    om = synthesize_omap(tg)
    fresh = bakery_model(1, 1, 2)
    after = certify_relation(m, name, tg, om, bakery_text())
    alone = certify_relation(fresh, name, tg, om, bakery_text())
    assert after.passed
    assert certificate_text(after) == certificate_text(alone)


# -- the columnar checks against the row-by-row oracle: identical results,
# witnesses included, on honest and on lying graphs and omaps

ORACLE_CASES = [("exhaustive", (2, 2, 2)), ("exhaustive", (2, 2, 3)),
                ("sat", (1, 1, 2))]


@pytest.fixture(scope="module", params=[
    (backend, params, name) for backend, params in ORACLE_CASES
    for name in ("rank", "nlock")],
    ids=lambda p: f"{p[2]}-{p[0]}-{','.join(map(str, p[1]))}")
def oracle_sweep(request):
    backend, params, name = request.param
    m = bakery_model(*params)
    tg = tag_graph(m, name, map_graph(m, name, backend), backend)
    om = synthesize_omap(tg)
    sweep = relation_cases(m, name, tg.nodes, backend)
    return tg, om, sweep, rowwise.row_sweep(sweep)


def test_closure_matches_rowwise_on_every_deleted_arc(oracle_sweep):
    # and on every dropped node: a graph without an initial node, or
    # without a node on an arc, fails; a blocking map's nodes without arcs
    # have no cases, and may go
    tg, _, sweep, rows = oracle_sweep
    graphs = [tg] + [
        TaggedGraph(tg.nodes, tuple(x for x in tg.arcs if x != a),
                    tg.measures, tg.widths, tg.tags) for a in tg.arcs]
    dropped = [_drop_node(tg, k) for k in range(len(tg.nodes))]
    for g in graphs + dropped:
        assert check_closure(g, sweep) == \
            rowwise.check_closure(g, rows, sweep.roots)
    assert not any(check_closure(g, sweep).passed for g in graphs[1:])
    needed = {k for arc in tg.arcs for k in arc} | {
        tg.nodes.index(u) for u in sweep.roots}
    assert [check_closure(g, sweep).passed for g in dropped] == [
        k not in needed for k in range(len(tg.nodes))]


def test_arc_tags_match_rowwise_on_every_retag(oracle_sweep):
    tg, _, sweep, rows = oracle_sweep
    assert check_arc_tags(tg, sweep) == rowwise.check_arc_tags(tg, rows)
    failing = 0
    for (i, j) in tg.arcs:
        for name in tg.measures:
            for tag in (STRICT_DEC, NON_INC, MAY_INC):
                if tag == tg.tags[(i, j, name)]:
                    continue
                lied = _retag(tg, (i, j), name, tag)
                got = check_arc_tags(lied, sweep)
                assert got == rowwise.check_arc_tags(lied, rows)
                failing += not all(c.passed for c in got)
    assert failing > 0


def _outcome(check, *args):
    """A check's result, or the type and text of what it raised."""
    try:
        return check(*args)
    except OrdinalError as e:
        return type(e), str(e)


def _omap_lies(om: Omap, per_kind: int = 6) -> list[Omap]:
    """Up to ``per_kind`` omaps of each lie, at nodes spread over the omap:
    adjacent descriptors swapped; the two measures of a descriptor
    swapped; a node dropped; a rank entry made negative (a bnl that cannot
    be built); every node given one descriptor (bnls that tie)."""
    descs = list(om.descriptors)
    lies: dict[str, list] = {"swap": [], "measures": [], "drop": [],
                             "negative": [],
                             "flat": [[(node, (0,)) for node, _ in descs]]}
    for k, (node, desc) in enumerate(descs):
        if k + 1 < len(descs):
            nxt = descs[k + 1]
            lies["swap"].append(descs[:k] + [(node, nxt[1]), (nxt[0], desc)]
                                + descs[k + 2:])
        names = [e for e in desc if isinstance(e, str)]
        if len(set(names)) == 2:
            a, b = names
            swapped = tuple({a: b, b: a}.get(e, e) if isinstance(e, str)
                            else e for e in desc)
            lies["measures"].append(descs[:k] + [(node, swapped)]
                                    + descs[k + 1:])
        lies["drop"].append(descs[:k] + descs[k + 1:])
        first = next((i for i, e in enumerate(desc) if isinstance(e, int)),
                     None)
        if first is not None:
            neg = desc[:first] + (-1,) + desc[first + 1:]
            lies["negative"].append(descs[:k] + [(node, neg)] + descs[k + 1:])
    picked = []
    for kind in lies.values():
        step = max(1, len(kind) // per_kind)
        picked.extend(kind[::step])
    return [Omap(tuple(d), om.measures, om.widths) for d in picked]


def test_measure_decrease_matches_rowwise_on_omap_lies(oracle_sweep):
    _, om, sweep, rows = oracle_sweep
    assert check_measure_decrease(om, sweep) == \
        rowwise.check_measure_decrease(om, rows)
    kinds = set()
    for lie in _omap_lies(om):
        got = _outcome(check_measure_decrease, lie, sweep)
        assert got == _outcome(rowwise.check_measure_decrease, lie, rows)
        kinds.add(got[0] if isinstance(got, tuple) else
                  got.passed or got.witness["reason"].split(":")[0])
    assert {"bnl does not decrease", "destination outside the omap",
            OrdinalError} <= kinds


# A step map whose node reads an enum field: the bundled model has none.
# The phases are declared out of alphabetical order, and a node's code is
# its phase's position, so the graph lists wait, work, rest, stop.
JOBS = """(model jobs
  (params (w 2))
  (sort job (phase (enum wait work rest stop)) (left (nat w)) (done bool))
  (sort shared (tick bool))
  (define init ((i (nat 1))) job (tuple (:phase wait) (:left 3) (:done nil)))
  (define next ((a job) (sh shared)) job
    (if (= a.phase wait) (update a :phase work)
      (if (= a.phase work) (update a :phase rest :left (1- a.left))
        (if (= a.phase rest)
            (update a :phase (if (= a.left 0) stop wait))
            (update a :done t)))))
  (define shared-next ((sh shared) (a job)) shared sh)
  (define blok ((a job) (b job)) bool nil)
  (define done ((a job)) bool a.done)
  (map rank ((a job))
    (kind step)
    (node (:phase a.phase) (:left=0 (= a.left 0)) (:done a.done))
    (measure left (tuple a.left)))
  (system (state job) (shared shared) (processes 1) (init init) (next next)
          (shared-next shared-next) (blok blok) (done done)))
"""


def test_enum_node_takes_the_pipeline_alike_on_both_backends():
    m = parse_model(JOBS)
    got = {}
    for backend in ("exhaustive", "sat"):
        tg = tag_graph(m, "rank", map_graph(m, "rank", backend), backend)
        omap = synthesize_omap(tg)
        cert = certify_relation(m, "rank", tg, omap, JOBS, backend)
        assert cert.passed, backend
        got[backend] = (graph_text(tg), omap_text(omap),
                        dataclasses.replace(cert, backend=None))
    assert got["sat"] == got["exhaustive"]
    # tg is the sat backend's tagged graph
    assert [value_text(n.get("phase")) for n in tg.nodes] == [
        "wait", "work", "rest", "rest", "stop", "stop"]
    # the wait, work, rest loop: the work step takes one off left
    assert {(0, 1), (1, 2), (2, 0)} <= set(tg.arcs)
    assert tg.tags[(1, 2, "left")] == STRICT_DEC
    assert tg.tags[(2, 0, "left")] == tg.tags[(0, 1, "left")] == NON_INC
