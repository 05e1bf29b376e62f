"""Certification re-checks builder output from scratch; these tests feed it
honest artifacts (both maps must pass) and tampered ones (each check must
catch its own class of lie)."""

import hashlib
import json

import pytest

import wfgraph.certify as certify
from wfgraph.absgraph import (
    MAY_INC, NON_INC, STRICT_DEC, GraphError, TaggedGraph,
    certify_state_invariant, graph_text, map_graph, tag_graph)
from wfgraph.bakery import bakery_model, bakery_text
from wfgraph.certify import (
    Certificate,
    CertificationError,
    DescentError,
    abstraction_functions,
    certificate_text,
    certificate_to_json,
    certify_relation,
    check_arc_tags,
    check_closure,
    check_measure_decrease,
    check_omap_valid,
    iterate_descent,
    relation_cases,
)
from wfgraph.measure import Omap, omap_text, synthesize_omap
from wfgraph.model import (
    BoolV, Const, Eq, TupleV, Var, eval_expr, value_from_json, value_text)
from wfgraph.ordinals import ordinal_text


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


def test_sweep_compares_every_case(nlock_223, monkeypatch):
    # bnls and ordinals are shared between cases, comparisons are not
    m, om = nlock_223
    cases, lt_calls, ord_calls = [], [], []
    real_cfv, real_lt = certify.compute_finite_values, certify.o_lt
    real_ord = certify.bnl_to_ordinal

    def cfv(*args):
        r = real_cfv(*args)
        cases.append(len(r.values))
        return r

    def lt(a, b):
        lt_calls.append(1)
        return real_lt(a, b)

    def to_ord(a):
        ord_calls.append(1)
        return real_ord(a)

    monkeypatch.setattr(certify, "compute_finite_values", cfv)
    monkeypatch.setattr(certify, "o_lt", lt)
    monkeypatch.setattr(certify, "bnl_to_ordinal", to_ord)
    assert check_measure_decrease(
        om, relation_cases(m, "nlock", om.nodes)).passed
    assert len(cases) == 1 and cases[0] > 1000
    assert len(lt_calls) == cases[0]
    assert len(ord_calls) < cases[0] // 4


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


@pytest.mark.parametrize("name, params",
                         [("rank", (2, 2, 3)), ("nlock", (1, 1, 2))],
                         ids=["rank-2,2,3", "nlock-1,1,2"])
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


def test_abstraction_functions(model, rank_parts):
    tg, _ = rank_parts
    map_e, map_o = abstraction_functions(model, "rank")
    init = model.define("init").body
    x0 = eval_expr(init, {})
    assert map_e(x0) == tg.nodes[0]
    assert map_o(x0, "runs") == (2,)
    assert map_o(x0, "loop") == (0,)


def _model_stepper(model):
    """Concrete next-state walker at a pinned shared state, halting on
    done; exercises descent without the scheduler machinery."""
    sysd = model.system
    nxt = model.define(sysd.next)
    done = model.define(sysd.done)
    sh0 = eval_expr(Const(model_default_shared(model)), {})

    def chooser(x):
        if eval_expr(done.apply(Const(x)), {}) == BoolV(True):
            return None
        return eval_expr(nxt.apply(Const(x), Const(sh0)), {})

    return chooser


def model_default_shared(model):
    from wfgraph.model import default_value
    return default_value(model.record_sort(model.system.shared_sort_name))


def test_iterate_descent_happy(model, rank_parts):
    _, om = rank_parts
    map_e, map_o = abstraction_functions(model, "rank")
    x0 = eval_expr(model.define("init").body, {})
    trace = iterate_descent(x0, _model_stepper(model), om, map_e, map_o)
    assert trace, "no steps taken"
    texts = [ordinal_text(m) for _, m in trace]
    assert len(set(texts)) == len(texts)
    final, _ = trace[-1]
    assert eval_expr(model.define("done").apply(Const(final)), {}) \
        == BoolV(True)


def test_iterate_descent_rejects_non_decrease(model, rank_parts):
    _, om = rank_parts
    map_e, map_o = abstraction_functions(model, "rank")
    x0 = eval_expr(model.define("init").body, {})
    with pytest.raises(DescentError):
        iterate_descent(x0, lambda x: x, om, map_e, map_o)
    with pytest.raises(DescentError):
        iterate_descent(x0, _model_stepper(model), om, map_e, map_o,
                        max_steps=0)
    assert issubclass(DescentError, CertificationError)


def test_certify_state_invariant_declared(model):
    ok, g, offenders = certify_state_invariant(model, "rank")
    assert ok and offenders == []
    assert len(g.nodes) == 21


def test_certify_state_invariant_custom(model):
    mp = model.map_decl("rank")
    flags = model.define("phase-flags-ok").apply(Var(mp.var))
    ok, g, offenders = certify_state_invariant(model, "rank", inv=flags)
    assert ok and offenders == []

    from wfgraph.model import Field
    lying = Eq(Field(Var(mp.var), "choosing"), Const(BoolV(True)))
    ok, _, offenders = certify_state_invariant(model, "rank", inv=lying)
    assert not ok and offenders


def test_certify_state_invariant_needs_step_map(model):
    with pytest.raises(GraphError):
        certify_state_invariant(model, "nlock")
