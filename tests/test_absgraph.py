"""Abstract graph construction and order tagging on the bundled model.

The progress graph (rank) and the blocking graph (nlock) are pinned against
frozen tables; a brute-force sweep with the native mirror
(``_native_bakery``) double-checks the reachability closure on a small
instance, and the per-node loops that the relation sweeps replaced
(``_pernode``) are the oracle for graphs and tags.
"""

import itertools
from collections import Counter

import pytest

import _pernode as pernode
from _native_bakery import BakeSh, BakeTr, bake_init, bake_tr_next
import wfgraph.absgraph as absgraph
from wfgraph import enumeration
from wfgraph.absgraph import (
    Graph,
    GraphError,
    NotTotal,
    TaggedGraph,
    graph_from_json,
    graph_to_dot,
    graph_text,
    graph_to_json,
    lex_le_expr,
    lex_lt_expr,
    map_graph,
    tag_graph,
)
from wfgraph.bakery import bakery_model, bakery_text
from wfgraph.certify import relation_cases
from wfgraph.enumeration import BACKENDS, compute_finite_values
from wfgraph.model import (
    And,
    BoolV,
    NatSort,
    NatV,
    Not,
    TupleE,
    TupleV,
    Var,
    eval_expr,
    parse_model,
    subst_vars,
    value_text,
)


@pytest.fixture(scope="module")
def model():
    return bakery_model()


@pytest.fixture(scope="module")
def rank_tg(model):
    g = map_graph(model, "rank")
    return tag_graph(model, "rank", g)


@pytest.fixture(scope="module")
def nlock_tg(model):
    g = map_graph(model, "nlock")
    return tag_graph(model, "nlock", g)


# (loc, done, loop=0, runs=0) of each node, in canonical node order; the
# :inv field is True everywhere so it is left out of the key
RANK_NODES = [
    (0, False, True, False),
    (1, False, True, False),
    (2, False, True, False),
    (3, False, False, False),
    (4, False, False, False),
    (5, False, False, False),
    (5, False, True, False),
    (6, False, True, False),
    (7, False, True, False),
    (8, False, False, False),
    (9, False, False, False),
    (10, False, False, False),
    (11, False, False, False),
    (12, False, False, False),
    (12, False, True, False),
    (13, False, True, False),
    (14, False, True, False),
    (15, False, True, False),
    (15, False, True, True),
    (16, False, True, True),
    (17, True, True, True),
]

# arc -> (runs tag, loop tag)
RANK_TAGS = {
    (0, 1): ("non-inc", "non-inc"),
    (1, 2): ("non-inc", "non-inc"),
    (2, 3): ("non-inc", "may-inc"),
    (3, 4): ("non-inc", "non-inc"),
    (4, 5): ("non-inc", "strict-dec"),
    (4, 6): ("non-inc", "strict-dec"),
    (5, 3): ("non-inc", "non-inc"),
    (6, 7): ("non-inc", "non-inc"),
    (7, 8): ("non-inc", "non-inc"),
    (8, 9): ("non-inc", "may-inc"),
    (9, 10): ("non-inc", "non-inc"),
    (10, 11): ("non-inc", "non-inc"),
    (11, 12): ("non-inc", "non-inc"),
    (12, 13): ("non-inc", "strict-dec"),
    (12, 14): ("non-inc", "strict-dec"),
    (13, 9): ("non-inc", "non-inc"),
    (14, 15): ("non-inc", "non-inc"),
    (15, 16): ("non-inc", "non-inc"),
    (16, 17): ("strict-dec", "non-inc"),
    (16, 18): ("strict-dec", "non-inc"),
    (17, 0): ("non-inc", "non-inc"),
    (18, 19): ("non-inc", "non-inc"),
    (19, 20): ("non-inc", "non-inc"),
}


def rank_key(n: TupleV):
    return (n.get("loc").val, n.get("done").val, n.get("loop=0").val,
            n.get("runs=0").val)


def test_rank_graph_frozen(rank_tg):
    assert len(rank_tg.nodes) == 21
    assert [rank_key(n) for n in rank_tg.nodes] == RANK_NODES
    assert all(n.get("inv") == BoolV(True) for n in rank_tg.nodes)
    assert rank_tg.arcs == tuple(sorted(RANK_TAGS))
    assert rank_tg.measures == ("runs", "loop")
    assert rank_tg.widths == {"runs": 1, "loop": 1}
    for (i, j), (truns, tloop) in RANK_TAGS.items():
        assert rank_tg.tags[(i, j, "runs")] == truns, (i, j)
        assert rank_tg.tags[(i, j, "loop")] == tloop, (i, j)


def test_nlock_graph_facts(nlock_tg):
    # domain: every loc (choosing/pos-valid pinned by phase-flags-ok) split
    # by whether pos is zero
    assert len(nlock_tg.nodes) == 64
    assert len(nlock_tg.arcs) == 62
    assert nlock_tg.measures == ("pos", "ndx")

    def loc(i):
        return nlock_tg.nodes[i].get("loc").val

    srcs = Counter(loc(i) for (i, _) in nlock_tg.arcs)
    assert dict(srcs) == {3: 16, 8: 14, 9: 16, 10: 16}

    # arcs out of loc 3 require pos = 0 at the source, so the other loc-3
    # node is a non-source
    for i, n in enumerate(nlock_tg.nodes):
        if loc(i) == 3:
            has_out = any(s == i for (s, _) in nlock_tg.arcs)
            assert has_out == (n.get("pos=0") == BoolV(True))

    # destination locs follow the blocking predicate's guards
    def dst_locs(src_loc):
        return sorted({loc(j) for (i, j) in nlock_tg.arcs if loc(i) == src_loc})

    assert dst_locs(3) == [6, 7, 8, 9, 10, 11, 12, 13]   # pos-valid span
    assert dst_locs(8) == [1, 2, 3, 4, 5, 6, 7]          # choosing span
    assert dst_locs(9) == [6, 7, 8, 9, 10, 11, 12, 13]
    assert dst_locs(10) == [6, 7, 8, 9, 10, 11, 12, 13]

    profile = Counter()
    for (i, j) in nlock_tg.arcs:
        tags = tuple(nlock_tg.tags[(i, j, m)] for m in nlock_tg.measures)
        profile[(loc(i), tags)] += 1
    assert dict(profile) == {
        (3, ("may-inc", "may-inc")): 8,
        (3, ("non-inc", "may-inc")): 8,
        (8, ("may-inc", "may-inc")): 14,
        (9, ("strict-dec", "may-inc")): 16,
        (10, ("non-inc", "strict-dec")): 16,
    }


def test_reach_graph_matches_native_sweep():
    # brute force over the whole concrete domain with the native mirror,
    # then worklist closure from the initial node; must equal the tool's
    # graph exactly
    n, r, w = 1, 1, 2
    g = map_graph(bakery_model(n=n, r=r, w=w), "rank")

    def native_node(a):
        return (a.loc, a.done, a.loop == 0, a.runs == 0, True)

    arcs_by_src = {}
    bools = (False, True)
    for loc, ch, temp, pos, pv, loop, runs, ndx in itertools.product(
            range(32), bools, range(1 << w), range(1 << w), bools,
            range(2), range(2), range(2)):
        a = BakeTr(loc, ch, temp, pos, pv, loop, runs, False, ndx)
        u = native_node(a)
        for mx in range(1 << w):
            b = bake_tr_next(a, BakeSh(mx), n, w)
            arcs_by_src.setdefault(u, set()).add(native_node(b))

    start = native_node(bake_init(n, r).trs[0])
    reached = {start}
    work = [start]
    arcs = set()
    while work:
        u = work.pop()
        for v in arcs_by_src.get(u, ()):
            arcs.add((u, v))
            if v not in reached:
                reached.add(v)
                work.append(v)

    def from_value(nv):
        return (nv.get("loc").val, nv.get("done").val, nv.get("loop=0").val,
                nv.get("runs=0").val, nv.get("inv").val)

    assert {from_value(x) for x in g.nodes} == reached
    assert {(from_value(g.nodes[i]), from_value(g.nodes[j]))
            for (i, j) in g.arcs} == arcs


def test_backends_agree_on_rank_graph():
    m = bakery_model(w=2)
    ge = map_graph(m, "rank", backend="exhaustive")
    gs = map_graph(m, "rank", backend="sat")
    assert ge == gs
    assert tag_graph(m, "rank", ge, backend="exhaustive") \
        == tag_graph(m, "rank", gs, backend="sat")


def test_graph_and_tagging_each_sweep_once(model, monkeypatch):
    # a graph is one init or domain query plus one relation sweep, and a
    # tagging one sweep; a graph without arcs needs no tag query
    graphs = {name: map_graph(model, name) for name in ("rank", "nlock")}
    calls = []

    def counting(var_sorts, hyp, trm, backend, what):
        calls.append(backend)
        return compute_finite_values(var_sorts, hyp, trm, backend, what)

    monkeypatch.setattr(absgraph, "compute_finite_values", counting)
    for name, g in graphs.items():
        calls.clear()
        assert map_graph(model, name) == g
        assert len(calls) == 2, name
        calls.clear()
        tag_graph(model, name, g)
        assert len(calls) == 1, name
        calls.clear()
        assert tag_graph(model, name, Graph(g.nodes, ())).tags == {}
        assert calls == [], name


# rank and nlock on these (backend, (n, r, w)) are built by the relation
# sweeps and by the per-node loops they replaced (tests/_pernode.py)
ORACLE_CASES = [("exhaustive", (2, 2, 2)), ("exhaustive", (2, 2, 3)),
                ("sat", (1, 1, 2))]


@pytest.mark.parametrize("name", ["rank", "nlock"])
@pytest.mark.parametrize("backend,params", ORACLE_CASES, ids=[
    f"{backend}-{','.join(map(str, params))}"
    for backend, params in ORACLE_CASES])
def test_sweeps_match_pernode_oracle(backend, params, name):
    # the same graph text, and the same tagged-graph text on the honest
    # graph, with its first arc deleted, and with one extra arc that no
    # concrete pair takes
    m = bakery_model(*params)
    g = map_graph(m, name, backend)
    assert graph_text(g) == graph_text(pernode.map_graph(m, name, backend))
    arcs = set(g.arcs)
    extra = next((i, j) for i in range(len(g.nodes))
                 for j in range(len(g.nodes)) if (i, j) not in arcs)
    for arc_set in (g.arcs, g.arcs[1:], tuple(sorted(arcs | {extra}))):
        h = Graph(g.nodes, arc_set)
        assert graph_text(tag_graph(m, name, h, backend)) \
            == graph_text(pernode.tag_graph(m, name, h, backend))


@pytest.mark.parametrize("name", ["rank", "nlock"])
def test_backends_agree_on_tags_of_edited_graphs(name):
    # exhaustive against sat tags on the honest graph, with its first arc
    # deleted, and with one extra arc that no concrete pair takes
    m = bakery_model(n=1, r=1, w=2)
    g = map_graph(m, name)
    arcs = set(g.arcs)
    extra = next((i, j) for i in range(len(g.nodes))
                 for j in range(len(g.nodes)) if (i, j) not in arcs)
    tagged = []
    for arc_set in (g.arcs, g.arcs[1:], tuple(sorted(arcs | {extra}))):
        h = Graph(g.nodes, arc_set)
        te = tag_graph(m, name, h, backend="exhaustive")
        assert te == tag_graph(m, name, h, backend="sat")
        tagged.append(te)
    with_extra = tagged[-1]
    assert all(with_extra.tags[extra + (msr,)] == "strict-dec"
               for msr in with_extra.measures)


def test_graph_json_roundtrip(rank_tg):
    doc = graph_to_json(rank_tg)
    assert doc["format"] == "wfgraph-graph-v1"
    assert doc["node_texts"][0] == value_text(rank_tg.nodes[0])
    assert graph_from_json(doc) == rank_tg

    plain = Graph(rank_tg.nodes, rank_tg.arcs)
    assert graph_from_json(graph_to_json(plain)) == plain

    with pytest.raises(GraphError):
        graph_from_json({"format": "something-else"})
    bad = graph_to_json(rank_tg)
    bad["arc_tags"][0]["runs"] = "sideways"
    with pytest.raises(GraphError):
        graph_from_json(bad)


def test_not_total_budgets(model, monkeypatch):
    # every query runs under the one value bound; set low, it names the
    # query that reached it.  At (2,2,3) rank's init query has 1 value and
    # its step image 134; nlock's domain has 64, its tag image 196, and its
    # certificate sweep 11,264 cases
    for backend in BACKENDS:
        for bound, name, what in ((1, "rank", "init"), (2, "rank", "step"),
                                  (10, "nlock", "domain"),
                                  (100, "nlock", "tag")):
            monkeypatch.setattr(enumeration, "VALUE_BOUND", bound)
            with pytest.raises(NotTotal) as e:
                tag_graph(model, name, map_graph(model, name, backend),
                          backend)
            assert (e.value.what, e.value.num) == (what, bound)
            assert str(e.value) == (
                f"{what} enumeration exceeded the bound of {bound} values; "
                f"the abstraction is too large")
    monkeypatch.setattr(enumeration, "VALUE_BOUND", 1000)
    tg = tag_graph(model, "nlock", map_graph(model, "nlock"))
    with pytest.raises(NotTotal) as e:
        relation_cases(model, "nlock", tg.nodes)
    assert (e.value.what, e.value.num) == ("certificate sweep", 1000)


def test_blocking_graph_stays_in_its_domain():
    # narrow nlock's domain to states that are not choosing: five source
    # nodes then have a blocker outside the domain, and the relation keeps
    # only pairs with both ends inside it, so the graph's nodes are exactly
    # the domain query's and no arc leaves them
    text = bakery_text()
    narrowed = text.replace(
        "(domain (phase-flags-ok a))",
        "(domain (and (phase-flags-ok a) (not a.choosing)))")
    assert narrowed != text
    m = parse_model(narrowed, {"n": 2, "r": 2, "w": 3})
    mp = m.map_decl("nlock")
    state = {mp.var: mp.state_sort}
    domain = compute_finite_values(state, mp.domain, mp.node)
    blok = m.define(m.system.blok).apply(Var(mp.var), Var("b"))
    leaving = compute_finite_values(
        {**state, "b": mp.state_sort},
        And((blok, mp.domain, Not(subst_vars(mp.domain, {mp.var: Var("b")})))),
        mp.node)
    assert len(leaving.values) == 5
    g = map_graph(m, "nlock")
    assert set(g.nodes) == set(domain.values)
    assert {g.nodes[j] for (_, j) in g.arcs} <= set(domain.values)
    assert set(leaving.values) <= set(g.nodes)


def _pair(x, y):
    return TupleE(((None, x), (None, y)))


def test_lex_exprs_match_tuple_order():
    vs = {v: NatSort(2) for v in ("x", "y", "u", "v")}
    lt = lex_lt_expr(_pair(Var("x"), Var("y")), _pair(Var("u"), Var("v")))
    le = lex_le_expr(_pair(Var("x"), Var("y")), _pair(Var("u"), Var("v")))
    for xs in itertools.product(range(4), repeat=4):
        env = {name: NatV(val, 2) for name, val in zip(("x", "y", "u", "v"), xs)}
        a, b = (xs[0], xs[1]), (xs[2], xs[3])
        assert eval_expr(lt, env) == BoolV(a < b), xs
        assert eval_expr(le, env) == BoolV(a <= b), xs


def test_lex_expr_edges():
    empty = TupleE(())
    assert eval_expr(lex_lt_expr(empty, empty), {}) == BoolV(False)
    assert eval_expr(lex_le_expr(empty, empty), {}) == BoolV(True)
    with pytest.raises(GraphError):
        lex_lt_expr(_pair(Var("x"), Var("y")), TupleE(((None, Var("u")),)))
    with pytest.raises(GraphError):
        lex_le_expr(TupleE(((None, Var("x")),)), _pair(Var("u"), Var("v")))
    with pytest.raises(GraphError):
        lex_lt_expr(Var("x"), Var("y"))  # not tuple expressions


def test_graph_helpers(rank_tg):
    first = rank_tg.nodes[0]
    assert rank_tg.node_index(first) == 0
    assert rank_tg.succ_indices(0) == [1]
    with pytest.raises(GraphError):
        rank_tg.node_index(BoolV(True))


def test_graph_to_dot(rank_tg):
    dot = graph_to_dot(rank_tg, title="rank")
    assert dot.startswith('digraph "rank" {')
    assert 'n0 [label="((:loc 0)' in dot
    assert 'runs:non-inc' in dot and 'loop:strict-dec' in dot
    assert dot.rstrip().endswith("}")
    plain = graph_to_dot(Graph(rank_tg.nodes, rank_tg.arcs))
    assert "  n0 -> n1;" in plain.splitlines()
