"""Measure synthesis: SCC decomposition, descriptor assignment, and the
counterexample path.

networkx is the oracle for the strongly-connected decomposition; the
synthesized descriptor tables for the bundled model are frozen in full.
"""

import random

import networkx as nx
import pytest

from wfgraph.absgraph import Graph, TaggedGraph, map_graph, tag_graph
from wfgraph.bakery import bakery_model
from wfgraph.measure import (
    CycleCounterexample,
    Omap,
    SynthesisError,
    counterexample_report,
    counterexample_to_json,
    find_min_nondec_cycle,
    omap_from_json,
    omap_text,
    omap_to_json,
    scc_partition,
    synthesize_omap,
    verify_counterexample,
)
from wfgraph.model import NatV
from wfgraph.ordinals import Ordinal, OrdinalError


@pytest.fixture(scope="module")
def rank_tg():
    m = bakery_model()
    return tag_graph(m, "rank", map_graph(m, "rank"))


@pytest.fixture(scope="module")
def nlock_tg():
    m = bakery_model()
    return tag_graph(m, "nlock", map_graph(m, "nlock"))


def _scc_oracle_check(g: Graph):
    """scc_partition must agree with networkx and come out sinks-first."""
    dg = nx.DiGraph()
    dg.add_nodes_from(range(len(g.nodes)))
    dg.add_edges_from(g.arcs)
    want = {frozenset(c) for c in nx.strongly_connected_components(dg)}
    comps = scc_partition(g)
    got = {frozenset(g.node_index(v) for v in c) for c in comps}
    assert got == want
    # reverse topological: every arc lands in the same or an earlier comp
    pos = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            pos[g.node_index(v)] = ci
    for (i, j) in g.arcs:
        assert pos[j] <= pos[i], (i, j)


def test_scc_partition_on_rank(rank_tg):
    _scc_oracle_check(rank_tg)
    assert [len(c) for c in scc_partition(rank_tg)] == [1, 1, 1, 18]


def test_scc_partition_on_random_graphs():
    rng = random.Random(90125)
    for _ in range(40):
        n = rng.randrange(1, 12)
        nodes = tuple(NatV(i, 4) for i in range(n))
        arcs = tuple(sorted({(rng.randrange(n), rng.randrange(n))
                             for _ in range(rng.randrange(0, 2 * n))}))
        _scc_oracle_check(Graph(nodes, arcs))


# descriptor of each rank node, keyed by (loc, loop=0, runs=0)
RANK_DESCRIPTORS = {
    (0, True, False): (4, "runs", 11, 0),
    (1, True, False): (4, "runs", 10, 0),
    (2, True, False): (4, "runs", 9, 0),
    (3, False, False): (4, "runs", 8, "loop", 2, 0),
    (4, False, False): (4, "runs", 8, "loop", 1, 0),
    (5, False, False): (4, "runs", 8, "loop", 3, 0),
    (5, True, False): (4, "runs", 7, 0),
    (6, True, False): (4, "runs", 6, 0),
    (7, True, False): (4, "runs", 5, 0),
    (8, False, False): (4, "runs", 4, "loop", 4, 0),
    (9, False, False): (4, "runs", 4, "loop", 3, 0),
    (10, False, False): (4, "runs", 4, "loop", 2, 0),
    (11, False, False): (4, "runs", 4, "loop", 1, 0),
    (12, False, False): (4, "runs", 4, "loop", 5, 0),
    (12, True, False): (4, "runs", 3, 0),
    (13, True, False): (4, "runs", 2, 0),
    (14, True, False): (4, "runs", 1, 0),
    (15, True, False): (4, "runs", 12, 0),
    (15, True, True): (3, 0),
    (16, True, True): (2, 0),
    (17, True, True): (1, 0),
}


def test_rank_omap_frozen(rank_tg):
    om = synthesize_omap(rank_tg)
    assert om.nodes == rank_tg.nodes
    assert om.measures == ("runs", "loop")
    assert om.widths == {"runs": 1, "loop": 1}
    assert om.bnl_bound == 6
    assert len(om.descriptors) == 21
    for n, d in om.descriptors:
        key = (n.get("loc").val, n.get("loop=0").val, n.get("runs=0").val)
        assert d == RANK_DESCRIPTORS[key], key


def test_nlock_omap_frozen(nlock_tg):
    om = synthesize_omap(nlock_tg)
    assert om.bnl_bound == 5
    assert [len(c) for c in scc_partition(nlock_tg)].count(2) == 1
    compound = {}
    for n, d in om.descriptors:
        key = (n.get("loc").val, n.get("pos=0").val)
        if len(d) > 2:
            compound[key] = d
        else:
            # everything else is a singleton component: (rank, 0)
            assert len(d) == 2 and isinstance(d[0], int) and d[1] == 0, key
    # the waiting loop: locs 9 and 10 chase decreasing positions, with the
    # ticket index breaking pos ties (self-loops at 10)
    assert compound == {
        (9, False): (24, "pos", 1, 0),
        (10, False): (24, "pos", 2, "ndx", 0),
        (10, True): (23, "ndx", 0),
    }


def test_rank_omap_backs_every_arc(rank_tg):
    # measure images must not increase along any arc, by construction
    om = synthesize_omap(rank_tg)
    # compare descriptors as bnls with measure symbols at their worst
    # (widest) interpretation is the certifier's job; here just check the
    # component ranks are consistent with arc direction
    ranks = {n: d[0] for n, d in om.descriptors}
    for (i, j) in rank_tg.arcs:
        assert ranks[rank_tg.nodes[j]] <= ranks[rank_tg.nodes[i]]


# -- toy graphs --------------------------------------------------------------

def _nodes(n):
    return tuple(NatV(i, 3) for i in range(n))


def _toy(arcs, tags_per_arc, measures=("m",), widths=None):
    nodes = _nodes(1 + max(max(i, j) for (i, j) in arcs)) if arcs else _nodes(1)
    tags = {}
    for (i, j), per in zip(arcs, tags_per_arc):
        for name, t in zip(measures, per):
            tags[(i, j, name)] = t
    return TaggedGraph(nodes, tuple(sorted(arcs)), tuple(measures),
                       widths or {m: 1 for m in measures}, tags)


def test_single_node_base():
    tg = TaggedGraph(_nodes(1), (), ("m",), {"m": 1}, {})
    om = synthesize_omap(tg)
    assert om.descriptors == ((tg.nodes[0], (0,)),)
    assert om.bnl_bound == 1


def test_mutual_non_inc_cycle_fails():
    tg = _toy([(0, 1), (1, 0)], [("non-inc",), ("non-inc",)])
    with pytest.raises(CycleCounterexample) as e:
        synthesize_omap(tg)
    cc = e.value
    assert len(cc.arc_tags) == 2
    assert cc.cycle[0] == cc.cycle[-1]
    assert verify_counterexample(tg, cc)
    report = counterexample_report(cc)
    assert "non-decreasing cycle of 2 arcs" in report
    assert "m:non-inc" in report


def test_may_inc_blocks_selection():
    # m1 strictly decreases on one arc but may increase on the other, so
    # it cannot be chosen; m2 orders the cycle instead
    tg = _toy([(0, 1), (1, 0)],
              [("strict-dec", "strict-dec"), ("may-inc", "non-inc")],
              measures=("m1", "m2"))
    om = synthesize_omap(tg)
    d = dict(om.descriptors)
    assert d[tg.nodes[0]][0] == "m2"
    assert d[tg.nodes[1]][0] == "m2"


def test_strict_with_inc_still_counterexample():
    # both measures strictly decrease somewhere yet increase elsewhere:
    # the certificate is a cycle where every strict has a matching inc
    tg = _toy([(0, 1), (1, 0)],
              [("strict-dec", "may-inc"), ("may-inc", "strict-dec")],
              measures=("m1", "m2"))
    with pytest.raises(CycleCounterexample) as e:
        synthesize_omap(tg)
    assert verify_counterexample(tg, e.value)


def test_self_loop_counterexample_is_one_arc():
    tg = _toy([(0, 0), (0, 1)], [("non-inc",), ("strict-dec",)])
    # node 0's self loop can never progress; shortest witness is length 1
    with pytest.raises(CycleCounterexample) as e:
        synthesize_omap(tg)
    assert len(e.value.arc_tags) == 1
    assert verify_counterexample(tg, e.value)


def test_find_min_nondec_cycle_needs_a_cycle():
    tg = _toy([(0, 1)], [("non-inc",)])
    with pytest.raises(SynthesisError):
        find_min_nondec_cycle(tg)


def test_verify_counterexample_rejects_garbage():
    tg = _toy([(0, 1), (1, 0)], [("non-inc",), ("non-inc",)])
    good = find_min_nondec_cycle(tg)
    assert verify_counterexample(tg, good)

    open_walk = CycleCounterexample(
        [tg.nodes[0], tg.nodes[1]], [dict(good.arc_tags[0])])
    assert not verify_counterexample(tg, open_walk)

    wrong_tag = CycleCounterexample(
        list(good.cycle), [dict(t) for t in good.arc_tags])
    wrong_tag.arc_tags[0]["m"] = "strict-dec"
    assert not verify_counterexample(tg, wrong_tag)

    not_an_arc = CycleCounterexample(
        [tg.nodes[0], tg.nodes[0]], [{"m": "non-inc"}])
    assert not verify_counterexample(tg, not_an_arc)

    # a genuinely decreasing cycle is not a counterexample
    dec = _toy([(0, 1), (1, 0)], [("strict-dec",), ("non-inc",)])
    fake = CycleCounterexample(
        [dec.nodes[0], dec.nodes[1], dec.nodes[0]],
        [{"m": "strict-dec"}, {"m": "non-inc"}])
    assert not verify_counterexample(dec, fake)


def test_counterexample_json():
    tg = _toy([(0, 1), (1, 0)], [("non-inc",), ("non-inc",)])
    cc = find_min_nondec_cycle(tg)
    doc = counterexample_to_json(cc)
    assert doc["format"] == "wfgraph-counterexample-v1"
    assert len(doc["cycle"]) == len(doc["cycle_texts"]) == 3
    assert doc["arc_tags"] == [{"m": "non-inc"}, {"m": "non-inc"}]


# -- omap API and serialization ----------------------------------------------

def test_omap_roundtrip(rank_tg):
    om = synthesize_omap(rank_tg)
    doc = omap_to_json(om)
    assert doc["format"] == "wfgraph-omap-v1"
    assert omap_from_json(doc) == om
    # text form parses back too
    import json
    assert omap_from_json(json.loads(omap_text(om))) == om


def test_omap_from_json_rejects_bad_docs(rank_tg):
    om = synthesize_omap(rank_tg)
    with pytest.raises(SynthesisError):
        omap_from_json({"format": "nope"})
    doc = omap_to_json(om)
    doc["descriptors"][0] = [True, 0]
    with pytest.raises(SynthesisError):
        omap_from_json(doc)
    doc = omap_to_json(om)
    doc["descriptors"].pop()
    with pytest.raises(SynthesisError):
        omap_from_json(doc)


def test_omap_accessors():
    nodes = _nodes(2)
    om = Omap(((nodes[0], (1, "m", 0)), (nodes[1], (2, 0))),
              ("m",), {"m": 1})
    assert om.descriptor(nodes[1]) == (2, 0)
    with pytest.raises(SynthesisError):
        om.descriptor(NatV(7, 3))
    assert om.as_dict() == {nodes[0]: (1, "m", 0), nodes[1]: (2, 0)}
    assert om.bnl_bound == 3

    def abstract(x):
        return nodes[x[0]], {"m": (x[1],)}

    assert om.mk_bnl((0, 5), abstract) == (1, 5, 0)
    assert om.mk_bnl((1, 5), abstract) == (2, 0, 0)
    assert om.msr((0, 0), abstract) == Ordinal(((2, 1),))
    with pytest.raises(OrdinalError):
        om.mk_bnl((0, 5), lambda x: (nodes[0], {"m": (1, 2)}))  # wrong width
