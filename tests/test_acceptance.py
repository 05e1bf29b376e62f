"""Acceptance gate: the headline guarantees, one test each.

Every test here pins an end-to-end fact about the shipped artifact at desk
scale: the exact abstract node set and arc tags of the bundled model, the
full synthesized descriptor table, certification of both relations, backend
agreement on randomized queries, the ordinal embedding laws, verified
counterexamples on deliberately broken models, and monitored simulations.
`pytest -v` prints one pass/fail line per guarantee.
"""

import itertools
import random
import time

import pytest

from _gen import rand_expr, rand_sort, rand_var_sorts
from wfgraph.absgraph import map_graph, tag_graph
from wfgraph.bakery import Bakery, bakery_model, bakery_text
from wfgraph.certify import certify_relation
from wfgraph.enumeration import compute_finite_values
from wfgraph.measure import (
    CycleCounterexample,
    synthesize_omap,
    verify_counterexample,
)
from wfgraph.model import BOOL, NatSort, parse_model, sort_card
from wfgraph.ordinals import (
    bnl_lt,
    bnl_to_ordinal,
    bnll_lt,
    bnll_to_ordinal,
    o_lt,
)

# descriptor for every abstract node of the rank map at the default
# parameters, keyed by (loc, loop=0, runs=0)
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


def _rank_key(n):
    return (n.get("loc").val, n.get("loop=0").val, n.get("runs=0").val)


def test_rank_reach_has_exact_node_set():
    t0 = time.perf_counter()
    m = bakery_model(2, 2, 3)
    g = map_graph(m, "rank", "exhaustive")
    elapsed = time.perf_counter() - t0
    assert len(g.nodes) == 21
    assert {_rank_key(n) for n in g.nodes} == set(RANK_DESCRIPTORS)
    assert elapsed < 60, f"reach took {elapsed:.1f}s"


def test_rank_arc_ordering_tags():
    m = bakery_model(2, 2, 3)
    tg = tag_graph(m, "rank", map_graph(m, "rank", "exhaustive"),
                   "exhaustive")
    counts = {"runs-strict": 0, "loop-strict": 0, "loop-inc": 0}
    for (i, j) in tg.arcs:
        mv = (tg.nodes[i].get("loc").val, tg.nodes[j].get("loc").val)
        # runs falls exactly when the outer loop comes around
        want_runs = "strict-dec" if mv == (14, 15) else "non-inc"
        assert tg.tags[(i, j, "runs")] == want_runs, mv
        # loop falls at both inner-loop back edges and is reloaded (so may
        # grow) on entry to either inner loop
        if mv in ((4, 5), (11, 12)):
            want_loop = "strict-dec"
        elif mv in ((2, 3), (7, 8)):
            want_loop = "may-inc"
        else:
            want_loop = "non-inc"
        assert tg.tags[(i, j, "loop")] == want_loop, mv
        counts["runs-strict"] += want_runs == "strict-dec"
        counts["loop-strict"] += want_loop == "strict-dec"
        counts["loop-inc"] += want_loop == "may-inc"
    assert counts == {"runs-strict": 2, "loop-strict": 4, "loop-inc": 2}


def test_rank_descriptor_table():
    m = bakery_model(2, 2, 3)
    tg = tag_graph(m, "rank", map_graph(m, "rank", "exhaustive"),
                   "exhaustive")
    om = synthesize_omap(tg)
    got = {_rank_key(n): d for n, d in om.descriptors}
    assert got == RANK_DESCRIPTORS


def test_certify_both_relations():
    t0 = time.perf_counter()
    m = bakery_model(2, 2, 2)
    text = bakery_text()
    for name in ("rank", "nlock"):
        g = map_graph(m, name, "exhaustive")
        tg = tag_graph(m, name, g, "exhaustive")
        om = synthesize_omap(tg)
        cert = certify_relation(m, name, tg, om, text, "exhaustive")
        assert [c.name for c in cert.checks] == [
            "closure", "strict-arc-decrease", "noninc-arc-nonincrease",
            "omap-valid", "measure-decrease"]
        assert cert.passed, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"certification took {elapsed:.1f}s"


def test_backends_agree_on_200_random_queries():
    rng = random.Random(816)
    agreed = 0
    for _ in range(160):
        var_sorts = rand_var_sorts(rng, max_vars=3, max_width=3)
        dom = 1
        for s in var_sorts.values():
            dom *= sort_card(s)
        assert dom <= 1 << 16
        hyp = rand_expr(rng, var_sorts, BOOL, 3)
        trm = rand_expr(rng, var_sorts, rand_sort(rng), 3)
        ref = compute_finite_values(var_sorts, hyp, trm, dom + 1,
                                    "exhaustive")
        got = compute_finite_values(var_sorts, hyp, trm, dom + 1, "sat")
        assert got == ref, (hyp, trm)
        agreed += 1
    for _ in range(40):
        var_sorts = {"x": NatSort(8), "y": NatSort(8)}
        hyp = rand_expr(rng, var_sorts, BOOL, 3)
        trm = rand_expr(rng, var_sorts, NatSort(rng.randint(1, 3)), 2)
        ref = compute_finite_values(var_sorts, hyp, trm, 65537, "exhaustive")
        got = compute_finite_values(var_sorts, hyp, trm, 65537, "sat")
        assert got == ref, (hyp, trm)
        agreed += 1
    assert agreed == 200


def test_ordinal_embedding_laws():
    pairs = 0
    for bound in (1, 2, 3):
        vals = [t for t in itertools.product(range(4), repeat=bound)]
        images = {a: bnl_to_ordinal(a) for a in vals}
        for a, b in itertools.product(vals, repeat=2):
            assert bnl_lt(a, b) == o_lt(images[a], images[b]), (a, b)
            pairs += 1
    assert pairs == 16 + 256 + 4096
    members = [t for t in itertools.product(range(3), repeat=2)]
    for length in (0, 1, 2):
        lists = [list(c) for c in itertools.product(members, repeat=length)]
        images = {tuple(a): bnll_to_ordinal(length, a, 2) for a in lists}
        for a, b in itertools.product(lists, repeat=2):
            assert bnll_lt(a, b) == o_lt(images[tuple(a)],
                                         images[tuple(b)]), (a, b)


def _mutant_model(old, new, params):
    text = bakery_text()
    assert old in text, "transform target drifted"
    return parse_model(text.replace(old, new), params)


def test_broken_models_fail_with_verified_cycles():
    params = {"n": 2, "r": 2, "w": 2}
    # outer loop no longer counts down: the full round trip stops decreasing
    m = _mutant_model("(14 (update a :loc 15 :runs (1- a.runs)))",
                      "(14 (update a :loc 15))", params)
    tg = tag_graph(m, "rank", map_graph(m, "rank", "exhaustive"),
                   "exhaustive")
    with pytest.raises(CycleCounterexample) as e:
        synthesize_omap(tg)
    cc = e.value
    assert verify_counterexample(tg, cc)
    locs = [n.get("loc").val for n in cc.cycle[:-1]]
    ring = locs + locs
    assert any(ring[k:k + 3] == [14, 15, 0] for k in range(len(locs)))

    # ticket position no longer measured: the waiting chain stops ordering
    m2 = _mutant_model("    (measure pos (tuple a.pos))\n", "", params)
    tg2 = tag_graph(m2, "nlock", map_graph(m2, "nlock", "exhaustive"),
                    "exhaustive")
    with pytest.raises(CycleCounterexample) as e2:
        synthesize_omap(tg2)
    cc2 = e2.value
    assert verify_counterexample(tg2, cc2)
    assert all(6 <= n.get("loc").val <= 13 for n in cc2.cycle)


def test_hundred_seeded_runs_terminate():
    instances = {(n, r): Bakery(n=n, r=r, w=3)
                 for n in (1, 2, 3) for r in (1, 2)}
    combos = sorted(instances)
    finished = 0
    for seed in range(100):
        b = instances[combos[seed % len(combos)]]
        # run() raises DescentError the moment the per-state rank measure
        # fails to fall or a blocker chain stops descending, so a clean
        # return is the monitor verdict
        res = b.run(seed=seed)
        assert all(b.system.done(tr) for tr in res.final.trs)
        assert len(res.measures) == res.steps + 1
        for m1, m2 in zip(res.measures, res.measures[1:]):
            assert o_lt(m2, m1)
        finished += 1
    assert finished == 100
