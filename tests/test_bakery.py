"""The monitored scheduler on the model's compiled system, against the
native mirror.

The native mirror (``_native_bakery``) is checked value-for-value against
the model's own defines on random states, and whole monitored runs are
checked step for step against a replay on it; the scheduler's liveness
argument (the blocker chain always ends at a runnable process) is swept
exhaustively over every reachable interleaving of a small instance.
"""

import gc
import itertools
import random
import weakref
from collections import deque
from dataclasses import replace

import pytest

import _native_bakery as native
from _native_bakery import (
    BakeSh,
    BakeTr,
    bake_done,
    bake_sh_next,
    bake_tr_blok,
    bake_tr_next,
)
import wfgraph.bakery as bakery_module
import wfgraph.ordinals as ordinals_module
from wfgraph.absgraph import map_graph, tag_graph
from wfgraph.bakery import (
    Bakery,
    bakery_model,
    bakery_text,
    choose_ready,
    find_unblok,
)
from wfgraph.certify import (
    CertificationError, DescentError, certify_relation)
from wfgraph.enumeration import compute_finite_values
from wfgraph.measure import Omap, omap_text, synthesize_omap
from wfgraph.model import (
    And,
    BoolSort,
    BoolV,
    Const,
    Eq,
    Field,
    NatV,
    Not,
    TupleV,
    Var,
    eval_expr,
)
from wfgraph.ordinals import (
    Ordinal, OrdinalError, bnll_lt, bnll_to_ordinal, o_lt, ordinal_text)
from wfgraph.system import BakeryError, System, SystemState, abstraction


N, R, W = 2, 2, 3
MODEL = bakery_model(N, R, W)


@pytest.fixture(scope="module")
def model():
    return MODEL


@pytest.fixture(scope="module")
def system():
    return System.compile(MODEL)


@pytest.fixture(scope="module")
def bakery():
    return Bakery(N, R, W)


def _widths(model):
    proc = model.record_sort("proc")
    return {name: (None if isinstance(s, BoolSort) else s.width)
            for name, s in proc.fields}


def _tr_from_value(v: TupleV) -> BakeTr:
    fields = {name.replace("-", "_"): x.val for name, x in v.items}
    return BakeTr(**fields)


def _sh_value(sh: BakeSh, w: int) -> TupleV:
    return TupleV((("max", NatV(sh.max, w)),))


def _rand_tr(rng, model) -> BakeTr:
    kw = {}
    for name, width in _widths(model).items():
        kw[name.replace("-", "_")] = (rng.random() < 0.5 if width is None
                                      else rng.randrange(1 << width))
    return BakeTr(**kw)


def test_native_matches_model_on_random_states(model, system):
    nxt = model.define("next")
    shn = model.define("shared-next")
    blok = model.define("blok")
    done = model.define("done")
    rng = random.Random(1999)
    for _ in range(400):
        a = _rand_tr(rng, model)
        b = _rand_tr(rng, model)
        sh = BakeSh(rng.randrange(1 << W))
        av, bv, shv = (native.tr_value(model, a), native.tr_value(model, b),
                       _sh_value(sh, W))
        got = eval_expr(nxt.apply(Const(av), Const(shv)), {})
        assert _tr_from_value(got) == bake_tr_next(a, sh, N, W), (a, sh)
        got_sh = eval_expr(shn.apply(Const(shv), Const(av)), {})
        assert got_sh.get("max").val == bake_sh_next(sh, a).max, (a, sh)
        got_blok = eval_expr(blok.apply(Const(av), Const(bv)), {})
        assert got_blok == BoolV(bake_tr_blok(a, b)), (a, b)
        assert eval_expr(done.apply(Const(av)), {}) == BoolV(bake_done(a))
        # the closures the monitor steps with compute the same
        assert system.next(av, shv) == got
        assert system.shared_next(shv, av) == got_sh
        assert system.blok(av, bv) == bake_tr_blok(a, b)
        assert system.done(av) == bake_done(a)


def test_done_cannot_block_native_sweep():
    # a process with both phase flags down blocks nobody, whatever the
    # rest of its fields say; sweep the full read set of the predicate
    b_base = BakeTr(loc=17, choosing=False, temp=0, pos=0, pos_valid=False,
                    loop=0, runs=0, done=True, ndx=0)
    a_base = BakeTr(loc=0, choosing=False, temp=0, pos=0, pos_valid=False,
                    loop=0, runs=0, done=False, ndx=0)
    for loc, loop, pos, ndx, b_ndx, b_pos in itertools.product(
            range(32), range(4), range(8), range(4), range(4), range(8)):
        a = replace(a_base, loc=loc, loop=loop, pos=pos, ndx=ndx)
        b = replace(b_base, ndx=b_ndx, pos=b_pos)
        assert not bake_tr_blok(a, b)


def test_done_cannot_block_model_route(model):
    # independent formulation straight against the model: no (a, b) with b
    # finished (at the sink with flags down) satisfies blok(a, b)
    proc = model.record_sort("proc")
    a, b = Var("a"), Var("b")
    hyp = And((
        model.define("blok").apply(a, b),
        Field(b, "done"),
        Eq(Field(b, "loc"), Const(NatV(17, 5))),
        Not(Field(b, "choosing")),
        Not(Field(b, "pos-valid")),
    ))
    r = compute_finite_values({"a": proc, "b": proc}, hyp,
                              Const(BoolV(True)))
    assert r.values == ()


def test_self_block_impossible_with_consistent_flags(system):
    for loc, loop, pos, ndx in itertools.product(
            range(32), range(4), range(8), range(4)):
        a = _proc(loc=loc, choosing=1 <= loc <= 7, pos=pos,
                  pos_valid=6 <= loc <= 13, loop=loop, ndx=ndx)
        assert not system.blok(a, a), a


def test_find_unblok_post_over_all_interleavings():
    # every reachable configuration of a 2-process, 2-round, width-2
    # instance, under every scheduler choice: the blocker chain from any
    # undone process ends at one that is undone and unblocked
    b = Bakery(2, 2, 2)
    system = b.system
    start = system.initial
    seen = {start}
    q = deque([start])
    checked = 0
    while q:
        st = q.popleft()
        for i, a in enumerate(st.trs):
            if system.done(a) or system.blocker(a, st.trs) is not None:
                continue
            st2 = b.step(st, i)
            if st2 not in seen:
                seen.add(st2)
                q.append(st2)
        for i, a in enumerate(st.trs):
            if system.done(a):
                continue
            k = find_unblok(i, st.trs, system)
            assert not system.done(st.trs[k])
            assert system.blocker(st.trs[k], st.trs) is None
            checked += 1
    assert len(seen) == 6167
    assert checked == 11960


# -- scheduler units ---------------------------------------------------------

def _proc(loc=0, choosing=False, temp=0, pos=0, pos_valid=False, loop=0,
          runs=0, done=False, ndx=1):
    return native.tr_value(MODEL, BakeTr(loc, choosing, temp, pos, pos_valid,
                                         loop, runs, done, ndx))


def test_find_undone(system):
    assert system.find_undone([_proc(done=True), _proc(), _proc()]) == 1
    assert system.find_undone([_proc(done=True), _proc(done=True)]) is None


def test_blocker(system):
    waiter = _proc(loc=9, pos=5, loop=2)
    other = _proc(pos=3, pos_valid=True, ndx=2)
    free = _proc(ndx=3)
    assert system.blok(waiter, other)
    assert system.blocker(waiter, [free, other]) == 1
    assert system.blocker(waiter, [free]) is None


def test_find_unblok_chain_and_errors(system):
    waiter = _proc(loc=9, pos=5, loop=2, ndx=1)
    other = _proc(pos=3, pos_valid=True, ndx=2)
    trs = [waiter, other]
    assert find_unblok(0, trs, system) == 1
    assert find_unblok(1, trs, system) == 1
    with pytest.raises(BakeryError):
        find_unblok(0, [_proc(done=True)], system)

    # two raw states at loc 8 waiting on each other: only the unmeasured
    # walk can be asked about them, and it reports the cycle
    p = _proc(loc=8, choosing=True, pos=1, loop=2, ndx=1)
    q = _proc(loc=8, choosing=True, pos=1, loop=1, ndx=2)
    with pytest.raises(BakeryError, match="blocking cycle"):
        find_unblok(0, [p, q], system)

    # a constant measure must make the very first hop fail the descent
    with pytest.raises(DescentError):
        find_unblok(0, trs, system, msr=lambda a: Ordinal())

    # the measure is taken only along a hop: a free start is not measured
    measured = []
    assert find_unblok(1, trs, system, msr=measured.append) == 1
    assert measured == []


def test_choose_ready(system):
    waiter = _proc(loc=9, pos=5, loop=2, ndx=1)
    other = _proc(pos=3, pos_valid=True, ndx=2)
    assert choose_ready([waiter, other], system) == 1

    picks = []

    def oracle(valid):
        picks.append(list(valid))
        return valid[-1]

    assert choose_ready([waiter, other], system, oracle) == 1
    assert picks == [[1]]
    # a pick that is not ready is refused, as in a run: the blocked
    # waiter, or an index past the processes
    for pick in (0, 7):
        with pytest.raises(BakeryError, match=rf"^the oracle chose index "
                           rf"{pick}, not a process that is ready: \[1\]$"):
            choose_ready([waiter, other], system, lambda ready: pick)
    with pytest.raises(BakeryError):
        choose_ready([_proc(done=True)], system)


# -- measured runs -----------------------------------------------------------

def test_witness_run_is_deterministic(bakery):
    res = bakery.run()
    again = bakery.run()
    assert res.trace == again.trace
    assert res.steps == 98
    assert all(bakery.system.done(a) for a in res.final.trs)
    assert res.trace[0].startswith("step 1 ndx 1 loc 0 -> 1 measure ")
    assert ordinal_text(res.measures[0]) == \
        "w^11*4 + w^10*2 + w^9*11 + w^5*4 + w^4*2 + w^3*11"
    assert ordinal_text(res.measures[-1]) == "w^11*1 + w^5*1"


def test_run_measures_strictly_decrease(bakery):
    res = bakery.run(seed=20)
    assert len(res.measures) == res.steps + 1
    for hi, lo in zip(res.measures, res.measures[1:]):
        assert o_lt(lo, hi)


def test_seeded_runs_reproduce(bakery):
    assert bakery.run(seed=5).trace == bakery.run(seed=5).trace


def test_run_on_finished_state_is_empty(bakery):
    res = bakery.run()
    rerun = bakery.run(st=res.final)
    assert rerun.steps == 0
    assert rerun.final == res.final
    assert len(rerun.measures) == 1


def test_run_refuses_a_state_of_another_size(bakery):
    # the rank measure is a list of N bnls: a start state with another
    # number of processes has no rank measure
    st = bakery.system.initial
    with pytest.raises(OrdinalError, match=r"^bnll length 3 does not match 2$"):
        bakery.run(st=SystemState(st.trs + st.trs[:1], st.sh))


def test_step_only_moves_one_rank_position(bakery):
    st = bakery.system.initial
    rng = random.Random(8)
    for _ in range(60):
        valid = [i for i, a in enumerate(st.trs)
                 if not bakery.system.done(a)
                 and bakery.system.blocker(a, st.trs) is None]
        if not valid:
            break
        i = rng.choice(valid)
        bn = bakery.rank_bnll(st)
        st2 = bakery.step(st, i)
        bn2 = bakery.rank_bnll(st2)
        for j in range(bakery.n):
            if j != i:
                assert bn2[j] == bn[j]
        st = st2


def _fully_remeasured_run(b: Bakery, seed: int):
    """The monitored run with every process's rank re-measured at every
    step; ``Bakery.run`` re-measures only the process that moved."""
    oracle = random.Random(seed).choice
    st = b.system.initial
    bn = b.rank_bnll(st)
    measures = [bnll_to_ordinal(b.n, bn, b.rank_omap.bnl_bound)]
    while not all(b.system.done(a) for a in st.trs):
        st = b.step(st, choose_ready(st.trs, b.system, oracle, b.nlock_msr))
        bn2 = b.rank_bnll(st)
        assert bnll_lt(bn2, bn)
        measures.append(bnll_to_ordinal(b.n, bn2, b.rank_omap.bnl_bound))
        bn = bn2
    return st, measures


@pytest.mark.parametrize("params, seeds", [
    ((2, 2, 3), (0, 1, 2, 3)),
    ((3, 1, 2), (0, 1, 2)),
])
def test_incremental_monitor_matches_full_remeasure(params, seeds):
    b = Bakery(*params)
    for seed in seeds:
        res = b.run(seed=seed)
        final, measures = _fully_remeasured_run(b, seed)
        assert res.final == final
        assert list(res.measures) == measures


@pytest.mark.parametrize("params, seeds", [
    ((2, 2, 3), range(20)),
    ((3, 1, 2), range(5)),
    ((2, 1, 2), range(5)),
    ((1, 1, 1), range(2)),  # the smallest widths
    ((3, 1, 1), range(2)),
], ids=["2,2,3", "3,1,2", "2,1,2", "1,1,1", "3,1,1"])
def test_run_matches_native_oracle(params, seeds):
    # the run on the compiled system against its replay on the native
    # mirror, seeded and witness-scheduled (None): the same schedule,
    # trace, measures and final state.  The second pass on the same
    # instance walks the steps the first one stored.
    b = Bakery(*params)
    seeds = (*seeds, None)
    want = {seed: native.native_run(b, seed) for seed in seeds}
    for pass_ in ("cold", "warm"):
        for seed in seeds:
            res = b.run(seed=seed)
            final, trace, measures = want[seed]
            assert res.trace == trace, (pass_, seed)
            assert res.measures == measures, (pass_, seed)
            assert native.from_state(res.final) == final, (pass_, seed)


def test_sat_backed_monitor_matches_exhaustive():
    # the sat backend synthesizes the same measures, so its runs are the
    # same runs
    exh, sat = Bakery(2, 1, 2), Bakery(2, 1, 2, backend="sat")
    for name in ("rank_omap", "nlock_omap"):
        assert omap_text(getattr(sat, name)) == omap_text(getattr(exh, name))
    for seed in range(3):
        assert sat.run(seed=seed) == exh.run(seed=seed)


@pytest.mark.parametrize("backend", ["exhaustive", "sat"])
def test_step_graph_holds_every_initial_process(backend, monkeypatch):
    # a rank node that tells process 1 from the others: the graph is seeded
    # with every initial process's node, so the certified omap covers the
    # state every run starts from
    text = bakery_text()
    edited = text.replace("(:inv (counters-ok a)))",
                          "(:inv (counters-ok a)) (:first (= a.ndx 1)))")
    assert edited != text, "transform target drifted"
    monkeypatch.setattr(bakery_module, "bakery_text", lambda: edited)
    model = bakery_model(2, 1, 2)
    g = map_graph(model, "rank", backend)
    assert (len(g.nodes), len(g.arcs)) == (40, 42)
    abstract = abstraction(model, "rank")
    seeds = {abstract(a)[0] for a in System.compile(model).initial.trs}
    assert len(seeds) == 2 and seeds <= set(g.nodes)
    tg = tag_graph(model, "rank", g, backend)
    cert = certify_relation(model, "rank", tg, synthesize_omap(tg), edited,
                            backend)
    assert cert.passed
    res = Bakery(2, 1, 2, backend).run(seed=0)
    assert res.steps and all(a.get("done").val for a in res.final.trs)


def test_bakery_compiles_its_system_once(monkeypatch):
    # map_graph seeds the rank map from `init` alone
    # (system.initial_state), so the instance's own system is the one
    # full compile
    calls = []
    compile_ = System.compile

    def counting(model):
        calls.append(model)
        return compile_(model)

    monkeypatch.setattr(System, "compile", staticmethod(counting))
    b = Bakery(2, 2, 3)
    assert len(calls) == 1 and calls[0] is b.model


def _rebound(b: Bakery, **attrs) -> Bakery:
    """A copy of b's instance state with some attributes rebound."""
    t = Bakery.__new__(Bakery)
    t.__dict__.update(b.__dict__)
    t.__dict__.update(attrs)
    return t


def _assert_fails_alike(b: Bakery, match: str, seed=None):
    """A run of b raises DescentError, and a second run fails at the same
    step with the same message: a failing step is never stored."""
    seen = []
    for _ in range(2):
        rng, picks = random.Random(seed), []

        def oracle(valid):
            picks.append(list(valid))
            return rng.choice(valid)

        with pytest.raises(DescentError, match=match) as e:
            b.run(oracle=None if seed is None else oracle)
        seen.append((str(e.value), picks))
    assert seen[0] == seen[1]


def test_monitor_catches_tampered_measure(bakery):
    # the copies below start from a warm instance's state: every step they
    # take was stored under the honest measures, and must be checked again
    bakery.run()
    bakery.run(seed=3)

    # swapping two rank descriptors makes the first step look like an
    # increase; the run monitor must refuse rather than keep going
    om = bakery.rank_omap
    descs = list(om.descriptors)
    descs[0], descs[1] = ((descs[0][0], descs[1][1]),
                          (descs[1][0], descs[0][1]))
    tampered = _rebound(
        bakery, rank_omap=Omap(tuple(descs), om.measures, om.widths))
    # a failing step is never stored, so it fails every time it is taken
    _assert_fails_alike(tampered, "rank measure failed to fall at step")
    assert issubclass(DescentError, CertificationError)

    # one no-lock descriptor for every node: the measure is constant, so
    # the first hop along a blocker chain cannot fall
    om = bakery.nlock_omap
    same = om.descriptors[0][1]
    tampered = _rebound(bakery, nlock_omap=Omap(
        tuple((node, same) for node, _ in om.descriptors),
        om.measures, om.widths))
    _assert_fails_alike(tampered, "no-lock measure failed to fall", seed=3)

    # the original instance is untouched
    assert bakery.run().steps == 98
    assert bakery.run(seed=3).steps == 98


def _with_entry(om: Omap, node, bad) -> Omap:
    """om with the first entry of node's descriptor replaced by bad."""
    descs = dict(om.descriptors)
    assert isinstance(descs[node][0], int)
    descs[node] = (bad, *descs[node][1:])
    return Omap(tuple(descs.items()), om.measures, om.widths)


@pytest.mark.parametrize("bad", [-1, True])
def test_monitor_refuses_a_non_natural_entry(bakery, bad):
    # the monitor checks each measure value once, where it is measured: a
    # descriptor entry that is not a natural is refused in a starting
    # node's rank entries, in a stepped process's rank entry and in a
    # no-lock measure along a blocker chain, on a fresh instance and on a
    # warm one, whose stored steps hold only for its own omaps
    bakery.run(seed=3)
    st = bakery.system.initial
    i = choose_ready(st.trs, bakery.system)
    start = bakery._rank_abs(st.trs[i])[0]
    stepped = bakery._rank_abs(bakery.step(st, i).trs[i])[0]
    assert stepped != start
    blocking = []  # the nodes a seeded run measures the no-lock measure at
    nlock_abs = bakery._nlock_abs

    def recording(a):
        node, values = nlock_abs(a)
        blocking.append(node)
        return node, values

    _rebound(bakery, _nlock_abs=recording).run(seed=3)
    assert blocking
    cases = [("rank_omap", start, None), ("rank_omap", stepped, None),
             ("nlock_omap", blocking[0], 3)]
    for b in (Bakery(N, R, W), bakery):
        for name, node, seed in cases:
            tampered = _rebound(
                b, **{name: _with_entry(getattr(b, name), node, bad)})
            with pytest.raises(OrdinalError,
                               match=rf"^bnl entry {bad!r} is not a natural$"):
                tampered.run(seed=seed)
    assert bakery.run(seed=3).steps == 98


def test_monitor_checks_each_measured_value_once(monkeypatch):
    # over 100 seeded runs on a fresh instance, the one bnl validator runs
    # once per measured value (each distinct rank entry, each initial
    # entry, each no-lock measure) and no ordinal's normal form is checked
    # again: the monitor's ordinals are built from checked entries
    b = Bakery(2, 2, 3)
    calls = {"_check_bnl": 0, "is_ordinal": 0, "msr": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    for name in ("_check_bnl", "is_ordinal"):
        monkeypatch.setattr(ordinals_module, name,
                            counting(name, getattr(ordinals_module, name)))
    monkeypatch.setattr(Omap, "msr", counting("msr", Omap.msr))
    for seed in range(100):
        b.run(seed=seed)
    # the two initial entries are cached alongside the 194 stepped ones
    assert len(b._graph.rank) == 194 + 2
    assert calls == {"_check_bnl": 194 + 2 + 102, "is_ordinal": 0,
                     "msr": 102}


@pytest.mark.parametrize("other, step", [(1, 1), (17, 24)])
def test_descent_error_names_the_failing_step(bakery, other, step):
    # swapping rank descriptor 0 with another makes the run fail at the
    # step its trace would number ``step``; the native mirror agrees
    om = bakery.rank_omap
    descs = list(om.descriptors)
    descs[0], descs[other] = ((descs[0][0], descs[other][1]),
                              (descs[other][0], descs[0][1]))
    tampered = _rebound(
        bakery, rank_omap=Omap(tuple(descs), om.measures, om.widths))
    want = f"rank measure failed to fall at step {step}: "
    with pytest.raises(DescentError) as e:
        tampered.run()
    assert str(e.value).startswith(want)
    with pytest.raises(DescentError) as n:
        native.native_run(tampered)
    assert str(n.value) == str(e.value)


def test_replayed_run_steps_and_measures_nothing(monkeypatch):
    b = Bakery(2, 1, 2)
    calls = []
    step, mk_bnl = Bakery.step, Omap.mk_bnl
    monkeypatch.setattr(Bakery, "step", lambda self, st, i: (
        calls.append("step"), step(self, st, i))[1])
    monkeypatch.setattr(Omap, "mk_bnl", lambda self, *args: (
        calls.append("mk_bnl"), mk_bnl(self, *args))[1])
    first = b.run(seed=4)
    assert {"step", "mk_bnl"} <= set(calls)
    calls.clear()
    assert b.run(seed=4) == first
    assert calls == []


def test_monitor_graph_after_100_seeds():
    # seeds 0-99 on one instance: the states and steps they checked, and
    # one rank abstraction per distinct process value (the initial two,
    # then each value a step produced)
    b = Bakery(2, 2, 3)
    seen = []
    rank_abs = b._rank_abs
    b._rank_abs = lambda a: (seen.append(a), rank_abs(a))[1]
    for seed in range(100):
        b.run(seed=seed)
    g = b._graph
    assert (len(g.nodes), sum(len(v.arcs) for v in g.nodes.values()),
            len(g.rank)) == (1012, 1542, 194 + 2)
    assert len(seen) == len(set(seen)) == 2 + 194


def test_new_start_of_measured_values_measures_none_again(monkeypatch):
    # after seeded runs, a start made only of values a run has measured
    # (the initial processes, swapped) takes every rank entry from the
    # graph's cache: no Omap.mk_bnl call for any of its processes
    b = Bakery(2, 2, 3)
    for seed in range(3):
        b.run(seed=seed)
    init = b.system.initial
    swapped = SystemState(init.trs[::-1], init.sh)
    measured = []
    mk_bnl = Omap.mk_bnl
    monkeypatch.setattr(Omap, "mk_bnl", lambda self, a, *args: (
        measured.append(a), mk_bnl(self, a, *args))[1])
    b.run(st=swapped, seed=0)
    assert [a for a in init.trs if a in measured] == []


def test_warm_run_from_mid_state_matches_fresh(bakery):
    st = bakery.system.initial
    for _ in range(30):
        st = bakery.step(st, choose_ready(st.trs, bakery.system))
    bakery.run()  # stores the witness path, which passes through st
    for seed in (None, 11):
        assert bakery.run(st=st, seed=seed) == \
            Bakery(N, R, W).run(st=st, seed=seed)


def test_oracle_may_edit_its_argument(bakery):
    def last(valid):
        i = valid.pop()
        valid.clear()
        return i

    first = bakery.run(oracle=last)
    assert bakery.run(oracle=last).trace == first.trace
    assert first.trace == bakery.run(oracle=lambda valid: valid[-1]).trace


def test_bakery_is_freed_without_the_cycle_collector():
    # the step graph keeps no reference back to its Bakery, so dropping the
    # last reference frees the instance at once
    gc.disable()
    try:
        b = Bakery(2, 1, 2)
        b.run(seed=0)
        b.run(seed=1)
        ref = weakref.ref(b)
        del b
        assert ref() is None
    finally:
        gc.enable()


def test_run_max_steps_guard(bakery):
    with pytest.raises(BakeryError):
        bakery.run(max_steps=3)


@pytest.mark.parametrize("pick", [-1, 2])
def test_oracle_must_pick_a_process_index(bakery, pick):
    with pytest.raises(BakeryError, match="not a process"):
        bakery.run(oracle=lambda valid: pick)


def test_oracle_must_pick_a_ready_process():
    # a done process: once process 0 has finished, only 1 is ready
    with pytest.raises(BakeryError, match=r"^step 26 chose index 0, not a "
                       r"process that is ready: \[1\]$"):
        Bakery(2, 1, 2).run(oracle=lambda valid: 0)
    # a blocked one: replay seeded picks to the first state where a process
    # waits on another, then pick the waiter
    b = Bakery(2, 2, 3)
    st, rng = b.system.initial, random.Random(0)
    while (k := next((i for i, a in enumerate(st.trs)
                      if b.system.blocker(a, st.trs) is not None),
                     None)) is None:
        st = b.step(st, choose_ready(st.trs, b.system, rng.choice))
    assert not b.system.done(st.trs[k])
    with pytest.raises(BakeryError, match=rf"^step 1 chose index {k}, not a "
                       rf"process that is ready: \[{1 - k}\]$"):
        b.run(st=st, oracle=lambda valid: k)


def test_parameter_validation():
    with pytest.raises(BakeryError):
        Bakery(n=0)
    with pytest.raises(BakeryError):
        Bakery(r=0)
    with pytest.raises(BakeryError):
        Bakery(w=0)


def test_nlock_measure_falls_along_blocker_chain(bakery):
    # pick a mid-run state with a real waiter and check the measured walk
    st = bakery.system.initial
    for _ in range(40):
        i = choose_ready(st.trs, bakery.system, None, bakery.nlock_msr)
        st = bakery.step(st, i)
    # the measured variant of the chain must agree with the unmeasured one
    for i, a in enumerate(st.trs):
        if not bakery.system.done(a):
            assert find_unblok(i, st.trs, bakery.system, bakery.nlock_msr) \
                == find_unblok(i, st.trs, bakery.system)
