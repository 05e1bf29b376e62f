"""Value enumeration: the exhaustive and SAT routes must be observationally
identical, including totality verdicts and solve-call counts."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfgraph
import wfgraph.veceval as veceval
from _gen import backends_agree, rand_expr, rand_sort, rand_var_sorts
from wfgraph import enumeration
from wfgraph.bitblast import BlastError, Circuit
from wfgraph.enumeration import (
    BACKENDS, EnumResult, NotTotal, compute_finite_values, reach)
from wfgraph.model import (
    BOOL,
    AddMod,
    And,
    BoolSort,
    BoolV,
    CaseNat,
    Const,
    EnumSort,
    EnumV,
    Eq,
    Field,
    Ite,
    Lt,
    NatSort,
    NatV,
    Not,
    Or,
    TupleE,
    TupleSort,
    TupleV,
    Update,
    Var,
    canonical_sorted,
    compile_expr,
    expr_children,
    sort_card,
)
from wfgraph.sat import DpllSolver


def _domain(var_sorts) -> int:
    total = 1
    for s in var_sorts.values():
        total *= sort_card(s)
    return total


def _compare(var_sorts, hyp, trm):
    ref = compute_finite_values(var_sorts, hyp, trm, "exhaustive")
    got = compute_finite_values(var_sorts, hyp, trm, "sat")
    assert got == ref, (hyp, trm)
    return ref


def test_backends_agree_on_random_queries(monkeypatch):
    """Acceptance: 200 randomized queries, domains up to 2^16, identical
    EnumResults from both backends, and at a low value bound both refuse
    the same queries."""
    rng = random.Random(424242)
    agreed = 0
    for _ in range(160):
        var_sorts = rand_var_sorts(rng, max_vars=3, max_width=3)
        hyp = rand_expr(rng, var_sorts, BOOL, 3)
        trm = rand_expr(rng, var_sorts, rand_sort(rng), 3)
        backends_agree(monkeypatch, var_sorts, hyp, trm)
        agreed += 1
    # wide domains, narrow terms: totality must still be provable
    for _ in range(40):
        var_sorts = {"x": NatSort(8), "y": NatSort(8)}
        assert _domain(var_sorts) == 1 << 16
        hyp = rand_expr(rng, var_sorts, BOOL, 3)
        trm = rand_expr(rng, var_sorts, NatSort(rng.randint(1, 3)), 2)
        backends_agree(monkeypatch, var_sorts, hyp, trm)
        agreed += 1
    assert agreed == 200


def test_cutoff_semantics(monkeypatch):
    # a query returns every value or raises NotTotal naming itself, on both
    # backends alike: x over nat 4 has 16 values, which a bound of 3 or 16
    # refuses and a bound of 17 returns in full, in one probe more
    vs = {"x": NatSort(4), "y": NatSort(4)}
    top = Const(BoolV(True))
    for bound in (3, 16):
        monkeypatch.setattr(enumeration, "VALUE_BOUND", bound)
        for backend in BACKENDS:
            with pytest.raises(NotTotal) as e:
                compute_finite_values(vs, top, Var("x"), backend, "step")
            assert (e.value.what, e.value.num) == ("step", bound)
    monkeypatch.setattr(enumeration, "VALUE_BOUND", 17)
    want = EnumResult([NatV(k, 4) for k in range(16)], 17)
    for backend in BACKENDS:
        assert compute_finite_values(vs, top, Var("x"), backend) == want


def test_zero_budget(monkeypatch):
    # a bound of 0 proves no value set total, not even the empty one
    monkeypatch.setattr(enumeration, "VALUE_BOUND", 0)
    vs = {"x": NatSort(2)}
    for hyp in (Const(BoolV(True)), Const(BoolV(False))):
        for backend in BACKENDS:
            with pytest.raises(NotTotal) as e:
                compute_finite_values(vs, hyp, Var("x"), backend)
            assert (e.value.what, e.value.num) == ("query", 0)


def _sort_values(s):
    if isinstance(s, BoolSort):
        return [BoolV(False), BoolV(True)]
    if isinstance(s, NatSort):
        return [NatV(k, s.width) for k in range(1 << s.width)]
    if isinstance(s, EnumSort):
        return [EnumV(x, s.syms) for x in s.syms]
    return [TupleV(tuple(zip([n for n, _ in s.fields], vs))) for vs in
            itertools.product(*(_sort_values(fs) for _, fs in s.fields))]


def test_whole_record_query():
    """Records read whole (a branch, a case, an update, a constant and a
    variable), also inside tuples, and compared in the hypothesis, one
    through a branch and one inside a tuple: both backends return what
    evaluating every environment returns, and the scalarized query reads
    records only through ``Field(Var, f)`` leaves."""
    rec = TupleSort((("a", NatSort(2)), ("b", BOOL),
                     ("c", EnumSort(("x", "y", "z")))))
    vs = {"p": rec, "q": rec, "f": BOOL, "n": NatSort(2)}
    p, q, f, n = (Var(v) for v in vs)
    k = TupleV((("a", NatV(1, 2)), ("b", BoolV(True)),
                ("c", EnumV("y", ("x", "y", "z")))))
    trm = TupleE((
        ("ite", Ite(f, p, q)),
        ("case", CaseNat(n, ((0, q), (2, Update(p, (("a", n),)))), p)),
        ("upd", Update(q, (("b", Not(f)),))),
        ("const", Const(k)),
        ("var", p),
        ("nest", Ite(f, TupleE(((None, p), (None, n))),
                     TupleE(((None, q), (None, Const(NatV(3, 2))))))),
        ("ncase", CaseNat(n, ((1, TupleE(((None, q), (None, f)))),),
                          Const(TupleV(((None, k), (None, BoolV(False))))))),
        ("deep", Field(Field(Ite(f, TupleE((("r", p),)), TupleE((("r", q),))),
                             "r"), "a"))))
    hyp = And((Eq(Ite(f, p, Update(q, (("a", n),))), Const(k)),
               Not(Eq(p, q)),
               Not(Eq(TupleE(((None, q), (None, n))),
                      Const(TupleV(((None, k), (None, NatV(0, 2))))))),
               Not(Eq(TupleE(((None, p), (None, q))),
                      TupleE(((None, q), (None, p)))))))

    run = compile_expr(trm)
    holds = compile_expr(hyp)
    envs = (dict(zip(vs, xs)) for xs in
            itertools.product(*(_sort_values(s) for s in vs.values())))
    want = canonical_sorted({run(env) for env in envs if holds(env).val})
    assert len(want) > 20
    res = _compare(vs, hyp, trm)
    assert list(res.values) == want

    for e in (hyp, trm):
        assert _record_nodes(veceval.scalarize(e, vs), vs) == []
    # the walk sees every kind of record node the raw query holds
    kinds = {type(x).__name__ for e in (hyp, trm)
             for x in _record_nodes(e, vs)}
    assert kinds == {"Var", "Const", "Update", "Ite", "CaseNat", "Eq",
                     "Field"}


def _record_nodes(e, var_sorts):
    """The nodes of ``e`` that take records apart or build them, other than
    a ``TupleE`` or a ``Field(Var, f)`` leaf: what ``scalarize`` leaves none
    of.  A record ``Ite`` or ``CaseNat`` shows as one with a tuple branch,
    or as a record node among its branches."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Field) and isinstance(x.rec, Var):
            continue
        branches = (
            (x.then, x.alt) if isinstance(x, Ite)
            else tuple(b for _, b in x.arms) + (x.default,)
            if isinstance(x, CaseNat)
            else (x.a, x.b) if isinstance(x, Eq) else ())
        if (isinstance(x, (Field, Update))
                or (isinstance(x, Var)
                    and isinstance(var_sorts[x.name], TupleSort))
                or (isinstance(x, Const) and isinstance(x.value, TupleV))
                or any(isinstance(b, TupleE) for b in branches)):
            out.append(x)
        stack.extend(expr_children(x))
    return out


def test_unnamed_tuple_equality_compares_every_item():
    # tuple items have no names, so they are compared by position
    vs = {"x": NatSort(2), "y": NatSort(2)}
    pair = TupleE(((None, Var("x")), (None, Var("y"))))
    want = TupleE(((None, Const(NatV(1, 2))), (None, Const(NatV(2, 2)))))
    res = _compare(vs, Eq(pair, want), pair)
    assert list(res.values) == [TupleV(((None, NatV(1, 2)), (None, NatV(2, 2))))]


def test_term_without_output_bits():
    # a term with no bits has one value, or none under an unsatisfiable
    # hypothesis
    vs = {"x": NatSort(2)}
    unit = TupleE(())
    res = _compare(vs, Const(BoolV(True)), unit)
    assert list(res.values) == [TupleV(())]
    never = Lt(Var("x"), Const(NatV(0, 2)))
    res = _compare(vs, never, unit)
    assert list(res.values) == []


def _only(var_sorts, models):
    """A hypothesis that holds on exactly ``models`` (one tuple of naturals
    per model, in ``var_sorts`` order)."""
    names = list(var_sorts)
    return Or(tuple(And(tuple(Eq(Var(k), Const(NatV(x, var_sorts[k].width)))
                              for k, x in zip(names, m))) for m in models))


def test_wide_naturals_rank_canonically_on_sat():
    # 5 models x a 62-bit leaf's cardinality passes int64 even when the key
    # before it is dense, so that leaf's codes are made dense too
    vs = {"y": NatSort(2), "x": NatSort(62)}
    models = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
    trm = TupleE((("a", Var("y")), ("b", Var("x"))))
    res = compute_finite_values(vs, _only(vs, models), trm, "sat")
    assert [(q.items[0][1].val, q.items[1][1].val) for q in res.values] == \
        sorted(models)
    # a 63-bit leaf: its cardinality, 2^63, is no int64 itself
    vs = {"x": NatSort(63)}
    top = (1 << 63) - 1
    res = compute_finite_values(vs, _only(vs, [(top,), (0,), (5,)]), Var("x"),
                                "sat")
    assert list(res.values) == [NatV(0, 63), NatV(5, 63), NatV(top, 63)]


def test_output_natural_wider_than_int64_is_refused():
    vs = {"x": NatSort(64)}
    with pytest.raises(ValueError) as e:
        compute_finite_values(vs, _only(vs, [((1 << 64) - 1,)]), Var("x"),
                              "sat")
    assert str(e.value) == \
        "an output natural of 64 bits is wider than an int64 code's 63"


def test_wide_sat_output_is_refused_before_the_first_solve(monkeypatch):
    # the output leaves' sorts are known once the term is blasted, so no
    # model is searched for: unrefused, this query would solve until the
    # value bound, about 4.2 million times
    def solve(self):
        raise AssertionError("a solve before the refusal")

    monkeypatch.setattr(DpllSolver, "solve", solve)
    with pytest.raises(ValueError) as e:
        compute_finite_values({"x": NatSort(64)}, Const(BoolV(True)),
                              Var("x"), "sat")
    assert str(e.value) == \
        "an output natural of 64 bits is wider than an int64 code's 63"


def test_naturals_past_int64_are_refused_on_exhaustive():
    # the exhaustive backend's columns are int64: a constant of 2^63 or more,
    # a sum whose mask passes int64, or an output natural wider than 63 bits
    # is a one-line error there, not an OverflowError or a different answer.
    # The output natural is refused by the one decoder, on both backends
    vs = {"b": NatSort(1)}
    top = Const(BoolV(True))
    big, bigger = Const(NatV(1 << 63, 64)), Const(NatV((1 << 63) + 1, 64))
    three, four = Const(NatV(3, 64)), Const(NatV(4, 64))
    too_big = "the natural constant 9223372036854775808 does not fit an " \
        "int64 column"
    too_wide = "an output natural of 64 bits is wider than an int64 code's 63"
    cases = [  # term, exhaustive's error, sat's error or values
        (big, too_big, too_wide),
        (Lt(big, bigger), too_big, [BoolV(True)]),
        (three, too_wide, too_wide),
        (Lt(AddMod(three, four), Const(NatV(9, 64))),
         "a sum of 64 bits is wider than an int64 code's 63", [BoolV(True)]),
    ]
    for trm, exh, sat in cases:
        with pytest.raises(ValueError) as e:
            compute_finite_values(vs, top, trm, "exhaustive")
        assert str(e.value) == exh
        if isinstance(sat, str):
            with pytest.raises(ValueError) as e:
                compute_finite_values(vs, top, trm, "sat")
            assert str(e.value) == sat
        else:
            assert list(compute_finite_values(vs, top, trm, "sat").values) \
                == sat
    # refused even when no row satisfies the hypothesis
    for backend in BACKENDS:
        with pytest.raises(ValueError, match="output natural of 64 bits"):
            compute_finite_values(vs, Const(BoolV(False)), three, backend)


def test_sum_of_63_bit_naturals_wraps_quietly():
    # 2 x (2^63 - 1) passes int64 as a numpy scalar sum; the masked sum is
    # still 2^63 - 2, and no overflow warning is printed (pytest turns a
    # RuntimeWarning into an error)
    top = Const(NatV((1 << 63) - 1, 63))
    for backend in BACKENDS:
        res = compute_finite_values({"b": BOOL}, Const(BoolV(True)),
                                    AddMod(top, top), backend)
        assert list(res.values) == [NatV((1 << 63) - 2, 63)], backend


def test_comparison_of_unequal_widths_is_refused_on_sat():
    # a hand-built term the elaborator never makes: sat used to compare the
    # low bit only and answer true; exhaustive compares the values
    vs = {"x": NatSort(3)}
    hyp = Eq(Var("x"), Const(NatV(2, 3)))
    trm = Lt(Var("x"), Const(NatV(1, 1)))
    assert list(compute_finite_values(vs, hyp, trm, "exhaustive").values) \
        == [BoolV(False)]
    with pytest.raises(BlastError) as e:
        compute_finite_values(vs, hyp, trm, "sat")
    assert str(e.value) == "operands of < have 3 and 1 bits"


def test_total_sat_queries_probe_once_past_their_values(monkeypatch):
    # rank's pipeline at (1,1,2) and (2,1,2), as the sat-rank benchmark runs
    # it: every query is total, and its last solve is the one that finds
    # nothing new.  The graph's flagged reach query solves once per value
    # (here one flag pattern per arc) and once more per reached node, the
    # solve that finds it no further value; tagging reads its flags, so the
    # only whole-relation queries are the two certificate sweeps.
    from wfgraph import absgraph, bakery, certify, measure, sat
    seen, reached, solves = [], [], []
    solve = sat.DpllSolver.solve

    def recording(*args, **kwargs):
        seen.append(compute_finite_values(*args, **kwargs))
        return seen[-1]

    def reaching(*args, **kwargs):
        reached.append(reach(*args, **kwargs))
        return reached[-1]

    def counting(self, *args):
        solves.append(None)
        return solve(self, *args)

    monkeypatch.setattr(absgraph, "compute_finite_values", recording)
    monkeypatch.setattr(certify, "compute_finite_values", recording)
    monkeypatch.setattr(absgraph, "reach", reaching)
    monkeypatch.setattr(sat.DpllSolver, "solve", counting)
    nodes = 0
    for params in ((1, 1, 2), (2, 1, 2)):
        model = bakery.bakery_model(*params)
        g = absgraph.map_graph(model, "rank", "sat")
        nodes += len(g.nodes)
        tg = absgraph.tag_graph(model, "rank", g, "sat")
        om = measure.synthesize_omap(tg)
        assert certify.certify_relation(model, "rank", tg, om,
                                        bakery.bakery_text(), "sat").passed
    assert len(seen) == 2
    assert all(r.solve_calls == len(r.values) + 1 for r in seen)
    assert sum(len(r.values) for r in seen) == 52
    assert sum(len({(q.items[0][1], q.items[1][1]) for q in found})
               for found in reached) == sum(map(len, reached)) == nodes == 38
    assert len(solves) == sum(r.solve_calls for r in seen) + 38 + 38 == 130


def test_reach_lists_reached_values_canonically_on_both_backends(
        monkeypatch):
    # y = x + 1 or x + 3 (mod 8), from an x below 6: a node is (x, t), the
    # constant bit an assumption on the TRUE literal, and a free bit z
    # rides along as a flag, so each arc has two values.  Seeds 4 and 1,
    # given out of order, reach every node; 6 and 7 have no successor, so a
    # seed 7 reaches no arc
    vs = {"x": NatSort(3), "y": NatSort(3), "z": BOOL}
    x, y = Var("x"), Var("y")
    hyp = And((Lt(x, Const(NatV(6, 3))),
               Or((Eq(y, AddMod(x, Const(NatV(1, 3)))),
                   Eq(y, AddMod(x, Const(NatV(3, 3))))))))

    def node(e):
        return TupleE((("n", e), ("t", Const(BoolV(True)))))

    def val(k):
        return TupleV((("n", NatV(k, 3)), ("t", BoolV(True))))

    trm = TupleE((("src", node(x)), ("dst", node(y)), ("z", Var("z"))))

    def pattern(u, v, z):
        return TupleV((("src", val(u)), ("dst", val(v)), ("z", BoolV(z))))

    def walk(seeds):
        out, queue, seen = [], sorted(seeds), set(seeds)
        while queue:
            u = queue.pop(0)
            for v in sorted({(u + 1) % 8, (u + 3) % 8} if u < 6 else ()):
                out += [pattern(u, v, False), pattern(u, v, True)]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return out

    want = canonical_sorted(walk({1, 4}))
    for backend in BACKENDS:
        assert reach(vs, hyp, trm, [val(4), val(1)], backend) == want
        assert reach(vs, hyp, trm, [val(7)], backend) == []
        # from seed 1 the bound counts the 12 arcs, not their 24 values
        monkeypatch.setattr(enumeration, "VALUE_BOUND", 13)
        assert reach(vs, hyp, trm, [val(1)], backend) == \
            canonical_sorted(walk({1}))
        monkeypatch.setattr(enumeration, "VALUE_BOUND", 12)
        with pytest.raises(NotTotal) as e:
            reach(vs, hyp, trm, [val(1)], backend, "step")
        assert (e.value.what, e.value.num) == ("step", 12)
        monkeypatch.undo()


_NODES = st.integers(0, 7)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.tuples(_NODES, _NODES), max_size=12),
       st.sets(_NODES, max_size=3))
def test_reach_is_the_image_filtered_by_a_reference_walk(arcs, seeds):
    # a random relation on 3-bit nodes x -> y, a free bit z riding along:
    # on both backends, reach lists the whole image's values whose source
    # a plain breadth-first walk from the seeds reaches, in the image's
    # canonical order
    vs = {"x": NatSort(3), "y": NatSort(3), "z": BOOL}
    x, y = Var("x"), Var("y")

    def nat(k):
        return Const(NatV(k, 3))

    hyp = Or(tuple(And((Eq(x, nat(u)), Eq(y, nat(v)))) for u, v in arcs))
    trm = TupleE((("src", x), ("dst", y), ("z", Var("z"))))
    seen, queue = set(seeds), list(seeds)
    while queue:
        u = queue.pop(0)
        for v in {v for w, v in arcs if w == u} - seen:
            seen.add(v)
            queue.append(v)
    for backend in BACKENDS:
        image = compute_finite_values(vs, hyp, trm, backend).values
        want = [q for q in image if q.items[0][1].val in seen]
        got = reach(vs, hyp, trm, [NatV(k, 3) for k in seeds], backend)
        assert got == want, backend


def test_sat_reach_decodes_once(monkeypatch):
    # a sat reach enumerates every reachable node's patterns under
    # assumptions first, then decodes them all in one output_columns and
    # one distinct_rows call, not one of each per reached node
    from wfgraph import absgraph, bakery
    calls = []
    columns, distinct = Circuit.output_columns, enumeration.distinct_rows

    def counting_columns(self, rows):
        calls.append("output_columns")
        return columns(self, rows)

    def counting_distinct(*args):
        calls.append("distinct_rows")
        return distinct(*args)

    monkeypatch.setattr(Circuit, "output_columns", counting_columns)
    monkeypatch.setattr(enumeration, "distinct_rows", counting_distinct)
    for params, nodes in (((1, 1, 2), 18), ((2, 1, 2), 20)):
        calls.clear()
        g = absgraph.map_graph(bakery.bakery_model(*params), "rank", "sat")
        assert len(g.nodes) == nodes
        assert calls == ["output_columns", "distinct_rows"]


def test_sat_reach_solves_in_an_order_string_hashing_cannot_change():
    # seeds are taken in canonical order and found nodes are queued as
    # found, so the solver is asked the same assumptions in the same order
    # under any string hash seed; a node's assumptions are asked once
    code = """if True:
        import json
        from wfgraph import absgraph, bakery, sat
        calls, solve = [], sat.DpllSolver.solve

        def recording(self, assumptions=()):
            calls.append(list(assumptions))
            return solve(self, assumptions)

        sat.DpllSolver.solve = recording
        for params in ((1, 1, 2), (2, 1, 2)):
            absgraph.map_graph(bakery.bakery_model(*params), "rank", "sat")
            calls.append(None)
        print(json.dumps(calls))
    """
    src = str(Path(wfgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=h)
    ).stdout) for h in "01"]
    assert runs[0] == runs[1]
    # 38 nodes, each asked once per value and once more (38 values here),
    # and one marker per graph
    assert len(runs[0]) == 38 + 38 + 2
    assert len({tuple(a) for a in runs[0] if a is not None}) == 38


# header and sha256 of the DIMACS text of every circuit a sat pipeline
# bitblasts, in order: a step map's reach and certify sweep, a blocking
# map's domain, whole image and certify sweep.  The encoding (variable
# numbering, gates, clause order) changes only when a change says so.
PIPELINE_CNF_SHA256 = {
    ("rank", (2, 1, 2)): [
        ("p cnf 180 663", "11a25bae8203ee57d110009411dae9a2"
                          "79fce3ae4576c8923e2b2f6b68d61317"),
        ("p cnf 191 754", "e66c379d1bd8752b1d4fa1f17d3993bd"
                          "de033a46d2e6e4cc84bf7c9d833002d5"),
    ],
    ("nlock", (1, 1, 2)): [
        ("p cnf 41 79", "e64eb8a620731c11ef8d97cb53dabfe8"
                        "d52d5aea44794e491cb2f23dd87ff4e6"),
        ("p cnf 114 277", "1b1f306a614daf2e13658287f293f543"
                          "6929d3633de943d45deb5354ca211e79"),
        ("p cnf 105 250", "b24e2a1339f856a6174193545042be7a"
                          "e13d76edcbdff9165cbc379219acd0e7"),
    ],
}


@pytest.mark.parametrize("map_name,params", PIPELINE_CNF_SHA256)
def test_every_sat_query_cnf_is_pinned(map_name, params, monkeypatch):
    from wfgraph import absgraph, bakery, certify, measure
    from wfgraph.bitblast import dimacs
    got, blast = [], enumeration.bitblast

    def recording(*args):
        circuit = blast(*args)
        text = dimacs(circuit)
        got.append((text.splitlines()[0],
                    hashlib.sha256(text.encode()).hexdigest()))
        return circuit

    monkeypatch.setattr(enumeration, "bitblast", recording)
    model = bakery.bakery_model(*params)
    g = absgraph.map_graph(model, map_name, "sat")
    tg = absgraph.tag_graph(model, map_name, g, "sat")
    om = measure.synthesize_omap(tg)
    assert certify.certify_relation(model, map_name, tg, om,
                                    bakery.bakery_text(), "sat").passed
    assert got == PIPELINE_CNF_SHA256[map_name, params]


def test_unsat_hypothesis_is_total_in_one_call():
    vs = {"x": NatSort(3)}
    hyp = And((Lt(Var("x"), Const(NatV(2, 3))),
               Not(Lt(Var("x"), Const(NatV(4, 3))))))
    for backend in ("exhaustive", "sat"):
        res = compute_finite_values(vs, hyp, Var("x"), backend)
        assert res == EnumResult((), 1)


def test_values_are_canonically_sorted_and_distinct():
    vs = {"x": NatSort(3), "b": BOOL}
    trm = Var("x")
    for backend in ("exhaustive", "sat"):
        res = compute_finite_values(vs, Const(BoolV(True)), trm, backend)
        vals = [v.val for v in res.values]
        assert vals == sorted(set(vals)) == list(range(8))


def test_solve_calls_count_blocking_probes():
    # n distinct values cost n SAT calls plus one final UNSAT probe
    vs = {"x": NatSort(2)}
    res = compute_finite_values(vs, Const(BoolV(True)),
                                Eq(Var("x"), Var("x")), "sat")
    assert res == EnumResult((BoolV(True),), 2)


def test_bad_backend_and_budget():
    vs = {"x": BOOL}
    with pytest.raises(ValueError):
        compute_finite_values(vs, Const(BoolV(True)), Var("x"), "z3")
    # there is no value budget: a number where one went is no backend
    with pytest.raises(ValueError, match="unknown backend 10"):
        compute_finite_values(vs, Const(BoolV(True)), Var("x"), 10)
    assert BACKENDS == ("exhaustive", "sat")
