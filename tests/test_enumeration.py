"""Value enumeration: the exhaustive and SAT routes must be observationally
identical, including totality verdicts and solve-call counts."""

import itertools
import random

import pytest

import wfgraph.veceval as veceval
from _gen import backends_agree, rand_expr, rand_sort, rand_var_sorts
from wfgraph import enumeration
from wfgraph.bitblast import BlastError
from wfgraph.enumeration import (
    BACKENDS, EnumResult, NotTotal, compute_finite_values)
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
    # nothing new
    from wfgraph import absgraph, bakery, certify, measure
    seen = []

    def recording(*args, **kwargs):
        seen.append(compute_finite_values(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(absgraph, "compute_finite_values", recording)
    monkeypatch.setattr(certify, "compute_finite_values", recording)
    for params in ((1, 1, 2), (2, 1, 2)):
        model = bakery.bakery_model(*params)
        g = absgraph.map_graph(model, "rank", "sat")
        tg = absgraph.tag_graph(model, "rank", g, "sat")
        om = measure.synthesize_omap(tg)
        assert certify.certify_relation(model, "rank", tg, om,
                                        bakery.bakery_text(), "sat").passed
    assert len(seen) == 8
    assert all(r.solve_calls == len(r.values) + 1 for r in seen)
    assert sum(len(r.values) for r in seen) == 352


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
