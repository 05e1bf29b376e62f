"""Model language: parsing, sorts, evaluation, and value plumbing."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfgraph

from _gen import rand_expr, rand_sort, rand_var_sorts
from wfgraph.bakery import bakery_text
from wfgraph.cli import cli_main
from wfgraph.model import (
    BOOL,
    And,
    BoolV,
    CaseNat,
    Const,
    EnumSort,
    EnumV,
    Eq,
    EvalError,
    Field,
    ModelError,
    NatSort,
    NatV,
    ParseError,
    TupleSort,
    TupleV,
    Var,
    canonical_sorted,
    code_value,
    compile_expr,
    default_value,
    eval_expr,
    parse_model,
    pretty_print,
    sort_card,
    sort_text,
    subst_vars,
    value_from_json,
    value_text,
    value_code,
    value_to_json,
)
from wfgraph.enumeration import BACKENDS, compute_finite_values
from wfgraph.sexpr import SExprError, parse_sexprs, pretty, to_text
from wfgraph.system import System
from wfgraph.veceval import Table, eval_vec


@pytest.fixture(scope="module")
def bakery():
    return parse_model(bakery_text())


def _initial(model):
    return System.compile(model).initial


# -- s-expressions -----------------------------------------------------------

def test_sexpr_roundtrip():
    text = "(a (b :c 12) nil (d))"
    forms = parse_sexprs(text)
    assert len(forms) == 1
    assert to_text(forms[0]) == text


def test_sexpr_comments_and_positions():
    forms = parse_sexprs(";; leading\n(x ;; inline\n  y)\n")
    assert to_text(forms[0]) == "(x y)"
    assert forms[0].items[1].pos() == (3, 3)


def test_sexpr_unbalanced():
    with pytest.raises(SExprError):
        parse_sexprs("(a (b)")
    with pytest.raises(SExprError):
        parse_sexprs("a) b")


def test_sexpr_pretty_reparses():
    forms = parse_sexprs(bakery_text())
    again = parse_sexprs("\n".join(pretty(f) for f in forms))
    assert [to_text(f) for f in again] == [to_text(f) for f in forms]


# -- parsing and parameters --------------------------------------------------

def test_bakery_parses(bakery):
    assert bakery.name == "bakery"
    assert dict(bakery.params) == {"n": 2, "r": 2, "w": 3}
    assert bakery.map_names == ("rank", "nlock")
    assert bakery.map_decl("rank").kind == "step"
    assert bakery.map_decl("nlock").kind == "blok"
    assert bakery.system is not None


def test_param_override_changes_widths():
    m = parse_model(bakery_text(), {"w": 2, "r": 1})
    proc = m.record_sort("proc")
    assert proc.field_sort("temp") == NatSort(2)
    assert proc.field_sort("runs") == NatSort(1)
    # (bits n) resolves to the width holding the parameter value
    assert proc.field_sort("loop") == NatSort(2)


def test_param_override_unknown_name():
    with pytest.raises(ModelError):
        parse_model(bakery_text(), {"bogus": 1})


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        parse_model("(model m (sort s (f (nat 0))))")
    assert ei.value.pos is not None


INIT = "(define init ((i (nat (bits n)))) proc"
SIG = "'init' has the wrong signature for (init ...)"
COUNT = "(processes n) takes a parameter or a literal of at least 1"


@pytest.mark.parametrize("old, new, message", [
    ("(processes n) ", "", "system is missing (processes ...)"),
    ("(processes n)", "(processes 0)", COUNT),
    ("(processes n)", "(processes q)", COUNT),
    ("(processes n)", "(processes (bits n))", COUNT),
    ("(processes n)", "(processes 4)", SIG),
    (INIT, "(define init () proc", SIG),
    (INIT, "(define init ((i bool)) proc", SIG),
    (INIT, "(define init ((i (nat 1))) proc", SIG),
    (INIT, "(define init ((i (nat 2)) (j (nat 2))) proc", SIG),
])
def test_system_refuses_a_bad_process_count_or_init(old, new, message):
    # the system declares how many processes there are, and its init takes
    # one natural that holds every process index (the edited inits do not
    # read theirs)
    text = bakery_text().replace("(:ndx i)", "(:ndx 1)")
    assert old in text
    with pytest.raises(ParseError) as e:
        parse_model(text.replace(old, new, 1))
    assert e.value.message == message
    assert "\n" not in str(e.value)


@pytest.mark.parametrize("extra, message", [
    ("(shared-init done) ", "unknown system role 'shared-init'"),
    ("(next done) ", "duplicate system role 'next'"),
])
def test_system_refuses_an_unknown_or_repeated_role(extra, message, tmp_path,
                                                    capsys):
    # a misspelt, not-yet-supported or repeated role is refused, not
    # dropped or overwritten
    text = bakery_text().replace("(next next)", extra + "(next next)", 1)
    assert text != bakery_text()
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert e.value.message == message
    f = tmp_path / "bad.wfm"
    f.write_text(text)
    assert cli_main(["check", "--model", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wfgraph: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


BADB = ("(map badb ((s shared)) (kind {}) (node (:m s.max)) "
        "(measure m (tuple s.max)))")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["blok", "step"])
def test_a_map_ranges_over_the_system_state(kind, backend, tmp_path, capsys):
    # a map abstracts the system's processes: one over another sort is
    # refused with one line, whether the system comes after the map or
    # before it, and no stage runs on it
    text = bakery_text()
    m = BADB.format(kind)
    message = ("map 'badb' ranges over sort 'shared', not the system's "
               "state 'proc'")
    f = tmp_path / "badb.wfm"
    for edited in (text.replace("  (system ", f"  {m}\n  (system ", 1),
                   text.rstrip().removesuffix(")") + f"\n  {m})\n"):
        assert edited.count("(map badb") == 1
        with pytest.raises(ParseError) as e:
            parse_model(edited)
        assert e.value.message == message
        assert "\n" not in str(e.value)
        f.write_text(edited)
        for cmd in ("reach", "order", "synth"):
            assert cli_main([cmd, "--backend", backend, "--map", "badb",
                             "--model", str(f)]) == 1
            assert capsys.readouterr().err == f"wfgraph: error: {message}\n"
    # without a system, a map's sort is its own affair
    start = text.index("  (system ")
    nosys = text[:start] + m + ")\n"
    assert parse_model(nosys).map_decl("badb").state_sort_name == "shared"


def test_system_process_count_is_a_parameter_or_a_literal():
    text = bakery_text()
    m = parse_model(text.replace("(processes n)", "(processes 3)"))
    assert m.system.processes == 3
    assert [a.get("ndx").val for a in _initial(m).trs] == [1, 2, 3]
    assert parse_model(text, {"n": 3}).system.processes == 3


def test_measure_names_and_widths(bakery):
    mp = bakery.map_decl("rank")
    assert mp.measure_names == ("runs", "loop")
    assert mp.widths == {"runs": 1, "loop": 1}


# -- sorts and values --------------------------------------------------------

def test_sort_card(bakery):
    assert sort_card(BOOL) == 2
    assert sort_card(NatSort(3)) == 8
    assert sort_card(EnumSort(("a", "b", "c"))) == 3
    shared = bakery.record_sort("shared")
    assert sort_card(shared) == 8


def test_default_value(bakery):
    proc = bakery.record_sort("proc")
    v = default_value(proc)
    assert v.get("loc") == NatV(0, 5)
    assert v.get("choosing") == BoolV(False)


def test_value_bounds():
    with pytest.raises(ModelError):
        NatV(8, 3)
    with pytest.raises(ModelError):
        EnumV("d", ("a", "b", "c"))


def test_value_text_forms(bakery):
    proc = bakery.record_sort("proc")
    assert value_text(BoolV(True)) == "t"
    assert value_text(BoolV(False)) == "nil"
    assert value_text(NatV(5, 3)) == "5"
    assert value_text(default_value(proc)).startswith("((:loc 0)")


def test_value_json_roundtrip(bakery):
    proc = bakery.record_sort("proc")
    init = _initial(bakery).trs[0]
    for v in (BoolV(True), NatV(6, 3), EnumV("b", ("a", "b")), init,
              default_value(proc)):
        assert value_from_json(value_to_json(v)) == v


@pytest.mark.parametrize("obj", [
    {"n": 1.9, "w": 5}, {"b": "no"}, {"n": "3", "w": "5"}, {"n": True, "w": 3},
    {"n": 3}, {"e": 1, "of": ["a", "b"]}, {"e": "a", "of": ["a", "a"]},
    {"t": [["x"]]}, {"t": 7}, [], 7])
def test_value_from_json_refuses_what_it_would_coerce(obj):
    with pytest.raises(ModelError) as err:
        value_from_json(obj)
    assert "\n" not in str(err.value)


def test_tuple_attribute_view():
    e = EnumV("b", ("a", "b"))
    inner = TupleV((("x", NatV(1, 2)),))
    v = TupleV((("pos-valid", BoolV(True)), ("loop", NatV(3, 2)),
                ("tag", e), ("rec", inner)))
    assert v.pos_valid is True
    assert v.loop == 3 and type(v.loop) is int
    assert v.tag == e and v.rec == inner and v.rec.x == 1
    for name in ("nope", "posvalid", "_", "__loop__", "__setstate__"):
        with pytest.raises(AttributeError):
            getattr(v, name)
    assert not hasattr(v, "__deepcopy__")
    with pytest.raises(AttributeError):  # a view, not a setter
        v.loop = 2
    for twin in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert twin == v and twin.pos_valid is True and twin.rec.x == 1


def test_canonical_sorted_is_total_and_stable():
    vals = [NatV(i, 3) for i in (5, 1, 3, 1)]
    assert canonical_sorted(vals) == canonical_sorted(list(reversed(vals)))
    ordered = canonical_sorted(vals)
    assert [v.val for v in ordered] == [1, 1, 3, 5]


@st.composite
def _scalar_values(draw):
    """A scalar sort (bool, nat of 1-63 bits, enum of 1-5 symbols out of
    alphabetical order) and a few values of it."""
    kind = draw(st.sampled_from(("bool", "nat", "enum")))
    if kind == "bool":
        s, value = BOOL, st.builds(BoolV, st.booleans())
    elif kind == "nat":
        width = draw(st.integers(1, 63))
        s = NatSort(width)
        value = st.builds(NatV, st.integers(0, (1 << width) - 1),
                          st.just(width))
    else:
        syms = draw(st.permutations("edcba"))[:draw(st.integers(1, 5))]
        s = EnumSort(tuple(syms))
        value = st.builds(EnumV, st.sampled_from(syms), st.just(s.syms))
    return s, draw(st.lists(value, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_scalar_values())
def test_value_codes_round_trip_and_order_canonically(case):
    s, values = case
    for v in values:
        assert code_value(s, value_code(v)) == v
        assert 0 <= value_code(v) < sort_card(s)
    assert sorted(values, key=value_code) == canonical_sorted(values)


# -- evaluation --------------------------------------------------------------

def test_init_state(bakery):
    # process k is init(k), for k = 1..n; the shared state is its default
    initial = _initial(bakery)
    assert [a.get("ndx") for a in initial.trs] == [NatV(1, 2), NatV(2, 2)]
    for init in initial.trs:
        assert init.get("loc") == NatV(0, 5)
        assert init.get("runs") == NatV(2, 2)
        assert init.get("done") == BoolV(False)
    assert initial.sh == default_value(bakery.record_sort("shared"))
    assert len(_initial(parse_model(bakery_text(), {"n": 5})).trs) == 5


def test_next_case_arms(bakery):
    nxt = bakery.define("next")
    init = _initial(bakery).trs[0]
    sh = default_value(bakery.record_sort("shared"))
    a1 = eval_expr(nxt.apply(Const(init), Const(sh)), {})
    assert a1.get("loc") == NatV(1, 5)
    assert a1.get("choosing") == BoolV(True)
    # the ticket increment wraps modulo 2^w
    a = init
    for name, val in (("loc", NatV(2, 5)), ("temp", NatV(7, 3))):
        a = TupleV(tuple((n, val if n == name else v) for n, v in a.items))
    a3 = eval_expr(nxt.apply(Const(a), Const(sh)), {})
    assert a3.get("pos") == NatV(0, 3)
    assert a3.get("loop") == NatV(2, 2)


def test_shared_next_updates_max_at_loc6(bakery):
    shn = bakery.define("shared-next")
    init = _initial(bakery).trs[0]
    a = TupleV(tuple((n, NatV(6, 5) if n == "loc" else
                      NatV(4, 3) if n == "pos" else
                      NatV(3, 3) if n == "temp" else v)
                     for n, v in init.items))
    sh = TupleV((("max", NatV(3, 3)),))
    out = eval_expr(shn.apply(Const(sh), Const(a)), {})
    assert out.get("max") == NatV(4, 3)
    sh_hi = TupleV((("max", NatV(5, 3)),))
    assert eval_expr(shn.apply(Const(sh_hi), Const(a)), {}) == sh_hi


def test_eval_unknown_field():
    with pytest.raises(EvalError):
        eval_expr(Field(Const(TupleV((("a", NatV(0, 1)),))), "b"), {})


def test_eval_unbound_var():
    with pytest.raises(EvalError):
        eval_expr(Var("nope"), {})


def test_compiled_errors_surface_when_called():
    unbound = compile_expr(Var("nope"))  # compiling evaluates nothing
    with pytest.raises(EvalError, match="unbound variable 'nope'"):
        unbound({})
    with pytest.raises(EvalError, match="field access on non-record"):
        compile_expr(Field(Var("x"), "f"))({"x": NatV(0, 1)})


def test_compiled_case_takes_first_matching_arm():
    # the parser rejects duplicate keys; a hand-built case keeps the
    # interpreter's first-match order, with the default as fallback
    one, two, three = (Const(NatV(k, 2)) for k in (1, 2, 3))
    case = CaseNat(Var("s"), ((1, one), (1, two)), three)
    f = compile_expr(case)
    assert f({"s": NatV(1, 2)}) == NatV(1, 2)
    assert f({"s": NatV(0, 2)}) == NatV(3, 2)


@pytest.mark.parametrize("seed", range(40))
def test_compiled_matches_vectorized_on_random_scalar_expressions(seed):
    # veceval's eval_vec is an independent evaluator: over the full table of
    # environments, each compiled closure must agree with it row by row
    rng = random.Random(seed)
    var_sorts = rand_var_sorts(rng)
    table = Table(var_sorts)
    table.extend([(v, None) for v in var_sorts])

    def column(vv):
        return [code_value(vv.sort, c)
                for c in np.broadcast_to(vv.arr, (table.n,)).tolist()]

    cols = {v: column(table.var_vval(v)) for v in var_sorts}
    envs = [{v: cols[v][r] for v in var_sorts} for r in range(table.n)]
    for _ in range(5):
        e = rand_expr(rng, var_sorts, rand_sort(rng), 4)
        f = compile_expr(e)
        assert [f(env) for env in envs] == column(eval_vec(e, table)), e


# -- static helpers ----------------------------------------------------------

def test_parse_rejects_mixed_eq():
    bad = """(model m
      (sort s (f bool) (g (nat 2)))
      (define p ((a s)) bool (= a.f a.g)))"""
    with pytest.raises(ModelError):
        parse_model(bad)


def test_subst_closes_a_map_node(bakery):
    mp = bakery.map_decl("rank")
    init = bakery.define("init").apply(Const(NatV(2, 2)))
    closed = subst_vars(mp.node, {mp.var: init})
    assert eval_expr(closed, {}).get("loc") == NatV(0, 5)


def test_define_apply_arity(bakery):
    with pytest.raises(ModelError):
        bakery.define("done").apply(Const(BoolV(True)), Const(BoolV(True)))


def test_and_or_short_forms():
    assert eval_expr(And(()), {}) == BoolV(True)
    assert eval_expr(
        Eq(Const(NatV(1, 1)), Const(NatV(1, 1))), {}) == BoolV(True)


# -- printing ----------------------------------------------------------------

def test_pretty_print_roundtrip(bakery):
    text = pretty_print(bakery)
    again = parse_model(text)
    assert again == bakery
    assert pretty_print(again) == text
    assert "(processes 2)" in text


LAMPS = """(model lamps
  (params (w 2))
  (sort lamp (color (enum red green blue)) (n (nat w)) (on bool))
  (define next ((a lamp)) lamp
    (update a :color (case a.n (0 red) (1 green) (t a.color))
              :on (= a.color blue)))
  (define pick ((a lamp)) bool
    (or (= (if a.on 0 a.n) 3)
        (= (if a.on a.color red) green)
        (= (case a.n (0 1) (1 a.n) (t 2)) 1))))
"""


def test_enum_model_elaborates_evaluates_and_prints():
    # an enum field parsed from text; `if` and `case` in positions with no
    # expected sort, where a bare literal takes its sort from a sibling
    m = parse_model(LAMPS)
    lamp = m.record_sort("lamp")
    assert sort_text(lamp) == \
        "(tuple (color (enum red green blue)) (n (nat 2)) (on bool))"
    assert sort_text(TupleSort(((None, lamp.field_sort("color")),
                                (None, BOOL)))) == \
        "(tuple (enum red green blue) bool)"
    text = pretty_print(m)
    assert "(enum red green blue)" in text and "(0 red)" in text
    assert parse_model(text) == m and pretty_print(parse_model(text)) == text
    # compiled closures and both backends agree on the image of `next`
    # over the states `pick` admits
    hyp, trm = m.define("pick").body, m.define("next").body
    pick, step = compile_expr(hyp), compile_expr(trm)
    states = [TupleV((("color", EnumV(c, ("red", "green", "blue"))),
                      ("n", NatV(n, 2)), ("on", BoolV(on))))
              for c, n, on in itertools.product(("red", "green", "blue"),
                                                range(4), (False, True))]
    want = canonical_sorted({step({"a": x}) for x in states
                             if pick({"a": x}).val})
    assert 0 < len(want) < len(states)
    for backend in BACKENDS:
        r = compute_finite_values({"a": lamp}, hyp, trm, backend)
        assert list(r.values) == want, backend
    assert [value_text(x) for x in want[:2]] == [
        "((:color red) (:n 0) (:on nil))", "((:color red) (:n 0) (:on t))"]


def test_enum_literal_takes_its_sort_from_a_sibling():
    # an enum literal where no sort is expected waits for a sibling's sort,
    # as a natural literal does: each left form reads as its mirror image
    forms = {"eq": ("(= blue a.color)", "(= a.color blue)"),
             "if": ("(= (if a.on red a.color) green)",
                    "(= (if (not a.on) a.color red) green)"),
             "case": ("(= (case a.n (0 red) (t a.color)) green)",
                      "(= (case a.n (1 a.color) (2 a.color) (3 a.color) "
                      "(t red)) green)")}
    defs = "".join(f"\n  (define {k}-{side} ((a lamp)) bool {f})"
                   for k, pair in forms.items()
                   for side, f in zip(("left", "right"), pair))
    m = parse_model("(model lamps (params (w 2))\n"
                    "  (sort lamp (color (enum red green blue)) (n (nat w))"
                    f" (on bool)){defs})")
    lamp = m.record_sort("lamp")
    colors = ("red", "green", "blue")
    states = [TupleV((("color", EnumV(c, colors)), ("n", NatV(n, 2)),
                      ("on", BoolV(on))))
              for c, n, on in itertools.product(colors, range(4),
                                                (False, True))]
    assert m.define("eq-left").body == Eq(Const(EnumV("blue", colors)),
                                          Field(Var("a"), "color"))
    for k in forms:
        left, right = m.define(f"{k}-left").body, m.define(f"{k}-right").body
        want = [x for x in states if eval_expr(right, {"a": x}).val]
        assert 0 < len(want) < len(states), k
        assert [x for x in states if eval_expr(left, {"a": x}).val] == want
        for backend in BACKENDS:
            r = compute_finite_values({"a": lamp}, left, Var("a"), backend)
            assert list(r.values) == canonical_sorted(want), (k, backend)
    # a literal with no sort anywhere is still refused
    with pytest.raises(ModelError, match="cannot infer a sort"):
        parse_model("(model m (sort s (c (enum x y)))"
                    " (define f ((a s)) bool (= x y)))")


def test_deep_model_is_a_model_error_for_a_library_caller():
    # parsing reads and elaborates expressions by recursion: a rank node
    # over a 600-deep (not ...) chain passes Python's recursion limit, and
    # a library caller in a fresh interpreter gets the CLI's one line as a
    # ModelError, not a bare RecursionError
    code = """if True:
        from wfgraph.bakery import bakery_text
        from wfgraph.model import ModelError, parse_model
        text = bakery_text()
        deep = text.replace("(:inv (counters-ok a)))", "(:inv "
                            + "(not " * 600 + "(counters-ok a)"
                            + ")" * 600 + "))")
        assert deep != text
        try:
            parse_model(deep)
        except ModelError as err:
            print(repr(err))
    """
    src = str(Path(wfgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out == "ModelError('model nests too deeply')\n"
