"""Circuit encoding against the reference evaluator.

The main test drives randomly generated scalar expressions through the
encoder and checks, assignment by assignment, that the CNF is satisfiable
exactly when the hypothesis evaluates true and that the output, decoded the
way the enumerator decodes it (``Circuit.output_columns`` then
``veceval.distinct_rows``), equals direct evaluation.
"""

import itertools
import random

import pytest

from _gen import rand_env, rand_expr, rand_sort, rand_var_sorts, rand_value
from wfgraph.bitblast import (
    TRUE, BlastError, _Builder, bitblast, bitval_lits, dimacs)
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
    Le,
    Lt,
    NatSort,
    NatV,
    SubSat,
    TupleE,
    TupleSort,
    TupleV,
    Var,
    eval_expr,
    sort_bits,
    sort_card,
)
from wfgraph.sat import DpllSolver
from wfgraph.veceval import distinct_rows


def _unit_lits(sort, lits, value):
    """Unit literals forcing an input's bits to a concrete value."""
    if isinstance(sort, TupleSort):
        out, start = [], 0
        for (_, s), (_, v) in zip(sort.fields, value.items):
            out += _unit_lits(s, lits[start:start + sort_bits(s)], v)
            start += sort_bits(s)
        return out
    if isinstance(sort, BoolSort):
        return [lits[0] if value.val else -lits[0]]
    if isinstance(sort, NatSort):
        n = value.val
    else:
        n = value.index
    return [l if (n >> i) & 1 else -l for i, l in enumerate(lits)]


def _assignments(var_sorts, rng, cap=64):
    domains = {v: s for v, s in var_sorts.items()}
    total = 1
    for s in domains.values():
        total *= sort_card(s)
    if total <= cap:
        pools = {v: _all_values(s) for v, s in domains.items()}
        names = list(pools)
        for combo in itertools.product(*(pools[v] for v in names)):
            yield dict(zip(names, combo))
    else:
        for _ in range(cap):
            yield rand_env(rng, var_sorts)


def _all_values(s):
    if isinstance(s, BoolSort):
        return [BoolV(False), BoolV(True)]
    if isinstance(s, NatSort):
        return [NatV(i, s.width) for i in range(1 << s.width)]
    return [EnumV(sym, s.syms) for sym in s.syms]


def _solve_forced(circuit, var_sorts, env):
    solver = DpllSolver(circuit.num_vars)
    for cl in circuit.clauses:
        solver.add_clause(cl)
    solver.add_clause([circuit.hyp_lit])
    for name, lits in circuit.inputs.items():
        for unit in _unit_lits(var_sorts[name], lits, env[name]):
            solver.add_clause([unit])
    return solver.model if solver.solve() else None


def _decode(circuit, model):
    """The trm value in ``model``, decoded as the enumerator decodes it."""
    bits = [model[l] if l > 0 else not model[-l] for l in circuit.outputs]
    (value,) = distinct_rows(circuit.output_columns([bits]), 1)
    return value


def test_random_exprs_match_evaluator():
    rng = random.Random(20240911)
    checked = 0
    for _ in range(120):
        var_sorts = rand_var_sorts(rng)
        trm = rand_expr(rng, var_sorts, rand_sort(rng), 4)
        hyp = rand_expr(rng, var_sorts, BOOL, 3)
        circuit = bitblast(trm, hyp, var_sorts)
        for env in _assignments(var_sorts, rng):
            model = _solve_forced(circuit, var_sorts, env)
            want_sat = eval_expr(hyp, env).val
            assert (model is not None) == want_sat
            if model is not None:
                assert _decode(circuit, model) == eval_expr(trm, env)
                checked += 1
    assert checked > 1000


def test_equal_subterms_share_their_gates():
    # one random subterm built twice from the same RNG state: equal trees,
    # distinct objects, so only the builder's gate table can share them
    rng = random.Random(20240912)
    checked = 0
    for _ in range(60):
        var_sorts = rand_var_sorts(rng)
        s = rand_sort(rng)
        state = rng.getstate()
        first = rand_expr(rng, var_sorts, s, 4)
        rng.setstate(state)
        second = rand_expr(rng, var_sorts, s, 4)
        assert first == second and first is not second
        other = rand_expr(rng, var_sorts, rand_sort(rng), 3)
        trm = TupleE((("a", first), ("b", other), ("c", second)))
        hyp = rand_expr(rng, var_sorts, BOOL, 3)
        circuit = bitblast(trm, hyp, var_sorts)
        out = dict(circuit.output.items)
        assert bitval_lits(out["a"]) == bitval_lits(out["c"])
        for env in _assignments(var_sorts, rng):
            model = _solve_forced(circuit, var_sorts, env)
            assert (model is not None) == eval_expr(hyp, env).val
            if model is not None:
                assert _decode(circuit, model) == eval_expr(trm, env)
                checked += 1
    assert checked > 400


def test_builder_builds_each_gate_once():
    bld = _Builder()
    a, b, c = bld.new_var(), bld.new_var(), bld.new_var()

    def size():
        return bld.num_vars, len(bld.clauses)

    g = bld.g_and([a, b])
    built = size()
    # the same literal set, in any order and with repeats; OR by De Morgan
    assert bld.g_and([b, a, b]) == g
    assert -bld.g_or([-a, -b]) == g
    assert size() == built
    x = bld.g_xor(a, b)
    built = size()
    # keyed by the operands' variables, the sign folded into the literal
    assert bld.g_xor(b, a) == x
    assert -bld.g_xor(-a, b) == x == bld.g_xor(-a, -b)
    assert size() == built
    i = bld.g_ite(a, b, c)
    built = size()
    assert bld.g_ite(a, b, c) == i
    assert size() == built
    # a different gate over the same literals is a new gate
    assert bld.g_ite(a, c, b) not in (i, -i)
    assert bld.g_and([a, -b]) not in (g, -g)


def test_record_case_builds_each_arm_test_once():
    # scalarize splits a record-valued case into one case per field, each
    # testing every arm's key again: the tests are built for the first field
    # and shared by the others
    def blast(fields):
        rec = TupleSort(fields)
        vs = {"k": NatSort(2), "p": rec, "q": rec, "r": rec, "s": rec}
        trm = CaseNat(Var("k"), ((0, Var("p")), (1, Var("q")), (2, Var("r"))),
                      Var("s"))
        return bitblast(trm, Const(BoolV(True)), vs)

    one = blast((("a", BOOL),))
    two = blast((("a", BOOL), ("b", BOOL)))
    # field b adds one input bit per record variable and one ite per arm
    assert two.num_vars == one.num_vars + 4 + 3


def test_encoding_is_deterministic():
    rng = random.Random(7)
    var_sorts = rand_var_sorts(rng)
    trm = rand_expr(rng, var_sorts, rand_sort(rng), 4)
    a = bitblast(trm, Const(BoolV(True)), var_sorts)
    b = bitblast(trm, Const(BoolV(True)), var_sorts)
    assert a.clauses == b.clauses
    assert a.inputs == b.inputs
    assert a.outputs == b.outputs
    assert (a.num_vars, a.hyp_lit) == (b.num_vars, b.hyp_lit)
    assert dimacs(a) == dimacs(b)


def test_var_one_is_reserved_true():
    c = bitblast(Const(BoolV(True)), Const(BoolV(True)), {})
    assert [TRUE] in c.clauses
    assert c.outputs == [TRUE]


def test_enum_range_exclusion():
    s = EnumSort(("a", "b", "c"))
    c = bitblast(Var("x"), Const(BoolV(True)), {"x": s})
    solver = DpllSolver(c.num_vars)
    for cl in c.clauses:
        solver.add_clause(cl)
    solver.add_clause([c.hyp_lit])
    for lit in c.inputs["x"]:
        solver.add_clause([lit])  # force the unused code 3
    assert not solver.solve()


@pytest.mark.parametrize("a,b", [(0, 0), (3, 5), (7, 1), (6, 7), (7, 7)])
def test_arith_gates(a, b):
    w = 3
    env = {"x": NatV(a, w), "y": NatV(b, w)}
    vs = {"x": NatSort(w), "y": NatSort(w)}
    cases = [
        (AddMod(Var("x"), Var("y")), NatV((a + b) % 8, w)),
        (SubSat(Var("x"), Var("y")), NatV(max(a - b, 0), w)),
        (Lt(Var("x"), Var("y")), BoolV(a < b)),
        (Eq(Var("x"), Var("y")), BoolV(a == b)),
    ]
    for trm, want in cases:
        c = bitblast(trm, Const(BoolV(True)), vs)
        model = _solve_forced(c, vs, env)
        assert model is not None
        assert _decode(c, model) == want


def test_mismatched_widths_are_refused():
    # the elaborator never builds these; a library caller can
    x, narrow = Var("x"), Const(NatV(1, 1))
    for trm, op in ((Lt(x, narrow), "<"), (Le(x, narrow), "<="),
                    (Eq(x, narrow), "="), (AddMod(x, narrow), "+"),
                    (SubSat(x, narrow), "-")):
        with pytest.raises(BlastError) as e:
            bitblast(trm, Const(BoolV(True)), {"x": NatSort(3)})
        assert str(e.value) == f"operands of {op} have 3 and 1 bits"


def test_unsat_hypothesis():
    c = bitblast(Var("x"), And((Var("x"), Const(BoolV(False)))),
                 {"x": BOOL})
    solver = DpllSolver(c.num_vars)
    for cl in c.clauses:
        solver.add_clause(cl)
    solver.add_clause([c.hyp_lit])
    assert not solver.solve()


def test_records_are_scalarized():
    # record-typed terms come out as their scalar fields, in declaration order
    from wfgraph.bakery import bakery_model
    m = bakery_model()
    mp = m.map_decl("rank")
    proc = m.record_sort("proc")
    c = bitblast(mp.node, Const(BoolV(True)), {mp.var: proc})
    assert [n for n, _ in c.output.items] == [n for n, _ in mp.node_sort.fields]
    rng = random.Random(3)
    for _ in range(20):
        a = TupleV(tuple((n, rand_value(rng, s)) for n, s in proc.fields))
        model = _solve_forced(c, {mp.var: proc}, {mp.var: a})
        assert model is not None
        assert _decode(c, model) == eval_expr(mp.node, {mp.var: a})


def test_record_branch_encodes_its_condition_once():
    # scalarize splits a record branch into one branch per field, all on
    # the same condition node: its gates are built once, not per field
    rec = TupleSort((("a", NatSort(2)), ("b", BOOL), ("c", NatSort(2))))
    vs = {"p": rec, "q": rec, "n": NatSort(2)}
    p, q = Var("p"), Var("q")
    cond = Lt(AddMod(Var("n"), Field(p, "a")), Field(q, "a"))
    top = Const(BoolV(True))
    shared = bitblast(TupleE((("r", Ite(cond, p, q)),)), top, vs)
    # the same gates once more, with the branches on a fresh input
    apart = bitblast(TupleE((("c", cond), ("r", Ite(Var("g"), p, q)))), top,
                     dict(vs, g=BOOL))
    assert shared.num_vars == apart.num_vars - 1


def test_decode_rejects_out_of_range_enum():
    s = EnumSort(("a", "b", "c"))
    c = bitblast(Var("x"), Const(BoolV(True)), {"x": s})
    # rows of output bits, LSB first: codes 2 and 3; 3 names no symbol
    with pytest.raises(BlastError, match="enum code 3 out of range"):
        c.output_columns([[False, True], [True, True]])


def test_dimacs_shape():
    vs = {"x": NatSort(2)}
    c = bitblast(Lt(Var("x"), Const(NatV(2, 2))), Const(BoolV(True)), vs)
    text = dimacs(c)
    lines = text.splitlines()
    head = lines[0].split()
    assert head[:2] == ["p", "cnf"]
    assert int(head[2]) == c.num_vars
    assert int(head[3]) == len(lines) - 1
    assert all(line.endswith(" 0") for line in lines[1:])
