"""The exhaustive backend's table builder and row decoder against plain
reference versions: demand analysis runs once per conjunct, the staged
tables come out column for column as the per-step analysis built them, and
the dense-rank decoder returns exactly the per-row rebuild."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import wfgraph.veceval as veceval
from wfgraph.absgraph import relation_parts
from wfgraph.bakery import bakery_model
from wfgraph.model import TupleE, sort_card, subst_vars
from wfgraph.veceval import (
    Table, VBool, VEnum, VNat, VRec, atom_sort, atoms_for, build_table,
    distinct_rows, eval_vec, scalarize, split_conjuncts)

# -- build_table ---------------------------------------------------------------


def _reference_table(var_sorts, hyp, trm_exprs) -> Table:
    """Staged filtering with demand analysis redone at every step."""
    table = Table(var_sorts)
    pending = split_conjuncts(hyp)
    while pending:
        def missing_span(c):
            span = 1
            for k in atoms_for([c], var_sorts):
                if k not in table.cols:
                    span *= sort_card(atom_sort(k, var_sorts))
            return span

        conj = pending.pop(min(range(len(pending)),
                               key=lambda i: missing_span(pending[i])))
        table.extend(atoms_for([conj], var_sorts))
        if table.n:
            mask = eval_vec(conj, table)
            table.filter(np.broadcast_to(mask.arr, (table.n,)))
    table.extend(atoms_for(trm_exprs, var_sorts))
    return table


def _nlock_relation_query():
    model = bakery_model(w=2)
    mp, rel, dst, var_sorts = relation_parts(model, "nlock")
    node_y = subst_vars(mp.node, {mp.var: dst})
    trm = TupleE((("src", mp.node), ("dst", node_y)))
    return var_sorts, scalarize(rel, var_sorts), scalarize(trm, var_sorts)


def test_build_table_runs_demand_analysis_once_per_conjunct(monkeypatch):
    var_sorts, hyp, trm = _nlock_relation_query()
    ref = _reference_table(var_sorts, hyp, [trm])
    calls = []

    def counting(exprs, vs):
        calls.append(len(exprs))
        return atoms_for(exprs, vs)

    monkeypatch.setattr(veceval, "atoms_for", counting)
    got = build_table(var_sorts, hyp, [trm])
    conjuncts = len(split_conjuncts(hyp))
    assert conjuncts > 3
    assert len(calls) <= conjuncts + 1
    assert got.n == ref.n > 0
    assert list(got.cols) == list(ref.cols)
    for k in ref.cols:
        assert np.array_equal(got.cols[k], ref.cols[k])


# -- distinct_rows -------------------------------------------------------------


def _reference_rows(v, n_rows):
    """One full rebuild per distinct row."""
    if n_rows == 0:
        return []
    leaves = veceval.vval_leaves(v)
    if not leaves:
        return [veceval._rebuild(v, [], [0])]
    mat = np.column_stack([
        np.broadcast_to(np.asarray(leaf.arr, dtype=np.int64), (n_rows,))
        for leaf in leaves])
    return [veceval._rebuild(v, [int(c) for c in row], [0])
            for row in np.unique(mat, axis=0)]


SYMS = ("lo", "mid", "hi")


@st.composite
def _leaf(draw, n_rows):
    kind = draw(st.sampled_from(("bool", "nat", "enum")))
    hi = {"bool": 1, "nat": 3, "enum": len(SYMS) - 1}[kind]
    if draw(st.booleans()):  # a constant lane broadcast over the rows
        codes = np.int64(draw(st.integers(0, hi)))
    else:
        codes = np.array(draw(st.lists(st.integers(0, hi), min_size=n_rows,
                                       max_size=n_rows)), dtype=np.int64)
    if kind == "bool":
        return VBool(np.asarray(codes).astype(bool))
    if kind == "nat":
        return VNat(codes, 2)
    return VEnum(codes, SYMS)


@st.composite
def _record(draw, n_rows, depth):
    items = []
    for i in range(draw(st.integers(0 if depth else 1, 4))):
        name = draw(st.sampled_from((f"f{i}", None)))
        pick = draw(st.integers(0, 3))
        if pick == 0 and items:
            sub = draw(st.sampled_from(items))[1]  # a repeated sub-record
        elif pick == 1 and depth < 2:
            sub = draw(_record(n_rows, depth + 1))
        else:
            sub = draw(_leaf(n_rows))
        items.append((name, sub))
    return VRec(tuple(items))


@st.composite
def _terms(draw):
    n_rows = draw(st.integers(0, 30))
    if draw(st.booleans()):
        return draw(_leaf(n_rows)), n_rows
    return draw(_record(n_rows, 0)), n_rows


@settings(max_examples=300, deadline=None)
@given(_terms())
def test_distinct_rows_matches_per_row_rebuild(case):
    v, n_rows = case
    got = distinct_rows(v, n_rows)
    assert got == _reference_rows(v, n_rows)


def test_distinct_rows_edge_cases():
    rec = VRec((("a", VNat(np.array([1, 1, 0]), 2)),))
    assert distinct_rows(rec, 0) == []
    assert distinct_rows(VNat(np.array([], dtype=np.int64), 2), 0) == []
    assert distinct_rows(VRec(()), 3) == _reference_rows(VRec(()), 3)
    shared = VRec((("x", VBool(np.array([True, False, True]))),))
    twice = VRec((("p", shared), ("q", shared), ("e", VRec(()))))
    assert distinct_rows(twice, 3) == _reference_rows(twice, 3)
    # a sub-value that repeats across rows is decoded once and shared
    node = VRec((("loc", VNat(np.int64(2), 2)), ("ok", VBool(np.bool_(True)))))
    pairs = VRec((("src", node), ("m", VNat(np.array([0, 1, 2]), 2))))
    got = distinct_rows(pairs, 3)
    assert got == _reference_rows(pairs, 3) and len(got) == 3
    assert got[0].items[0][1] is got[2].items[0][1]


def test_distinct_rows_past_64_bits_of_cardinality():
    # ten 8-bit leaves span 2**80 codes, more than any int64 row key holds;
    # the dense rank never grows past the row count
    rng = np.random.default_rng(5)
    n_rows = 400
    cols = rng.integers(0, 4, size=(10, n_rows)) * 85  # 0, 85, 170, 255
    rec = VRec(tuple((f"f{i}", VNat(cols[i], 8)) for i in range(10)))
    got = distinct_rows(rec, n_rows)
    assert got == _reference_rows(rec, n_rows)
    assert 1 < len(got) <= n_rows
    nested = VRec((("a", VRec(rec.items[:5])), ("b", VRec(rec.items[5:]))))
    assert distinct_rows(nested, n_rows) == _reference_rows(nested, n_rows)
