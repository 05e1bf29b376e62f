"""The exhaustive backend's table builder and row decoder against plain
reference versions: demand analysis runs once per conjunct, the staged
tables come out column for column as the per-step analysis built them,
chunked staging returns the unchunked table row for row with each row
block starting at its crossing, so does staging that drops the rows a
conjunct already rules out (a sound drop), packed-key ranking gives the
column-by-column ranks, counting the keys it can and sorting the rest,
and the dense-rank decoder returns exactly the per-row rebuild."""

import dataclasses
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from math import prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfgraph
import wfgraph.veceval as veceval
from _gen import rand_expr, rand_sort, rand_value, rand_var_sorts
from wfgraph.absgraph import graph_text, map_graph, tag_graph
from wfgraph.bakery import bakery_model
from wfgraph.certify import relation_cases
from wfgraph.model import (
    BOOL, AddMod, And, BoolV, CaseNat, Const, EnumSort, Eq, Field, Le, Lt,
    NatSort, NatV, Or,
    TupleE, TupleV, Var, canonical_sorted, sort_card, subst_vars)
from wfgraph.system import relation_parts
from wfgraph.veceval import (
    Capacity, Table, VLeaf, VRec, _may, atom_sort,
    atoms_for, build_table, distinct_rows, eval_vec, exhaustive_values,
    lex_rank, scalarize, split_conjuncts)

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

    def counting(exprs, vs, memo=None):
        calls.append(len(exprs))
        return atoms_for(exprs, vs, memo)

    monkeypatch.setattr(veceval, "atoms_for", counting)
    got = build_table(var_sorts, hyp, [trm])
    conjuncts = len(split_conjuncts(hyp))
    assert conjuncts > 3
    assert len(calls) <= conjuncts + 1
    assert got.n == ref.n > 0
    assert list(got.cols) == list(ref.cols)
    for k in ref.cols:
        assert np.array_equal(got.cols[k], ref.cols[k])


# -- chunked staging -----------------------------------------------------------

UNCHUNKED = 1 << 62


def _assert_same_table(got: Table, ref: Table):
    assert got.n == ref.n
    assert list(got.cols) == list(ref.cols)
    for k in ref.cols:
        assert got.cols[k].dtype == ref.cols[k].dtype
        assert np.array_equal(got.cols[k], ref.cols[k])


def _build(chunk, *args, **kw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(veceval, "CHUNK_ROWS", chunk)
        return build_table(*args, **kw)


def _extend_sizes(monkeypatch) -> list[int]:
    """Row count of every table right after each ``Table.extend``."""
    sizes: list[int] = []
    extend = Table.extend

    def recording(self, keys):
        extend(self, keys)
        sizes.append(self.n)

    monkeypatch.setattr(Table, "extend", recording)
    return sizes


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((4, 16)))
def test_chunked_staging_matches_unchunked(seed, chunk):
    rng = random.Random(seed)
    var_sorts = rand_var_sorts(rng, max_vars=5, max_width=3)

    def conjunct():
        # a disjunction keeps rows alive, so later conjuncts cross wide
        return Or((rand_expr(rng, var_sorts, BOOL, 3),
                   rand_expr(rng, var_sorts, BOOL, 3)))

    hyp = scalarize(And(tuple(conjunct() for _ in range(rng.randint(1, 4)))),
                    var_sorts)
    trm = scalarize(rand_expr(rng, var_sorts, rand_sort(rng), 2), var_sorts)
    ref = _build(UNCHUNKED, var_sorts, hyp, [trm])
    _assert_same_table(_build(chunk, var_sorts, hyp, [trm]), ref)


def test_nlock_sweep_tables_stay_within_chunk(monkeypatch):
    # unchunked, this sweep crosses 2,048 rows with a 64-value span and
    # then 65,536 rows with a 2-value span: 131,072 rows each
    model = bakery_model(2, 3, 4)
    scope = map_graph(model, "nlock").nodes
    sizes = _extend_sizes(monkeypatch)
    sweep = relation_cases(model, "nlock", scope)
    assert len(sweep.rows) and sweep.pairs and sizes
    assert max(sizes) <= veceval.CHUNK_ROWS
    assert max(sizes) > veceval.CHUNK_ROWS // 4


def _nlock_pipeline(chunk):
    """nlock (2,2,3)'s graph text, tags, sweep rows and pair ranges, built
    with ``CHUNK_ROWS = chunk``, and how deep its row blocks nested."""
    depth = [0, 0]  # current, deepest
    run = veceval._run

    def nesting(table, plan):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return run(table, plan)
        finally:
            depth[0] -= 1

    model = bakery_model(2, 2, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(veceval, "CHUNK_ROWS", chunk)
        mp.setattr(veceval, "_run", nesting)
        graph = map_graph(model, "nlock")
        tagged = tag_graph(model, "nlock", graph)
        sweep = relation_cases(model, "nlock", tagged.nodes)
    return (graph_text(graph), tagged.tags, list(sweep.rows),
            sweep.pairs), depth[1] - 1


@pytest.mark.parametrize("chunk, nested", [(1024, 2), (128, 4),
                                           (UNCHUNKED, 0)])
def test_nlock_pipeline_through_nested_blocks(chunk, nested):
    # the default CHUNK_ROWS makes no blocks on this instance; a chunk of
    # 128 rows nests blocks in blocks past a depth of 3
    ref, none = _nlock_pipeline(veceval.CHUNK_ROWS)
    assert none == 0 and ref[0] and ref[1] and ref[2] and ref[3]
    got, depth = _nlock_pipeline(chunk)
    assert depth == nested
    assert got == ref


def test_blocks_start_at_their_crossing(monkeypatch):
    # x and y span 64 values: x crosses the 1-row table, then y would take
    # its 8 rows past 16, so y crosses 4 blocks of 2 rows; none of them is
    # pruned again before that crossing
    var_sorts = {"x": NatSort(3), "y": NatSort(3)}
    x, y = Var("x"), Var("y")
    conj = Or((Lt(x, y), Eq(AddMod(x, y), Const(NatV(3, 3)))))
    ref = _build(UNCHUNKED, var_sorts, conj, [])
    rows = []
    may = veceval._may

    def recording(e, table):
        if e is conj:
            rows.append(table.n)
        return may(e, table)

    monkeypatch.setattr(veceval, "_may", recording)
    got = _build(16, var_sorts, conj, [])
    assert rows == [1, 8, 16, 16, 16, 16]
    assert got.n == 32
    _assert_same_table(got, ref)


# -- three-valued pruning ------------------------------------------------------


def _unpruned(e, table):
    """``_may`` with every absent atom read as "may hold everywhere": the
    conjunct filters only once all its atoms are present."""
    if veceval._present(e, table):
        return _may(e, table)
    return veceval._UNKNOWN


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((4, 16, UNCHUNKED)))
def test_pruned_staging_matches_unpruned(seed, chunk):
    rng = random.Random(seed)
    var_sorts = rand_var_sorts(rng, max_vars=5, max_width=3)
    conjuncts = [rand_expr(rng, var_sorts, BOOL, 3, bool_case=True)
                 for _ in range(rng.randint(1, 4))]
    hyp = scalarize(And(tuple(conjuncts)), var_sorts)
    trm = scalarize(rand_expr(rng, var_sorts, rand_sort(rng), 2), var_sorts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(veceval, "_may", _unpruned)
        ref = _build(UNCHUNKED, var_sorts, hyp, [trm])
    _assert_same_table(_build(chunk, var_sorts, hyp, [trm]), ref)


def _rand_scope(rng, var_sorts):
    """``Or(Eq(node, Const(u)) for u in scope)``, scalarized as the
    backends see it: a node of random leaves (atoms, constants, compound
    ones like nlock's ``:inv``) against 0-4 values."""
    sorts = [rand_sort(rng, 2) for _ in range(rng.randint(1, 3))]
    leaves = [rand_expr(rng, var_sorts, s, rng.choice((0, 2))) for s in sorts]
    node = TupleE(tuple((f"f{i}", x) for i, x in enumerate(leaves)))
    scope = [TupleV(tuple((f"f{i}", rand_value(rng, s))
                          for i, s in enumerate(sorts)))
             for _ in range(rng.choice((0, 1, 1, 2, 4)))]
    return scalarize(Or(tuple(Eq(node, Const(u)) for u in scope)), var_sorts)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_may_is_sound_on_partial_tables(seed):
    # a row of a partial table may be true (false) whenever one of its
    # extensions over the absent atoms is true (false), scope tests too
    rng = random.Random(seed)
    var_sorts = rand_var_sorts(rng, max_vars=4, max_width=2)
    if rng.random() < 0.5:
        e = rand_expr(rng, var_sorts, BOOL, 4, bool_case=True)
    else:
        e = _rand_scope(rng, var_sorts)
    keys = atoms_for([e], var_sorts)
    absent = [k for k in keys if rng.random() < 0.5]
    table = Table(var_sorts)
    table.extend([k for k in keys if k not in absent])
    table.filter(np.array([rng.random() < 0.7 for _ in range(table.n)]))
    may_true, may_false = (np.broadcast_to(m, (table.n,))
                           for m in _may(e, table))
    rows = table.n
    table.extend(absent)  # each row repeated once per extension, in order
    if not rows:
        return
    got = np.broadcast_to(eval_vec(e, table).arr, (table.n,))
    got = got.reshape(rows, table.n // rows)
    assert not (got.any(axis=1) & ~may_true).any()
    assert not ((~got).any(axis=1) & ~may_false).any()
    if not absent:
        assert np.array_equal(may_true, got[:, 0])
        assert np.array_equal(may_false, ~got[:, 0])


def test_nlock_graph_sweep_prunes_before_crossing(monkeypatch):
    # without pruning, blok's case on a.loc crosses every row with
    # a.pos x a.ndx x @oth.pos before its nil default drops it: 4,256,912
    # rows crossed in all
    sizes = _extend_sizes(monkeypatch)
    graph = map_graph(bakery_model(2, 3, 4), "nlock")
    assert graph.nodes and sizes
    assert sum(sizes) <= 250_000


def test_row_ruled_out_before_a_too_wide_atom_is_not_crossed(monkeypatch):
    wide = {"x": NatSort(40), "y": NatSort(4)}
    x, y = Var("x"), Var("y")
    domain = veceval._atom_domain

    def small_only(s):
        assert sort_card(s) <= 16, "a 2^40-value domain was built"
        return domain(s)

    monkeypatch.setattr(veceval, "_atom_domain", small_only)

    def hyp(at):  # y = at, and x = 3 when y = 1
        return And((Eq(y, Const(NatV(at, 4))),
                    CaseNat(y, ((1, Eq(x, Const(NatV(3, 40)))),),
                            Const(BoolV(False)))))

    # y = 0 rules the one row out before x is crossed: an empty table
    table = build_table(wide, hyp(0), [x])
    assert table.n == 0 and list(table.cols) == [("y", None), ("x", None)]
    # y = 1 keeps it, and x is too wide to cross
    with pytest.raises(Capacity):
        build_table(wide, hyp(1), [])
    # a table emptied by an earlier conjunct crosses no domain either
    empty = And((Eq(y, Const(NatV(0, 4))), Eq(y, Const(NatV(1, 4))),
                 Eq(x, Const(NatV(3, 40)))))
    assert build_table(wide, empty, []).n == 0


@pytest.mark.parametrize("chunk", [16, 64])
def test_wide_first_conjunct_crosses_one_atom_first(monkeypatch, chunk):
    # one conjunct reads three 32-value atoms: its span passes the chunk
    # target on a 1-row table, so atoms go in one run at a time
    var_sorts = {v: NatSort(5) for v in ("x", "y", "z")}
    hyp = Eq(AddMod(Var("x"), Var("y")), Var("z"))
    trm = TupleE((("x", Var("x")), ("z", Var("z"))))
    ref = _build(UNCHUNKED, var_sorts, hyp, [trm])
    values = exhaustive_values(var_sorts, hyp, trm)
    sizes = _extend_sizes(monkeypatch)
    monkeypatch.setattr(veceval, "CHUNK_ROWS", chunk)
    _assert_same_table(build_table(var_sorts, hyp, [trm]), ref)
    assert sizes[0] == 32  # only x crossed the 1-row table
    assert max(sizes) <= max(chunk, 32)
    assert exhaustive_values(var_sorts, hyp, trm) == values
    assert len(values) == 32 * 32


@pytest.mark.parametrize("chunk", [4, UNCHUNKED])
def test_capacity_counts_survivors(monkeypatch, chunk):
    monkeypatch.setattr(veceval, "CHUNK_ROWS", chunk)
    monkeypatch.setattr(veceval, "DEFAULT_ROW_CAP", 100)
    var_sorts = {"x": NatSort(4), "y": NatSort(4), "z": NatSort(4)}
    x, y = Var("x"), Var("y")
    # 256 rows are crossed, 16 survive: fits a cap of 100
    assert build_table(var_sorts, Eq(x, y), []).n == 16
    # 136 survivors do not
    with pytest.raises(Capacity):
        build_table(var_sorts, Le(x, y), [])
    # nor do 16 survivors crossed with a term atom
    with pytest.raises(Capacity):
        build_table(var_sorts, Eq(x, y), [Var("z")])
    assert build_table(var_sorts, Eq(x, Const(NatV(3, 4))), [Var("z")]).n \
        == 16


@pytest.mark.parametrize("chunk", [4, veceval.CHUNK_ROWS])
def test_atom_wider_than_cap_raises_without_building_its_domain(
        monkeypatch, chunk):
    monkeypatch.setattr(veceval, "CHUNK_ROWS", chunk)
    sizes = _extend_sizes(monkeypatch)
    wide = {"x": NatSort(40), "y": NatSort(4)}
    x, y = Var("x"), Var("y")
    # 2^40 values cannot be crossed, on one row or on each of many
    for hyp in (Eq(x, Const(NatV(3, 40))),
                And((Le(y, Const(NatV(2, 4))), Eq(x, Const(NatV(3, 40)))))):
        with pytest.raises(Capacity):
            build_table(wide, hyp, [])
    assert all(n <= 16 for n in sizes)
    # a single atom past the chunk target but within the cap still crosses
    monkeypatch.setattr(veceval, "DEFAULT_ROW_CAP", 64)
    assert build_table({"x": NatSort(6)}, Eq(x, Const(NatV(3, 6))), []).n == 1


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
ENUM, NAT2 = EnumSort(SYMS), NatSort(2)


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
        return VLeaf(np.asarray(codes).astype(bool), BOOL)
    if kind == "nat":
        return VLeaf(codes, NAT2)
    return VLeaf(codes, ENUM)


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


@settings(max_examples=300, deadline=None)
@given(_terms())
def test_distinct_rows_columns_follow_canonical_item_order(case):
    v, n_rows = case
    ref = _reference_rows(v, n_rows)
    got = distinct_rows(v, n_rows)
    assert len(got) == len(ref)
    assert list(got) == ref
    assert [got[i] for i in range(-len(got), 0)] == ref
    # each item: its distinct values in canonical order, and per row the id
    # of that row's value
    items = [[q.items[k][1] for q in ref] if got.names is not None else ref
             for k in range(len(got.item_ids))]
    for col, vals, ids in zip(items, got.item_values, got.item_ids):
        assert vals == canonical_sorted(set(col))
        assert [vals[i] for i in ids.tolist()] == col


def test_distinct_rows_decodes_each_item_value_once(monkeypatch):
    node = VRec((("loc", VLeaf(np.array([0, 0, 1, 1, 1, 0]), NAT2)),
                 ("ok", VLeaf(np.array([True] * 6), BOOL))))
    pairs = VRec((("src", node),
                  ("m", VLeaf(np.array([0, 1, 2, 2, 3, 0]), NAT2)),
                  ("e", VLeaf(np.int64(1), ENUM))))
    ref = _reference_rows(pairs, 6)
    decoded = []
    code_value = veceval.code_value

    def counting(sort, code):
        decoded.append(code)
        return code_value(sort, code)

    monkeypatch.setattr(veceval, "code_value", counting)
    got = distinct_rows(pairs, 6)
    # 2 distinct nodes of 2 leaves, 4 distinct m, 1 distinct e
    assert len(decoded) == 2 * 2 + 4 + 1
    decoded.clear()
    assert len(got) == len(ref) == 4
    assert got == ref and got[3] == ref[3]
    assert decoded == []


def test_distinct_rows_edge_cases():
    rec = VRec((("a", VLeaf(np.array([1, 1, 0]), NAT2)),))
    assert distinct_rows(rec, 0) == []
    assert distinct_rows(VLeaf(np.array([], dtype=np.int64), NAT2), 0) == []
    assert distinct_rows(VRec(()), 3) == _reference_rows(VRec(()), 3)
    shared = VRec((("x", VLeaf(np.array([True, False, True]), BOOL)),))
    twice = VRec((("p", shared), ("q", shared), ("e", VRec(()))))
    assert distinct_rows(twice, 3) == _reference_rows(twice, 3)
    # a sub-value that repeats across rows is decoded once and shared
    node = VRec((("loc", VLeaf(np.int64(2), NAT2)),
                 ("ok", VLeaf(np.bool_(True), BOOL))))
    pairs = VRec((("src", node), ("m", VLeaf(np.array([0, 1, 2]), NAT2))))
    got = distinct_rows(pairs, 3)
    assert got == _reference_rows(pairs, 3) and len(got) == 3
    assert got[0].items[0][1] is got[2].items[0][1]


def test_distinct_rows_slice_like_a_list():
    rng = np.random.default_rng(7)
    rec = VRec((("a", VLeaf(rng.integers(0, 4, 40), NAT2)),
                ("b", VLeaf(rng.integers(0, 2, 40).astype(bool), BOOL))))
    for v, n_rows in ((rec, 40), (VLeaf(np.array([3, 0, 2, 0]), NAT2), 4),
                      (VRec(()), 3), (rec, 0)):
        rows = distinct_rows(v, n_rows)
        want = list(rows)
        for sl in (slice(0, 2), slice(None), slice(-3, None), slice(1, -1),
                   slice(None, None, 2), slice(None, None, -1),
                   slice(-1, 0, -3), slice(5, 2), slice(100, None)):
            got = rows[sl]
            assert got == want[sl] and len(got) == len(want[sl])
            assert list(got) == want[sl]


def test_distinct_rows_past_64_bits_of_cardinality():
    # ten 8-bit leaves span 2**80 codes, more than any int64 row key holds;
    # the dense rank never grows past the row count
    rng = np.random.default_rng(5)
    n_rows = 400
    cols = rng.integers(0, 4, size=(10, n_rows)) * 85  # 0, 85, 170, 255
    rec = VRec(tuple((f"f{i}", VLeaf(cols[i], NatSort(8))) for i in range(10)))
    got = distinct_rows(rec, n_rows)
    assert got == _reference_rows(rec, n_rows)
    assert 1 < len(got) <= n_rows
    nested = VRec((("a", VRec(rec.items[:5])), ("b", VRec(rec.items[5:]))))
    assert distinct_rows(nested, n_rows) == _reference_rows(nested, n_rows)


# -- packed keys ---------------------------------------------------------------


def _lex_rank_oracle(cols, cards):
    """Ranking one column at a time: the rank so far, scaled by the next
    column's cardinality, plus that column, re-densified by a 1-D unique.
    The sums are Python integers, so no cardinality can overflow them."""
    rank = np.zeros(len(cols[0]), dtype=np.int64)
    for col, card in zip(cols, cards):
        _, rank = np.unique(rank.astype(object) * card + col.astype(object),
                            return_inverse=True)
    first = np.empty(int(rank.max()) + 1, dtype=np.int64)
    first[rank] = np.arange(len(rank))
    return rank, first


@st.composite
def _columns(draw):
    n_rows = draw(st.integers(1, 40))
    # up to 2^63, the widest natural an int64 code holds
    cards = draw(st.lists(st.sampled_from(
        (1, 2, 3, 16, 2**20, 2**40, 2**56, 2**62, 2**63)),
        min_size=1, max_size=6))
    # a few codes per column, so that rows repeat
    cols = [np.array(draw(st.lists(
        st.sampled_from(sorted({0, 1 % card, card // 2, card - 1})),
        min_size=n_rows, max_size=n_rows)), dtype=np.int64) for card in cards]
    return cols, cards


@settings(max_examples=300, deadline=None)
@given(_columns())
def test_lex_rank_matches_column_by_column_ranking(case):
    _check_lex_rank(*case)


@contextmanager
def _sorts():
    """A list that gets one entry per sort (``np.unique`` call) made in
    the block."""
    calls = []
    unique = np.unique

    def counting(*args, **kw):
        calls.append(None)
        return unique(*args, **kw)

    with mock.patch.object(veceval.np, "unique", counting):
        yield calls


def _check_lex_rank(cols, cards) -> int:
    """The sorts ``lex_rank`` makes on ``cols``, whose ranks and first rows
    must be the oracle's."""
    with _sorts() as sorts:
        got = lex_rank(cols, cards)
    want = _lex_rank_oracle(cols, cards)
    assert got[0].dtype == want[0].dtype == np.int64
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    return len(sorts)


@st.composite
def _near_count_bound(draw):
    """Columns whose key bound is within 2 of the counting bound, optionally
    after two leading 62-bit columns that make packing re-densify."""
    n_rows = draw(st.integers(1, 40))
    bound = veceval._COUNT_RATIO * n_rows + draw(st.integers(-2, 2))
    split = draw(st.sampled_from([d for d in (1, 2, 3, 4) if bound % d == 0]))
    cards = [split, bound // split]
    if draw(st.booleans()):
        cards = [2**62, 2**62] + cards
    cols = [np.array(draw(st.lists(
        st.sampled_from(sorted({0, card // 2, card - 1})) if card > 2**40
        else st.integers(0, card - 1),
        min_size=n_rows, max_size=n_rows)), dtype=np.int64) for card in cards]
    return cols, cards


@settings(max_examples=300, deadline=None)
@given(_near_count_bound())
def test_lex_rank_counts_or_sorts_by_the_key_bound(case):
    cols, cards = case
    n_rows = len(cols[0])
    with _sorts() as sorts:
        _, bound = veceval._pack(zip(cols, cards))
    redensifies = len(sorts)
    if cards[0] == 2**62:
        assert 1 <= redensifies <= 2
    else:
        assert redensifies == 0 and bound == prod(cards)
    counted = bound <= veceval._COUNT_RATIO * n_rows
    assert _check_lex_rank(cols, cards) == redensifies + (not counted)


def test_lex_rank_sorts_only_keys_too_wide_to_count():
    rng = np.random.default_rng(3)
    # 50 rows: a key bound up to 400 is counted, a wider one sorted once
    for cards, sorts in (([20, 20], 0), ([16, 25], 0), ([400], 0),
                         ([401], 1), ([20, 21], 1), ([16] * 15, 1)):
        cols = [rng.integers(0, card, 50) for card in cards]
        assert _check_lex_rank(cols, cards) == sorts
    # 2^40 x 2^40 x 2^40 passes int64 twice: two re-densifies, one final
    wide = [rng.integers(0, 3, 50) << 38 for _ in range(3)]
    assert prod([2**40] * 3) > 2**63
    assert _check_lex_rank(wide, [2**40] * 3) == 2 + 1
    # a re-densify that leaves a bound to count: two codes per column
    narrow = [rng.integers(0, 2, 50) * (2**62 - 1) for _ in range(2)]
    assert _check_lex_rank(narrow, [2**62] * 2) == 2
    # one row, one column, all rows equal
    for cols, cards in (([np.array([5])], [8]),
                        ([np.array([2, 0, 2, 1])], [3]),
                        ([np.full(6, 4), np.full(6, 1)], [2**40, 2**40])):
        _check_lex_rank(cols, cards)


def test_narrow_columns_pack_into_int64_keys():
    # item ranks reach _pack as narrow unsigned columns, and leaves as bool:
    # their keys pass 255 (and 65,535), so a key that kept a column's dtype
    # would wrap.  Counted and sorted routes both.
    rng = np.random.default_rng(5)
    for n_rows, cards, dtypes in (
            (400, [2, 32, 32], [np.bool_, np.uint8, np.uint8]),
            (200, [6, 21, 32, 32, 8, 8], [np.uint8] * 6),
            (200, [300, 6, 300], [np.uint16, np.uint8, np.uint16])):
        cols = [rng.integers(0, card, n_rows).astype(dtype)
                for card, dtype in zip(cards, dtypes)]
        key, bound = veceval._pack(zip(cols, cards))
        assert key.dtype == np.int64 and bound == prod(cards)
        assert key.max() > 255 and key.shape == (n_rows,)
        _check_lex_rank(cols, cards)


def test_nlock_rows_are_ranked_by_counting():
    # every item key of nlock (2,2,3) is counted; the builder's relation
    # rows are too, and the certify sweep's rows take at most one sort
    model = bakery_model(2, 2, 3)
    with _sorts() as sorts:
        map_graph(model, "nlock")
    assert sorts == []
    with _sorts() as sorts:
        sweep = relation_cases(model, "nlock", ())
    assert len(sorts) <= 1 and len(sweep.rows) > 0


def test_distinct_rows_packed_edge_cases():
    one_row = VRec((("a", VLeaf(np.array([3]), NAT2)),
                    ("b", VLeaf(np.array([True]), BOOL))))
    one_col = VLeaf(np.array([2, 0, 2, 1]), NAT2)
    same = VRec((("a", VLeaf(np.full(5, 3), NAT2)),
                 ("e", VLeaf(np.full(5, 1), ENUM))))
    width0 = VRec((("x", VRec(())), ("a", VLeaf(np.array([1, 0, 1]), NAT2)),
                   ("y", VRec((("z", VRec(())),)))))
    for v, n_rows in ((one_row, 1), (one_col, 4), (same, 5), (width0, 3)):
        got = distinct_rows(v, n_rows)
        assert got == _reference_rows(v, n_rows)
    assert len(distinct_rows(same, 5)) == 1


# -- shared subtrees ----------------------------------------------------------


def _unshared(x):
    """A copy of expression ``x`` in which no node appears twice."""
    if isinstance(x, tuple):
        return tuple(_unshared(i) for i in x)
    if dataclasses.is_dataclass(x):
        return type(x)(*(_unshared(getattr(x, f.name))
                         for f in dataclasses.fields(x)))
    return x


@pytest.mark.parametrize("map_name", ["rank", "nlock"])
def test_scalarize_keeps_shared_subtrees_shared(map_name):
    # scalarize memoizes by node id, and a field read picks its item from
    # the record's rewrite, so only subtrees of the input are ever walked
    model = bakery_model(2, 2, 3)
    mp, rel, dst, var_sorts = relation_parts(model, map_name)
    node_y = subst_vars(mp.node, {mp.var: dst})
    scope = map_graph(model, map_name).nodes
    e = And((Eq(mp.node, node_y), rel,
             Or(tuple(Eq(mp.node, Const(u)) for u in scope))))
    shared, copied = scalarize(e, var_sorts), scalarize(_unshared(e), var_sorts)
    assert shared == copied

    def leaves(x):  # the leaf nodes each disjunct of the scope test reads
        return [[id(q.a) for q in d.args]
                for d in split_conjuncts(x)[-1].args]

    # every disjunct reads the shared node's leaves, the very same objects;
    # an unshared copy's disjuncts read a copy each
    first, *rest = leaves(shared)
    assert rest and all(ids == first for ids in rest)
    first, *rest = leaves(copied)
    assert rest and all(set(ids).isdisjoint(first) for ids in rest)


def test_field_reads_of_one_record_share_its_rewrite():
    # rank's destination is next(x, sh), a record-valued case: two reads
    # of its loc are the one item of its one rewrite, not two rewrites
    model = bakery_model(2, 2, 3)
    _, _, dst, var_sorts = relation_parts(model, "rank")
    assert isinstance(dst, CaseNat)
    e = TupleE((("a", Field(dst, "loc")), ("b", Field(dst, "loc")),
                ("c", Field(dst, "done"))))
    got = scalarize(e, var_sorts)
    (_, a), (_, b), (_, c) = got.items
    assert isinstance(a, CaseNat) and isinstance(c, CaseNat)
    assert a is b
    assert got == scalarize(_unshared(e), var_sorts)


def test_exhaustive_pipeline_never_imports_numpy_ma():
    # np.unique without return_inverse imports numpy.ma on its first call
    # (numpy 2.x), close to a megabyte of resident memory for nothing;
    # nlock's certify ranks its bnl columns at scale
    code = """if True:
        import sys
        from wfgraph import absgraph, certify, measure
        from wfgraph.bakery import bakery_model, bakery_text
        m = bakery_model(2, 2, 3)
        for name in ("rank", "nlock"):
            g = absgraph.map_graph(m, name)
            tg = absgraph.tag_graph(m, name, g)
            om = measure.synthesize_omap(tg)
            cert = certify.certify_relation(m, name, tg, om, bakery_text())
            print(len(g.nodes), cert.passed)
        print("numpy.ma" in sys.modules)
    """
    src = str(Path(wfgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.split() == ["21", "True", "64", "True", "False"]
