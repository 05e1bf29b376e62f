"""The exhaustive backend's table builder and row decoder against plain
reference versions: demand analysis runs once per conjunct, the staged
tables come out column for column as the per-step analysis built them,
chunked staging returns the unchunked table row for row with each row
block starting at its crossing, so does staging that drops the rows a
conjunct already rules out (a sound drop), and the dense-rank decoder
returns exactly the per-row rebuild."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfgraph.veceval as veceval
from _gen import rand_expr, rand_sort, rand_var_sorts
from wfgraph.absgraph import graph_text, map_graph, tag_graph
from wfgraph.bakery import bakery_model
from wfgraph.certify import relation_cases
from wfgraph.model import (
    BOOL, AddMod, And, BoolV, CaseNat, Const, Eq, Le, Lt, NatSort, NatV, Or,
    TupleE, Var, canonical_sorted, sort_card, subst_vars)
from wfgraph.system import relation_parts
from wfgraph.veceval import (
    Capacity, Table, VBool, VEnum, VNat, VRec, _may, atom_sort,
    atoms_for, build_table, distinct_rows, eval_vec, exhaustive_values,
    scalarize, split_conjuncts)

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

    def nesting(table, plan, row_cap):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return run(table, plan, row_cap)
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


@pytest.mark.parametrize("chunk, nested", [(1024, 2), (256, 3),
                                           (UNCHUNKED, 0)])
def test_nlock_pipeline_through_nested_blocks(chunk, nested):
    # the default CHUNK_ROWS makes no blocks on this instance
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
    if veceval._present(e, table.cols):
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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_may_is_sound_on_partial_tables(seed):
    # a row of a partial table may be true (false) whenever one of its
    # extensions over the absent atoms is true (false)
    rng = random.Random(seed)
    var_sorts = rand_var_sorts(rng, max_vars=4, max_width=2)
    e = rand_expr(rng, var_sorts, BOOL, 4, bool_case=True)
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
    var_sorts = {"x": NatSort(4), "y": NatSort(4), "z": NatSort(4)}
    x, y = Var("x"), Var("y")
    # 256 rows are crossed, 16 survive: fits a cap of 100
    assert build_table(var_sorts, Eq(x, y), [], row_cap=100).n == 16
    # 136 survivors do not
    with pytest.raises(Capacity):
        build_table(var_sorts, Le(x, y), [], row_cap=100)
    # nor do 16 survivors crossed with a term atom
    with pytest.raises(Capacity):
        build_table(var_sorts, Eq(x, y), [Var("z")], row_cap=100)
    assert build_table(var_sorts, Eq(x, Const(NatV(3, 4))), [Var("z")],
                       row_cap=100).n == 16


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
    assert build_table({"x": NatSort(6)}, Eq(x, Const(NatV(3, 6))), [],
                       row_cap=64).n == 1


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


@settings(max_examples=300, deadline=None)
@given(_terms(), st.integers(1, 8))
def test_distinct_rows_columns_follow_canonical_item_order(case, limit):
    v, n_rows = case
    ref = _reference_rows(v, n_rows)
    got = distinct_rows(v, n_rows)
    assert len(got) == len(ref)
    assert list(got) == ref
    assert [got[i] for i in range(-len(got), 0)] == ref
    assert got[1:-1] == ref[1:-1]
    assert distinct_rows(v, n_rows, limit) == ref[:limit]
    # each item: its distinct values in canonical order, and per row the id
    # of that row's value
    items = [[q.items[k][1] for q in ref] if got.names is not None else ref
             for k in range(len(got.item_ids))]
    for col, vals, ids in zip(items, got.item_values, got.item_ids):
        assert vals == canonical_sorted(set(col))
        assert [vals[i] for i in ids.tolist()] == col


def test_distinct_rows_decodes_each_item_value_once(monkeypatch):
    node = VRec((("loc", VNat(np.array([0, 0, 1, 1, 1, 0]), 2)),
                 ("ok", VBool(np.array([True] * 6)))))
    pairs = VRec((("src", node), ("m", VNat(np.array([0, 1, 2, 2, 3, 0]), 2)),
                  ("e", VEnum(np.int64(1), SYMS))))
    ref = _reference_rows(pairs, 6)
    decoded = []
    leaf_value = veceval._leaf_value

    def counting(leaf, code):
        decoded.append(code)
        return leaf_value(leaf, code)

    monkeypatch.setattr(veceval, "_leaf_value", counting)
    got = distinct_rows(pairs, 6)
    # 2 distinct nodes of 2 leaves, 4 distinct m, 1 distinct e
    assert len(decoded) == 2 * 2 + 4 + 1
    decoded.clear()
    assert len(got) == len(ref) == 4
    assert got == ref and got[3] == ref[3]
    assert decoded == []


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
