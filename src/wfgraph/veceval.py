"""Vectorized expression evaluation over enumerated environments.

The exhaustive enumeration backend materializes one numpy column per scalar
"atom" (a scalar-sorted variable, or one field of a record variable) and
evaluates expressions over whole columns at once.  Three things keep the
tables small:

* demand analysis: only fields an expression can actually read become
  columns.  Everything else stays out of the cross product entirely.
* staged filtering: the hypothesis is split into conjuncts, and each conjunct
  is applied as soon as the atoms it needs are present, starting with the
  conjunct whose missing atoms span the smallest domain.  Each conjunct's
  atoms are found once, before staging; every step only re-measures the
  spans of the atoms still missing.
* chunked staging: when crossing the next conjunct's missing atoms would
  take the table past ``CHUNK_ROWS`` rows, the rows are split into
  contiguous blocks, each block runs the remaining conjuncts on its own,
  and the survivors are concatenated.  Crossing repeats old rows in order,
  so the result is the unchunked table row for row, while no intermediate
  holds more than ``max(CHUNK_ROWS, largest atom domain)`` rows.  The row
  cap bounds the surviving rows, and the one crossing that cannot be split:
  a single atom whose domain passes both ``CHUNK_ROWS`` and the cap.

Unconstrained atoms never enter the table, which is sound because a
satisfying row extends to full environments by fixing them arbitrarily.

Results stay columnar too: ``distinct_rows`` ranks the surviving rows and
returns a ``DistinctRows``, which holds each top-level item's distinct
values, decoded once, and one integer id column per item.  A row's value is
built only when a caller reads that row, so a consumer that works on the
ids (the certifier's sweep) decodes nothing but the items and its
witnesses.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    AddMod, And, BoolSort, BoolV, CaseNat, Const, EnumSort, EnumV, Eq,
    Expr, Field, Ite, Le, Lt, NatSort, NatV, Not, Or, Sort, SubSat, TupleE,
    TupleSort, TupleV, Update, Value, Var, canonical_sorted, expr_children,
    infer_sort, sort_card)


class Capacity(Exception):
    """The enumeration's surviving rows, or one atom's domain, would exceed
    the configured row cap."""

    def __init__(self, rows: int, cap: int):
        super().__init__(f"enumeration needs {rows} rows, cap is {cap}")
        self.rows = rows
        self.cap = cap


DEFAULT_ROW_CAP = 1 << 22

# target size of an intermediate table; wider crossings run in row blocks
CHUNK_ROWS = 1 << 16


# ---------------------------------------------------------------------------
# scalarization
#
# Vector evaluation is eager, so a record-typed intermediate would force every
# field of its base record into the table whether the query reads it or not.
# Scalarizing first eliminates record intermediates altogether: field access
# is pushed through updates, branches, and tuples until it lands on a
# variable, and record equality is expanded fieldwise.  Afterwards the only
# record-typed nodes left are `Field(Var, f)` leaves and `TupleE` containers.


def field_of(e: Expr, name: str) -> Expr:
    """``e.name`` with the projection pushed as deep as possible."""
    if isinstance(e, Var):
        return Field(e, name)
    if isinstance(e, Const):
        assert isinstance(e.value, TupleV)
        return Const(e.value.get(name))
    if isinstance(e, Update):
        for n, x in e.updates:
            if n == name:
                return x
        return field_of(e.rec, name)
    if isinstance(e, Ite):
        return Ite(e.cond, field_of(e.then, name), field_of(e.alt, name))
    if isinstance(e, CaseNat):
        return CaseNat(e.scrut,
                       tuple((k, field_of(b, name)) for k, b in e.arms),
                       field_of(e.default, name))
    if isinstance(e, TupleE):
        for n, x in e.items:
            if n == name:
                return x
        raise KeyError(name)
    if isinstance(e, Field):
        raise TypeError("nested record sorts are not supported")
    raise TypeError(f"no field projection on {type(e).__name__}")


def scalarize(e: Expr, var_sorts: dict[str, Sort]) -> Expr:
    """Rewrite ``e`` so no record-typed intermediate remains (see above).
    Semantics are preserved exactly; only the tree shape changes."""

    def record_fields(x: Expr) -> Optional[tuple[tuple[str, Sort], ...]]:
        s = infer_sort(x, var_sorts)
        if isinstance(s, TupleSort):
            return s.fields
        return None

    def expand(x: Expr) -> Expr:
        """A record-sorted expression as an explicit named TupleE."""
        fields = record_fields(x)
        assert fields is not None
        if isinstance(x, TupleE):
            return TupleE(tuple((n, walk(item)) for n, item in x.items))
        return TupleE(tuple((n, walk(field_of(x, n))) for n, _ in fields))

    def walk(x: Expr) -> Expr:
        if isinstance(x, (Var, Const)):
            return x
        if isinstance(x, Field):
            return walk(field_of(x.rec, x.name)) if not isinstance(x.rec, Var) else x
        if isinstance(x, Eq):
            fields = record_fields(x.a)
            if fields is not None:
                return And(tuple(Eq(walk(field_of(x.a, n)), walk(field_of(x.b, n)))
                                 for n, _ in fields))
            return Eq(walk(x.a), walk(x.b))
        if isinstance(x, (Update, Ite, CaseNat)) and record_fields(x) is not None:
            if isinstance(x, Ite):
                return Ite(walk(x.cond), expand(x.then), expand(x.alt))
            if isinstance(x, CaseNat):
                return CaseNat(walk(x.scrut),
                               tuple((k, expand(b)) for k, b in x.arms),
                               expand(x.default))
            return expand(x)
        if isinstance(x, TupleE):
            return TupleE(tuple((n, walk(item)) for n, item in x.items))
        if isinstance(x, Ite):
            return Ite(walk(x.cond), walk(x.then), walk(x.alt))
        if isinstance(x, CaseNat):
            return CaseNat(walk(x.scrut), tuple((k, walk(b)) for k, b in x.arms),
                           walk(x.default))
        if isinstance(x, (Lt, Le, AddMod, SubSat)):
            return type(x)(walk(x.a), walk(x.b))
        if isinstance(x, Not):
            return Not(walk(x.a))
        if isinstance(x, (And, Or)):
            return type(x)(tuple(walk(a) for a in x.args))
        raise TypeError(f"not an expression: {x!r}")

    out = walk(e)
    if record_fields(out) is not None and not isinstance(out, TupleE):
        out = expand(out)
    return out


# ---------------------------------------------------------------------------
# demand analysis

ALL = "all"  # demand sentinel: the whole value is needed

Demand = Union[str, frozenset]  # ALL or a set of field names
AtomKey = tuple[str, Optional[str]]  # (variable, field); field None for scalars


def _merge_demand(out: dict[str, Demand], var: str, d: Demand):
    cur = out.get(var)
    if cur == ALL:
        return
    if d == ALL:
        out[var] = ALL
    else:
        out[var] = (cur or frozenset()) | d


def demanded_reads(e: Expr, demand: Demand, out: Optional[dict[str, Demand]] = None
                   ) -> dict[str, Demand]:
    """Which (variable, field) slots can influence the ``demand``ed part of
    ``e``.  Unlike a plain free-variable walk, a record update only pulls in
    the base-record fields that survive into the demanded projection."""
    if out is None:
        out = {}
    if isinstance(e, Var):
        _merge_demand(out, e.name, demand)
        return out
    if isinstance(e, Const):
        return out
    if isinstance(e, Field):
        demanded_reads(e.rec, frozenset((e.name,)), out)
        return out
    if isinstance(e, Update):
        if demand == ALL:
            demanded_reads(e.rec, ALL, out)
            for _, x in e.updates:
                demanded_reads(x, ALL, out)
        else:
            updated = {n: x for n, x in e.updates}
            passthru = frozenset(f for f in demand if f not in updated)
            if passthru:
                demanded_reads(e.rec, passthru, out)
            for f in demand:
                if f in updated:
                    demanded_reads(updated[f], ALL, out)
        return out
    if isinstance(e, Ite):
        demanded_reads(e.cond, ALL, out)
        demanded_reads(e.then, demand, out)
        demanded_reads(e.alt, demand, out)
        return out
    if isinstance(e, CaseNat):
        demanded_reads(e.scrut, ALL, out)
        for _, body in e.arms:
            demanded_reads(body, demand, out)
        demanded_reads(e.default, demand, out)
        return out
    if isinstance(e, TupleE):
        if demand == ALL:
            for _, x in e.items:
                demanded_reads(x, ALL, out)
        else:
            for n, x in e.items:
                if n in demand:
                    demanded_reads(x, ALL, out)
        return out
    # scalar operators consume their operands whole
    for c in expr_children(e):
        demanded_reads(c, ALL, out)
    return out


def atoms_for(exprs: list[Expr], var_sorts: dict[str, Sort]) -> list[AtomKey]:
    """The atom columns needed to evaluate all of ``exprs``, in deterministic
    order (variable declaration order, then field declaration order)."""
    demand: dict[str, Demand] = {}
    for e in exprs:
        demanded_reads(e, ALL, demand)
    keys: list[AtomKey] = []
    for var, sort in var_sorts.items():
        if var not in demand:
            continue
        d = demand[var]
        if isinstance(sort, TupleSort):
            for fname, _ in sort.fields:
                if d == ALL or fname in d:
                    keys.append((var, fname))
        else:
            keys.append((var, None))
    return keys


def atom_sort(key: AtomKey, var_sorts: dict[str, Sort]) -> Sort:
    var, fld = key
    s = var_sorts[var]
    if fld is None:
        return s
    assert isinstance(s, TupleSort)
    return s.field_sort(fld)


def _atom_domain(s: Sort) -> np.ndarray:
    if isinstance(s, BoolSort):
        return np.array([False, True])
    if isinstance(s, NatSort):
        return np.arange(1 << s.width, dtype=np.int64)
    if isinstance(s, EnumSort):
        return np.arange(len(s.syms), dtype=np.int64)
    raise TypeError("record-valued atom")


# ---------------------------------------------------------------------------
# vector values


@dataclass
class VBool:
    arr: np.ndarray


@dataclass
class VNat:
    arr: np.ndarray
    width: int


@dataclass
class VEnum:
    arr: np.ndarray  # indices
    syms: tuple[str, ...]


@dataclass
class VRec:
    items: tuple[tuple[Optional[str], "VVal"], ...]

    def get(self, name: str) -> "VVal":
        for n, v in self.items:
            if n == name:
                return v
        raise KeyError(name)


VVal = Union[VBool, VNat, VEnum, VRec]


def _vconst(v: Value) -> VVal:
    if isinstance(v, BoolV):
        return VBool(np.bool_(v.val))
    if isinstance(v, NatV):
        return VNat(np.int64(v.val), v.width)
    if isinstance(v, EnumV):
        return VEnum(np.int64(v.index), v.syms)
    return VRec(tuple((n, _vconst(x)) for n, x in v.items))


def _veq(a: VVal, b: VVal) -> np.ndarray:
    if isinstance(a, VRec):
        assert isinstance(b, VRec) and len(a.items) == len(b.items)
        acc = np.bool_(True)
        for (n1, x), (n2, y) in zip(a.items, b.items):
            assert n1 == n2
            acc = acc & _veq(x, y)
        return acc
    return a.arr == b.arr


def _vwhere(mask: np.ndarray, a: VVal, b: VVal) -> VVal:
    if isinstance(a, VBool):
        return VBool(np.where(mask, a.arr, b.arr))
    if isinstance(a, VNat):
        assert isinstance(b, VNat) and a.width == b.width
        return VNat(np.where(mask, a.arr, b.arr), a.width)
    if isinstance(a, VEnum):
        return VEnum(np.where(mask, a.arr, b.arr), a.syms)
    assert isinstance(a, VRec) and isinstance(b, VRec)
    return VRec(tuple((n, _vwhere(mask, x, y))
                      for (n, x), (_, y) in zip(a.items, b.items)))


class Table:
    """Environments as parallel columns, one per atom present."""

    def __init__(self, var_sorts: dict[str, Sort]):
        self.var_sorts = var_sorts
        self.n = 1
        self.cols: dict[AtomKey, np.ndarray] = {}

    def extend(self, keys: list[AtomKey]):
        """Cross the table with the full domains of the given missing atoms."""
        keys = [k for k in keys if k not in self.cols]
        if not keys:
            return
        domains = [_atom_domain(atom_sort(k, self.var_sorts)) for k in keys]
        factor = 1
        for d in domains:
            factor *= len(d)
        new_n = self.n * factor
        for k in self.cols:
            self.cols[k] = np.repeat(self.cols[k], factor)
        tile = self.n
        trailing = factor
        for k, dom in zip(keys, domains):
            trailing //= len(dom)
            self.cols[k] = np.tile(np.repeat(dom, trailing), tile)
            tile *= len(dom)
        self.n = new_n

    def filter(self, mask: np.ndarray):
        if mask.ndim == 0:
            if not bool(mask):
                self.n = 0
                for k in self.cols:
                    self.cols[k] = self.cols[k][:0]
            return
        for k in self.cols:
            self.cols[k] = self.cols[k][mask]
        self.n = int(mask.sum())

    def var_vval(self, name: str) -> VVal:
        s = self.var_sorts[name]
        if isinstance(s, TupleSort):
            return VRec(tuple((f, self._col_vval((name, f), fs))
                              for f, fs in s.fields if (name, f) in self.cols))
        return self._col_vval((name, None), s)

    def _col_vval(self, key: AtomKey, s: Sort) -> VVal:
        arr = self.cols[key]
        if isinstance(s, BoolSort):
            return VBool(arr.astype(bool) if arr.dtype != np.bool_ else arr)
        if isinstance(s, NatSort):
            return VNat(arr, s.width)
        if isinstance(s, EnumSort):
            return VEnum(arr, s.syms)
        raise TypeError("record-valued atom")


def eval_vec(e: Expr, table: Table) -> VVal:
    """Vectorized mirror of ``eval_expr``; one result lane per table row."""
    if isinstance(e, Var):
        return table.var_vval(e.name)
    if isinstance(e, Const):
        return _vconst(e.value)
    if isinstance(e, Field):
        rec = eval_vec(e.rec, table)
        assert isinstance(rec, VRec)
        return rec.get(e.name)
    if isinstance(e, Update):
        rec = eval_vec(e.rec, table)
        assert isinstance(rec, VRec)
        news = {n: eval_vec(x, table) for n, x in e.updates}
        return VRec(tuple((n, news.get(n, v)) for n, v in rec.items))
    if isinstance(e, Ite):
        c = eval_vec(e.cond, table)
        assert isinstance(c, VBool)
        return _vwhere(c.arr, eval_vec(e.then, table), eval_vec(e.alt, table))
    if isinstance(e, Eq):
        return VBool(_veq(eval_vec(e.a, table), eval_vec(e.b, table)))
    if isinstance(e, Lt):
        a, b = eval_vec(e.a, table), eval_vec(e.b, table)
        assert isinstance(a, VNat) and isinstance(b, VNat)
        return VBool(a.arr < b.arr)
    if isinstance(e, Le):
        a, b = eval_vec(e.a, table), eval_vec(e.b, table)
        assert isinstance(a, VNat) and isinstance(b, VNat)
        return VBool(a.arr <= b.arr)
    if isinstance(e, AddMod):
        a, b = eval_vec(e.a, table), eval_vec(e.b, table)
        assert isinstance(a, VNat) and isinstance(b, VNat) and a.width == b.width
        return VNat((a.arr + b.arr) & ((1 << a.width) - 1), a.width)
    if isinstance(e, SubSat):
        a, b = eval_vec(e.a, table), eval_vec(e.b, table)
        assert isinstance(a, VNat) and isinstance(b, VNat) and a.width == b.width
        return VNat(np.maximum(a.arr - b.arr, 0), a.width)
    if isinstance(e, Not):
        a = eval_vec(e.a, table)
        assert isinstance(a, VBool)
        return VBool(~np.asarray(a.arr))
    if isinstance(e, (And, Or)):
        acc = np.bool_(isinstance(e, And))
        for x in e.args:
            v = eval_vec(x, table)
            assert isinstance(v, VBool)
            acc = (acc & v.arr) if isinstance(e, And) else (acc | v.arr)
        return VBool(acc)
    if isinstance(e, TupleE):
        return VRec(tuple((n, eval_vec(x, table)) for n, x in e.items))
    if isinstance(e, CaseNat):
        scrut = eval_vec(e.scrut, table)
        assert isinstance(scrut, VNat)
        result = eval_vec(e.default, table)
        for key, body in reversed(e.arms):
            result = _vwhere(scrut.arr == key, eval_vec(body, table), result)
        return result
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# staged hypothesis filtering


def split_conjuncts(e: Expr) -> list[Expr]:
    """Flatten nested conjunctions and record-vs-constant equalities into a
    list of small conjuncts for staged filtering."""
    out: list[Expr] = []

    def walk(x: Expr):
        if isinstance(x, And):
            for c in x.args:
                walk(c)
            return
        if isinstance(x, Const) and x.value == BoolV(True):
            return
        if isinstance(x, Eq):
            a, b = x.a, x.b
            if isinstance(b, TupleE) and isinstance(a, Const):
                a, b = b, a
            if isinstance(a, TupleE) and isinstance(b, Const) \
                    and isinstance(b.value, TupleV) \
                    and len(a.items) == len(b.value.items):
                for (n1, item), (n2, val) in zip(a.items, b.value.items):
                    if n1 != n2:
                        break
                else:
                    for (_, item), (_, val) in zip(a.items, b.value.items):
                        walk(Eq(item, Const(val)))
                    return
        out.append(x)

    walk(e)
    return out


def build_table(var_sorts: dict[str, Sort], hyp: Expr, trm_exprs: list[Expr],
                row_cap: int = DEFAULT_ROW_CAP) -> Table:
    """Table of exactly the environments (projected to read atoms) that
    satisfy ``hyp``, extended to cover the atoms of ``trm_exprs``.
    Raises Capacity when that table would exceed ``row_cap`` rows.

    Callers pass already-scalarized expressions (see ``scalarize``)."""
    # demand analysis once per conjunct: (conjunct, its atoms, their cards)
    pending = []
    for c in split_conjuncts(hyp):
        keys = atoms_for([c], var_sorts)
        pending.append((c, keys, [sort_card(atom_sort(k, var_sorts))
                                  for k in keys]))
    trm_keys = atoms_for(trm_exprs, var_sorts)
    return _stage(Table(var_sorts), pending, None, trm_keys, row_cap)


_Conjunct = tuple[Expr, list[AtomKey], list[int]]


def _stage(table: Table, pending: list[_Conjunct],
           current: Optional[_Conjunct], trm_keys: list[AtomKey],
           row_cap: int) -> Table:
    """Apply ``current`` (if any) and then every ``pending`` conjunct to
    ``table``, smallest missing span first, and extend the survivors over
    ``trm_keys``.

    A conjunct's missing atoms are crossed in the longest leading run whose
    span fits ``CHUNK_ROWS`` (at least one atom); the conjunct stays
    ``current`` until all of them are in.  When that run would take a table
    of several rows past ``CHUNK_ROWS``, the rows go through in contiguous
    blocks instead (``_in_blocks``).  A single atom wider than both
    ``CHUNK_ROWS`` and ``row_cap`` raises Capacity before its domain is
    built."""
    while pending or current is not None:
        if current is None:
            def missing_span(i: int) -> int:
                _, keys, cards = pending[i]
                span = 1
                for k, card in zip(keys, cards):
                    if k not in table.cols:
                        span *= card
                return span

            current = pending.pop(min(range(len(pending)), key=missing_span))
        conj, keys, cards = current
        run: list[AtomKey] = []
        span = 1
        missing = [(k, c) for k, c in zip(keys, cards) if k not in table.cols]
        for k, card in missing:
            if run and span * card > CHUNK_ROWS:
                break
            run.append(k)
            span *= card
        if table.n > 1 and table.n * span > CHUNK_ROWS:
            return _in_blocks(table, max(1, CHUNK_ROWS // span), pending,
                              current, trm_keys, row_cap)
        # a run this wide is one atom crossing one row: it cannot be split
        if table.n * span > max(CHUNK_ROWS, row_cap):
            raise Capacity(table.n * span, row_cap)
        table.extend(run)
        if len(run) == len(missing):
            current = None
            if table.n:
                mask = eval_vec(conj, table)
                assert isinstance(mask, VBool)
                table.filter(np.broadcast_to(mask.arr, (table.n,)))
    span = 1
    for k in trm_keys:
        if k not in table.cols:
            span *= sort_card(atom_sort(k, table.var_sorts))
    if table.n * span > row_cap:
        raise Capacity(table.n * span, row_cap)
    table.extend(trm_keys)
    return table


def _in_blocks(table: Table, size: int, pending: list[_Conjunct],
               current: Optional[_Conjunct], trm_keys: list[AtomKey],
               row_cap: int) -> Table:
    """``_stage`` run on each contiguous block of ``size`` rows of
    ``table``, the results concatenated in block order into ``table``."""
    parts: list[Table] = []
    total = 0
    for lo in range(0, table.n, size):
        block = Table(table.var_sorts)
        block.n = min(size, table.n - lo)
        block.cols = {k: col[lo:lo + size] for k, col in table.cols.items()}
        part = _stage(block, list(pending), current, trm_keys, row_cap)
        total += part.n
        if total > row_cap:
            raise Capacity(total, row_cap)
        parts.append(part)
    table.cols = {k: np.concatenate([p.cols[k] for p in parts])
                  for k in parts[0].cols}
    table.n = total
    return table


# ---------------------------------------------------------------------------
# row extraction


def vval_leaves(v: VVal) -> list[VVal]:
    """Scalar leaves in canonical traversal order (record fields in order)."""
    if isinstance(v, VRec):
        out: list[VVal] = []
        for _, x in v.items:
            out.extend(vval_leaves(x))
        return out
    return [v]


def _leaf_value(leaf: VVal, code: int) -> Value:
    if isinstance(leaf, VBool):
        return BoolV(bool(code))
    if isinstance(leaf, VNat):
        return NatV(int(code), leaf.width)
    if isinstance(leaf, VEnum):
        return EnumV(leaf.syms[int(code)], leaf.syms)
    raise TypeError("not a scalar leaf")


def _rebuild(v: VVal, codes: list[int], pos: list[int]) -> Value:
    if isinstance(v, VRec):
        return TupleV(tuple((n, _rebuild(x, codes, pos)) for n, x in v.items))
    i = pos[0]
    pos[0] += 1
    return _leaf_value(v, codes[i])


def _leaf_card(leaf: VVal) -> int:
    if isinstance(leaf, VBool):
        return 2
    if isinstance(leaf, VNat):
        return 1 << leaf.width
    if isinstance(leaf, VEnum):
        return len(leaf.syms)
    raise TypeError("not a scalar leaf")


def lex_rank(cols: list[np.ndarray], cards: list[int]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Dense lexicographic rank of every row of ``cols``, and one row
    index per rank.

    Built one column at a time: the rank so far, scaled by the next
    column's cardinality, plus that column, re-densified by a 1-D unique.
    The rank never exceeds the row count, so the combined key stays below
    rows x card whatever the row's total cardinality.
    """
    rank = np.zeros(len(cols[0]), dtype=np.int64)
    for col, card in zip(cols, cards):
        _, rank = np.unique(rank * card + col, return_inverse=True)
    first = np.empty(int(rank.max()) + 1, dtype=np.int64)
    first[rank] = np.arange(len(rank))  # rows of equal rank are equal
    return rank, first


class DistinctRows(Sequence[Value]):
    """The distinct values of a term, canonically ordered, held as columns.

    A record term keeps, per top-level item, that item's distinct values
    (decoded once each, canonically ordered) and one int64 array of ids
    into them, one id per row; a scalar term is one column whose rows are
    the bare values (``names`` is None).  ``len`` costs nothing; indexing
    and iteration build each row's ``TupleV`` from the shared item values,
    so rows that repeat an item share that sub-value.  The sequence equals
    any sequence of the same values in the same order.
    """

    __slots__ = ("names", "item_values", "item_ids", "_n")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, names: Optional[tuple[Optional[str], ...]],
                 item_values: list[list[Value]], item_ids: list[np.ndarray],
                 n: int):
        self.names = names
        self.item_values = item_values
        self.item_ids = item_ids
        self._n = n

    @classmethod
    def of(cls, values: Sequence[Value]) -> "DistinctRows":
        """Columns of values already decoded, distinct and canonically
        ordered: the solver backends' results, and the empty result."""
        if values and isinstance(values[0], TupleV):
            names = tuple(n for n, _ in values[0].items)
            cols: list[Sequence[Value]] = [
                [q.items[k][1] for q in values]  # type: ignore[union-attr]
                for k in range(len(names))]
        else:
            names, cols = None, [values]
        item_values, item_ids = [], []
        for col in cols:
            vals = canonical_sorted(set(col))
            index = {v: i for i, v in enumerate(vals)}
            item_values.append(vals)
            item_ids.append(np.array([index[v] for v in col], dtype=np.int64))
        return cls(names, item_values, item_ids, len(values))

    def item(self, k: int, row: int) -> Value:
        """Item ``k`` of row ``row``."""
        return self.item_values[k][self.item_ids[k][row]]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DistinctRows(self.names, self.item_values,
                                [ids[i] for ids in self.item_ids],
                                len(range(self._n)[i]))
        i = range(self._n)[i]  # negative indices; IndexError past the end
        row = [vals[ids[i]] for vals, ids in
               zip(self.item_values, self.item_ids)]
        if self.names is None:
            return row[0]
        return TupleV(tuple(zip(self.names, row)))

    def __iter__(self) -> Iterator[Value]:
        if not self.item_ids:  # a record without items
            yield from [TupleV(())] * self._n
            return
        cols = [map(vals.__getitem__, ids.tolist())
                for vals, ids in zip(self.item_values, self.item_ids)]
        if self.names is None:
            yield from cols[0]
            return
        names = self.names
        for row in zip(*cols):
            yield TupleV(tuple(zip(names, row)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"DistinctRows({list(self)!r})"


def distinct_rows(v: VVal, n_rows: int,
                  limit: Optional[int] = None) -> DistinctRows:
    """Distinct values of ``v`` across the table rows, canonically ordered;
    with a ``limit``, only the first ``limit`` of them.

    Leaf codes form one integer column per leaf, and rows are ranked
    lexicographically over those columns (``lex_rank``); because every
    leaf's numeric code is ordered the same way as the canonical Value
    order within its sort, rank order IS the canonical order.

    A record's top-level items repeat across rows (the same source node
    pairs with many destinations), so each item's columns are ranked on
    their own over the distinct rows: that rank is the item's id column,
    and each distinct item value is decoded once.  No row is built here
    (see ``DistinctRows``).
    """
    if n_rows == 0 or limit == 0:
        return DistinctRows.of(())
    items = v.items if isinstance(v, VRec) else ((None, v),)
    names = tuple(n for n, _ in items) if isinstance(v, VRec) else None
    leaves = vval_leaves(v)
    if not leaves:
        return DistinctRows(names, [[_rebuild(x, [], [0])] for _, x in items],
                            [np.zeros(1, dtype=np.int64) for _ in items], 1)
    cols = [np.broadcast_to(np.asarray(leaf.arr, dtype=np.int64), (n_rows,))
            for leaf in leaves]
    cards = [_leaf_card(leaf) for leaf in leaves]
    _, first = lex_rank(cols, cards)
    first = first[:limit]  # rank order is canonical order
    uniq = [col[first] for col in cols]
    item_values: list[list[Value]] = []
    item_ids: list[np.ndarray] = []
    start = 0
    for _, item in items:
        width = len(vval_leaves(item))
        if width == 0:
            item_values.append([_rebuild(item, [], [0])])
            item_ids.append(np.zeros(len(first), dtype=np.int64))
            continue
        part = uniq[start:start + width]
        rank, part_first = lex_rank(part, cards[start:start + width])
        start += width
        codes = np.column_stack([col[part_first] for col in part]).tolist()
        item_values.append([_rebuild(item, row, [0]) for row in codes])
        item_ids.append(rank)
    return DistinctRows(names, item_values, item_ids, len(first))


def exhaustive_values(var_sorts: dict[str, Sort], hyp: Expr, trm: Expr,
                      limit: Optional[int] = None) -> DistinctRows:
    """All distinct values of ``trm`` over environments satisfying ``hyp``,
    canonically ordered, or the first ``limit`` of them.  The reference
    backend behind compute-finite-values."""
    hyp_s = scalarize(hyp, var_sorts)
    trm_s = scalarize(trm, var_sorts)
    table = build_table(var_sorts, hyp_s, [trm_s])
    if table.n == 0:
        return DistinctRows.of(())
    return distinct_rows(eval_vec(trm_s, table), table.n, limit)
