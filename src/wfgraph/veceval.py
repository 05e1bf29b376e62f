"""Vectorized expression evaluation over enumerated environments.

The exhaustive enumeration backend materializes one numpy column per scalar
"atom" (a scalar-sorted variable, or one field of a record variable) and
evaluates expressions over whole columns at once.  A scalar result is a
``VLeaf``: one integer code per row (``model.value_code``) and the model
sort that alone says how to read the codes (``sort_card``,
``code_value``).  A ``TupleE`` evaluates to a ``VRec`` of results; the SAT
backend builds its records of literal leaves as ``VRec`` too.

Both enumeration backends evaluate scalarized expressions only
(``scalarize``): every record read is a ``Field(Var, f)`` leaf, naming its
atom, and only ``TupleE`` containers are record-sorted.  Records are taken
apart there and nowhere else.

Five things keep the tables small and the work on them short:

* only the atoms an expression reads become columns.  Everything else
  stays out of the cross product entirely.
* one staging plan per query (``_plan``), fixed from the atoms alone: the
  hypothesis is split into conjuncts, the conjunct whose missing atoms span
  the smallest domain goes next, its missing atoms are crossed in leading
  runs that fit ``CHUNK_ROWS``, and the term's atoms come last.  Every
  subtree's atoms are found once per query (``_atoms``), and no step of
  the order reads a row.
* pruning before crossing: before each run, the rows on which the conjunct
  is already false, whatever its missing atoms take, are dropped.  The
  conjunct is read three-valued, with the missing atoms unknown (``_may``):
  a ``case`` whose scrutinee is present and whose arm is ``false`` rules
  its rows out on the spot.  After the last run the drop is the conjunct's
  own filter.  A dropped row would have failed the conjunct on every
  extension, and crossing repeats the rows that stay in order, so the
  table comes out the same row for row.
* row blocks: when a crossing would take a table of several rows past
  ``CHUNK_ROWS``, the rows run the rest of the plan in contiguous blocks
  that start at that crossing, and the survivors are concatenated.  The
  result is the unblocked table row for row, while no intermediate holds
  more than ``max(CHUNK_ROWS, largest atom domain)`` rows.  The row cap
  bounds the surviving rows, the term's crossing, and the one crossing that
  cannot be split: a single atom whose domain passes both ``CHUNK_ROWS``
  and the cap, unless the row it would be crossed with is already gone.
* packed keys, ranked by counting: a row's leaf codes pack into one
  mixed-radix int64 key (``_pack``) with a known bound.  A bound of at
  most ``_COUNT_RATIO`` times the row count is ranked (``lex_rank``) with
  a bool mask of the keys present and no sort; a wider key takes one sort,
  plus one more only each time it would pass int64.  ``distinct_rows``
  ranks each result item's few values first and rows over the item ranks,
  so a query's keys are mostly counted.

Unconstrained atoms never enter the table, which is sound because a
satisfying row extends to full environments by fixing them arbitrarily.

Results stay columnar too: ``distinct_rows`` ranks the surviving rows (or
the SAT backend's models, as code columns) and returns a ``DistinctRows``,
which holds each top-level item's distinct values, decoded once by
``model.code_value``, and one integer id column per item.  A row's value is
built only when a caller reads that row, so a consumer that works on the
ids (the certifier's sweep) decodes nothing but the items and its
witnesses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import reduce
from math import prod
from typing import Optional, Union

import numpy as np

from .model import (
    BOOL, AddMod, And, BoolSort, BoolV, CaseNat, Const, Eq, Expr, Field, Ite,
    Le, Lt, NatSort, Not, Or, Sort, SubSat, TupleE, TupleSort, TupleV,
    Update, Value, Var, code_value, expr_children, sort_card, value_code,
    value_sort)


class Capacity(ValueError):
    """A query's surviving rows, or one atom's domain, would exceed the row
    cap.  ``what`` names the query; ``build_table`` does not know it, and
    ``enumeration.compute_finite_values`` raises the named error."""

    def __init__(self, rows: int, cap: int, what: str = "table"):
        super().__init__(f"{what} enumeration needs {rows} rows, "
                         f"cap is {cap}")
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
# Scalarizing first takes every record apart: every record-sorted node (a
# variable or constant read whole, an update, a branch) becomes a ``TupleE``
# of its per-item projections, so record equality is fieldwise and branches
# are per item, down to the scalar items of tuples that hold records or
# tuples, and a field read of any record but a variable picks its item from
# the rewritten record.  Afterwards every record read is a ``Field(Var, f)``
# leaf and only ``TupleE`` containers are record-sorted, so both backends
# evaluate scalar atoms only.


def _const_expr(v: Value) -> Expr:
    """A constant with every record in it expanded into a ``TupleE``."""
    if isinstance(v, TupleV):
        return TupleE(tuple((n, _const_expr(x)) for n, x in v.items))
    return Const(v)


def _leaves(x: Expr) -> Iterator[Expr]:
    """The scalar items of a scalarized expression, depth first."""
    if isinstance(x, TupleE):
        for _, item in x.items:
            yield from _leaves(item)
    else:
        yield x


def _itemwise(parts: list[Expr], build) -> Expr:
    """``build`` applied to the scalar items of same-shaped scalarized
    ``parts``, position by position, keeping their ``TupleE`` nesting."""
    if isinstance(parts[0], TupleE):
        return TupleE(tuple(
            (n, _itemwise([p.items[i][1] for p in parts], build))
            for i, (n, _) in enumerate(parts[0].items)))
    return build(parts)


def scalarize(e: Expr, var_sorts: dict[str, Sort]) -> Expr:
    """Rewrite ``e`` so that every record read is a ``Field(Var, f)`` leaf
    and only ``TupleE`` nodes are record-sorted (see above).  Semantics are
    preserved exactly; only the tree shape changes.

    A subtree that ``e`` shares is rewritten once and stays shared, so the
    result is no larger than ``e``'s graph of nodes: a map's node read in
    every ``Eq(node, Const(u))`` of a certifier's scope becomes one set of
    leaf nodes, whose atoms ``_atoms`` then finds once and ``bitblast``
    encodes once.  Likewise every field read of one record picks its item
    from that record's one rewrite.  The memo is keyed by node id: it only
    ever sees subtrees of ``e``, which ``e`` keeps alive."""
    memo: dict[int, Expr] = {}

    def walk(x: Expr) -> Expr:
        out = memo.get(id(x))
        if out is None:
            out = memo[id(x)] = rewrite(x)
        return out

    def rewrite(x: Expr) -> Expr:
        if isinstance(x, Var):
            s = var_sorts[x.name]
            if isinstance(s, TupleSort):
                return TupleE(tuple((n, Field(x, n)) for n, _ in s.fields))
            return x
        if isinstance(x, Const):
            return _const_expr(x.value) if isinstance(x.value, TupleV) else x
        if isinstance(x, Field):
            if isinstance(x.rec, Var):
                return x
            rec = walk(x.rec)
            assert isinstance(rec, TupleE)
            return dict(rec.items)[x.name]
        if isinstance(x, Update):
            news = {n: walk(v) for n, v in x.updates}
            rec = walk(x.rec)
            assert isinstance(rec, TupleE)
            return TupleE(tuple((n, news.get(n, v)) for n, v in rec.items))
        if isinstance(x, TupleE):
            return TupleE(tuple((n, walk(item)) for n, item in x.items))
        if isinstance(x, Eq):
            a, b = walk(x.a), walk(x.b)
            if isinstance(a, TupleE):
                return And(tuple(Eq(p, q) for p, q
                                 in zip(_leaves(a), _leaves(b), strict=True)))
            return Eq(a, b)
        if isinstance(x, Ite):
            c = walk(x.cond)
            return _itemwise([walk(x.then), walk(x.alt)],
                             lambda ps: Ite(c, *ps))
        if isinstance(x, CaseNat):
            scrut = walk(x.scrut)
            keys = [k for k, _ in x.arms]
            bodies = [walk(b) for _, b in x.arms] + [walk(x.default)]
            return _itemwise(bodies, lambda bs: CaseNat(
                scrut, tuple(zip(keys, bs[:-1])), bs[-1]))
        if isinstance(x, (Lt, Le, AddMod, SubSat)):
            return type(x)(walk(x.a), walk(x.b))
        if isinstance(x, Not):
            return Not(walk(x.a))
        if isinstance(x, (And, Or)):
            return type(x)(tuple(walk(a) for a in x.args))
        raise TypeError(f"not an expression: {x!r}")

    try:
        return walk(e)
    finally:
        # walk and rewrite refer to each other: without this, the memo
        # would live on in their cycle until the next garbage collection
        memo.clear()


# ---------------------------------------------------------------------------
# atoms

AtomKey = tuple[str, Optional[str]]  # (variable, field); field None for scalars


def all_atoms(var_sorts: dict[str, Sort]) -> Iterator[tuple[AtomKey, Sort]]:
    """Every atom of ``var_sorts`` with its scalar sort, in variable
    declaration order, then field declaration order."""
    for var, sort in var_sorts.items():
        fields = sort.fields if isinstance(sort, TupleSort) else ((None, sort),)
        for f, s in fields:
            yield (var, f), s


def atoms_for(exprs: list[Expr], var_sorts: dict[str, Sort],
              memo: Optional[dict] = None) -> list[AtomKey]:
    """The atoms that scalarized ``exprs`` read (their ``Field(Var, f)``
    leaves and scalar variables), in ``all_atoms`` order.  ``memo`` (a
    query's ``Table.atoms``) keeps each subtree's atoms from one call to the
    next (see ``_atoms``)."""
    memo = {} if memo is None else memo
    read = frozenset().union(*(_atoms(x, memo) for x in exprs))
    return [k for k, _ in all_atoms(var_sorts) if k in read]


_NO_ATOMS: frozenset[AtomKey] = frozenset()


def _atoms(e: Expr, memo: dict[int, tuple[Expr, frozenset[AtomKey]]]
           ) -> frozenset[AtomKey]:
    """The atoms that scalarized ``e`` reads, each subtree's found once:
    ``memo`` keeps them by node id, with the node, so that the id cannot
    pass to another node while the entry lives."""
    if isinstance(e, Const):
        return _NO_ATOMS
    hit = memo.get(id(e))
    if hit is None:
        if isinstance(e, Field):
            assert isinstance(e.rec, Var), "expression is not scalarized"
            got = frozenset(((e.rec.name, e.name),))
        elif isinstance(e, Var):
            got = frozenset(((e.name, None),))
        else:
            got = _NO_ATOMS
            for x in expr_children(e):
                more = _atoms(x, memo)
                if not more <= got:  # a child's set is shared when it can be
                    got = more if not got else got | more
        hit = memo[id(e)] = (e, got)
    return hit[1]


def atom_sort(key: AtomKey, var_sorts: dict[str, Sort]) -> Sort:
    var, fld = key
    s = var_sorts[var]
    if fld is None:
        return s
    assert isinstance(s, TupleSort)
    return s.field_sort(fld)


def _dtype(s: Sort) -> type:
    """The numpy type of a column of scalar sort ``s``."""
    return np.bool_ if isinstance(s, BoolSort) else np.int64


def _atom_domain(s: Sort) -> np.ndarray:
    """Every code of scalar sort ``s``, in order."""
    return np.arange(sort_card(s), dtype=np.int64).astype(_dtype(s),
                                                          copy=False)


# ---------------------------------------------------------------------------
# vector values


@dataclass
class VLeaf:
    """A scalar lane per row: the rows' codes (``model.value_code``), a
    numpy bool array for a boolean, and their sort.  A constant is one
    numpy scalar, broadcast over the rows."""
    arr: np.ndarray
    sort: Sort


@dataclass
class VRec:
    """What a ``TupleE`` evaluates to; its items are leaves or ``VRec``.
    ``bitblast`` builds its records of literal leaves as ``VRec`` too."""
    items: tuple[tuple[Optional[str], "VVal"], ...]


VVal = Union[VLeaf, VRec]


def _int64_width(width: int, what: str):
    if width > 63:
        raise ValueError(
            f"{what} of {width} bits is wider than an int64 code's 63")


def int64_codes(v) -> None:
    """Refuse a result whose natural leaves are too wide for an int64 code:
    ``v``'s leaves are typed by their sorts, so no row need exist.  Leaves
    hold lanes here and literals in ``bitblast``."""
    for leaf in vval_leaves(v):
        if isinstance(leaf.sort, NatSort):
            _int64_width(leaf.sort.width, "an output natural")


def _vconst(v: Value) -> VLeaf:
    code = value_code(v)
    if code >= _KEY_BOUND:  # only a natural's code can be this large
        raise ValueError(f"the natural constant {code} does not fit an "
                         f"int64 column")
    s = value_sort(v)
    return VLeaf(_dtype(s)(code), s)


def _vwhere(mask: np.ndarray, a: VLeaf, b: VLeaf) -> VLeaf:
    return replace(a, arr=np.where(mask, a.arr, b.arr))


class Table:
    """Environments as parallel columns, one per atom present."""

    def __init__(self, var_sorts: dict[str, Sort]):
        self.var_sorts = var_sorts
        self.n = 1
        self.cols: dict[AtomKey, np.ndarray] = {}
        # each subtree's atoms (``_atoms``), found once per query by node
        # id, each entry holding its node; the plan and the query's row
        # blocks share them
        self.atoms: dict[int, tuple[Expr, frozenset[AtomKey]]] = {}

    def extend(self, keys: list[AtomKey]):
        """Cross the table with the full domains of the given missing atoms.
        An empty table gets empty columns; no domain is built."""
        keys = [k for k in keys if k not in self.cols]
        if not keys:
            return
        if not self.n:
            for k in keys:
                s = atom_sort(k, self.var_sorts)
                self.cols[k] = np.zeros(0, _dtype(s))
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
        # one pass over the mask: indexing each column by it would be one
        # pass per column, several times slower on wide tables
        keep = np.flatnonzero(mask)
        if len(keep) < self.n:
            for k in self.cols:
                self.cols[k] = self.cols[k][keep]
            self.n = len(keep)

    def var_vval(self, name: str, field: Optional[str] = None) -> VLeaf:
        """The column of atom ``(name, field)``; ``field`` is None for a
        scalar variable."""
        key = (name, field)
        return VLeaf(self.cols[key], atom_sort(key, self.var_sorts))


def eval_vec(e: Expr, table: Table) -> VVal:
    """Vectorized mirror of ``eval_expr``; one result lane per table row."""
    if isinstance(e, Var):
        return table.var_vval(e.name)
    if isinstance(e, Const):
        return _vconst(e.value)
    if isinstance(e, Field):
        assert isinstance(e.rec, Var), "expression is not scalarized"
        return table.var_vval(e.rec.name, e.name)
    if isinstance(e, Ite):
        c = eval_vec(e.cond, table)
        return _vwhere(c.arr, eval_vec(e.then, table), eval_vec(e.alt, table))
    if isinstance(e, Eq):
        a, b = eval_vec(e.a, table).arr, eval_vec(e.b, table).arr
        return VLeaf(a == b, BOOL)
    if isinstance(e, Lt):
        a, b = eval_vec(e.a, table).arr, eval_vec(e.b, table).arr
        return VLeaf(a < b, BOOL)
    if isinstance(e, Le):
        a, b = eval_vec(e.a, table).arr, eval_vec(e.b, table).arr
        return VLeaf(a <= b, BOOL)
    if isinstance(e, AddMod):
        a, b = eval_vec(e.a, table), eval_vec(e.b, table)
        assert isinstance(a.sort, NatSort) and a.sort == b.sort
        width = a.sort.width
        _int64_width(width, "a sum")  # its mask alone would pass int64
        # two 63-bit naturals can sum past int64; the sum wraps modulo 2^64,
        # which leaves the low bits the mask keeps unchanged, so numpy's
        # overflow warning (raised for scalar operands only) is noise
        with np.errstate(over="ignore"):
            total = a.arr + b.arr
        return VLeaf(total & ((1 << width) - 1), a.sort)
    if isinstance(e, SubSat):
        a, b = eval_vec(e.a, table), eval_vec(e.b, table)
        assert isinstance(a.sort, NatSort) and a.sort == b.sort
        return VLeaf(np.maximum(a.arr - b.arr, 0), a.sort)
    if isinstance(e, Not):
        return VLeaf(~np.asarray(eval_vec(e.a, table).arr), BOOL)
    if isinstance(e, (And, Or)):
        acc = np.bool_(isinstance(e, And))
        for x in e.args:
            v = eval_vec(x, table).arr
            acc = (acc & v) if isinstance(e, And) else (acc | v)
        return VLeaf(acc, BOOL)
    if isinstance(e, TupleE):
        return VRec(tuple((n, eval_vec(x, table)) for n, x in e.items))
    if isinstance(e, CaseNat):
        scrut = eval_vec(e.scrut, table)
        result = eval_vec(e.default, table)
        for key, body in reversed(e.arms):
            result = _vwhere(scrut.arr == key, eval_vec(body, table), result)
        return result
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# staged hypothesis filtering


def split_conjuncts(e: Expr) -> list[Expr]:
    """Flatten nested conjunctions into a list of small conjuncts for
    staged filtering."""
    out: list[Expr] = []

    def walk(x: Expr):
        if isinstance(x, And):
            for c in x.args:
                walk(c)
        elif not (isinstance(x, Const) and x.value == BoolV(True)):
            out.append(x)

    walk(e)
    return out


def _present(e: Expr, table: Table) -> bool:
    """Whether every atom that scalarized ``e`` reads is a column of
    ``table``."""
    return table.cols.keys() >= _atoms(e, table.atoms)


_UNKNOWN = (np.bool_(True), np.bool_(True))


def _may(e: Expr, table: Table) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``table``, whether boolean ``e`` may be true and whether it
    may be false, whatever values the atoms absent from ``table`` take.

    Three-valued evaluation: a subtree that reads only present atoms is
    evaluated exactly, ``And``, ``Or`` and ``Not`` combine the two masks,
    ``Ite`` weighs its branches by its condition's masks and ``CaseNat``
    picks an arm per row when its scrutinee is present (any arm when it is
    not); anything else that reads an absent atom may be either."""
    if _present(e, table):
        v = eval_vec(e, table).arr
        return v, ~np.asarray(v)
    if isinstance(e, Not):
        t, f = _may(e.a, table)
        return f, t
    if isinstance(e, (And, Or)):
        ts, fs = zip(*(_may(x, table) for x in e.args))
        if isinstance(e, And):
            return reduce(np.logical_and, ts), reduce(np.logical_or, fs)
        return reduce(np.logical_or, ts), reduce(np.logical_and, fs)
    if isinstance(e, Ite):
        (ct, cf), (tt, tf), (at, af) = (
            _may(x, table) for x in (e.cond, e.then, e.alt))
        return (ct & tt) | (cf & at), (ct & tf) | (cf & af)
    if isinstance(e, CaseNat):
        arms = [_may(b, table) for _, b in e.arms]
        t, f = _may(e.default, table)
        if not _present(e.scrut, table):
            for at, af in arms:
                t, f = t | at, f | af
            return t, f
        scrut = eval_vec(e.scrut, table).arr
        for (key, _), (at, af) in zip(reversed(e.arms), reversed(arms)):
            hit = scrut == key
            t, f = np.where(hit, at, t), np.where(hit, af, f)
        return t, f
    return _UNKNOWN


def build_table(var_sorts: dict[str, Sort], hyp: Expr,
                trm_exprs: list[Expr]) -> Table:
    """Table of exactly the environments (projected to read atoms) that
    satisfy ``hyp``, extended to cover the atoms of ``trm_exprs``.
    Raises Capacity when that table would exceed ``DEFAULT_ROW_CAP`` rows.

    The staging order is planned once per query from the atoms alone
    (``_plan``) and then run over the rows (``_run``), where a row block
    starts at the crossing that needs it.  Callers pass already-scalarized
    expressions (see ``scalarize``)."""
    table = Table(var_sorts)
    return _run(table, _plan(var_sorts, hyp, trm_exprs, table.atoms))


# a step crosses its atoms (``span`` values in all), then drops the rows its
# conjunct rules out; the last step crosses the term's atoms and drops none
_Step = tuple[list[AtomKey], int, Optional[Expr]]


def _plan(var_sorts: dict[str, Sort], hyp: Expr, trm_exprs: list[Expr],
          memo: dict) -> list[_Step]:
    """The staging steps of a query, smallest missing span first.  Each
    conjunct gets a step that crosses nothing (its prune on the rows so
    far), then one step per leading run of its missing atoms that fits
    ``CHUNK_ROWS`` (at least one atom each).  ``memo`` is the query's
    atom memo (``Table.atoms``)."""
    def card(k: AtomKey) -> int:
        return sort_card(atom_sort(k, var_sorts))

    present: set[AtomKey] = set()

    def missing_span(i: int) -> int:
        return prod(card(k) for k in pending[i][1] if k not in present)

    # atoms found once per conjunct
    pending = [(c, atoms_for([c], var_sorts, memo))
               for c in split_conjuncts(hyp)]
    plan: list[_Step] = []
    while pending:
        conj, keys = pending.pop(min(range(len(pending)), key=missing_span))
        plan.append(([], 1, conj))
        for k in keys:
            if k in present:
                continue
            run, span, _ = plan[-1]
            if run and span * card(k) <= CHUNK_ROWS:
                plan[-1] = (run + [k], span * card(k), conj)
            else:
                plan.append(([k], card(k), conj))
        present.update(keys)
    trm_keys = [k for k in atoms_for(trm_exprs, var_sorts, memo)
                if k not in present]
    plan.append((trm_keys, prod(map(card, trm_keys)), None))
    return plan


def _run(table: Table, plan: list[_Step]) -> Table:
    """Run ``plan``'s steps on ``table``.  A crossing that would take a
    table of several rows past ``CHUNK_ROWS`` sends the rows through
    ``plan[i:]`` in contiguous blocks instead.  Capacity is raised before
    any domain is built: for surviving rows, or the term's crossing, past
    ``DEFAULT_ROW_CAP`` (read at call time), and for one atom too wide for
    both limits."""
    for i, (keys, span, conj) in enumerate(plan):
        rows = table.n * span
        if conj is None:
            if rows > DEFAULT_ROW_CAP:
                raise Capacity(rows, DEFAULT_ROW_CAP)
        elif keys and table.n > 1 and rows > CHUNK_ROWS:
            size = max(1, CHUNK_ROWS // span)
            parts: list[Table] = []
            total = 0
            for lo in range(0, table.n, size):
                block = Table(table.var_sorts)
                block.atoms = table.atoms
                block.n = min(size, table.n - lo)
                block.cols = {k: col[lo:lo + size]
                              for k, col in table.cols.items()}
                parts.append(_run(block, plan[i:]))
                total += parts[-1].n
                if total > DEFAULT_ROW_CAP:
                    raise Capacity(total, DEFAULT_ROW_CAP)
            table.cols = {k: np.concatenate([p.cols[k] for p in parts])
                          for k in parts[0].cols}
            table.n = total
            return table
        elif rows > max(CHUNK_ROWS, DEFAULT_ROW_CAP):
            # a run this wide is one atom crossing one row: it cannot be split
            raise Capacity(rows, DEFAULT_ROW_CAP)
        if keys:
            table.extend(keys)
        if conj is not None and table.n:
            # with nothing left to cross this is the conjunct's own filter
            table.filter(_may(conj, table)[0])
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


def _rebuild(v: VVal, codes: list[int], pos: list[int]) -> Value:
    if isinstance(v, VRec):
        return TupleV(tuple((n, _rebuild(x, codes, pos)) for n, x in v.items))
    i = pos[0]
    pos[0] += 1
    return code_value(v.sort, codes[i])


# packed keys, and so their bound and each column's card, stay int64
_KEY_BOUND = 1 << 63


def _pack(columns: Iterable[tuple[np.ndarray, int]]
          ) -> tuple[np.ndarray, int]:
    """One int64 key per row of the (column, cardinality) pairs, at least
    one, ordered as the rows are lexicographically, and the keys' bound:
    mixed radix, ``key * card + col`` column by column.  Before the keys'
    bound would reach ``_KEY_BOUND``, the keys so far are re-densified by a
    1-D unique, and then the column too if it still would; dense codes stay
    below the row count, so any columns fit while rows x rows does.

    The key starts as a one-entry int64 array, not a scalar, so a narrow
    column (a bool leaf, an unsigned item rank) is summed into an int64 key
    under both NumPy 1's value-based promotion and NumPy 2's."""
    key, bound = np.zeros(1, dtype=np.int64), 1
    for col, card in columns:
        if bound * card >= _KEY_BOUND:
            uniq, key = np.unique(key, return_inverse=True)
            bound = len(uniq)
            if bound * card >= _KEY_BOUND:
                uniq, col = np.unique(col, return_inverse=True)
                card = len(uniq)
        key = key * card + col
        bound *= card
    return key, bound


# a key bound up to this many times the row count is ranked by counting: its
# bool mask is no larger than one int64 column
_COUNT_RATIO = 8


def lex_rank(cols: list[np.ndarray], cards: list[int]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Dense lexicographic rank of every row of ``cols``, and one row
    index per rank.

    The columns are packed into one int64 key per row (``_pack``).  When
    the keys' bound is at most ``_COUNT_RATIO`` times the row count, the
    keys are ranked by counting: a mask of the keys present, and each key's
    place among them, with no sort.  A wider key is ranked by one unique.
    Packing sorts once more each time the key would pass int64.  Column
    ``j`` holds codes in ``[0, cards[j])``.
    """
    key, bound = _pack(zip(cols, cards))
    if bound <= _COUNT_RATIO * len(key):
        present = np.zeros(bound, dtype=bool)
        present[key] = True
        rank = np.searchsorted(np.flatnonzero(present), key)
    else:
        # return_inverse also keeps np.unique from importing numpy.ma
        _, rank = np.unique(key, return_inverse=True)
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
    so rows that repeat an item share that sub-value; a slice is the
    ``DistinctRows`` of its rows.  The sequence equals any sequence of the
    same values in the same order.
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

    def item(self, k: int, row: int) -> Value:
        """Item ``k`` of row ``row``."""
        return self.item_values[k][self.item_ids[k][row]]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: Union[int, slice]
                    ) -> Union[Value, "DistinctRows"]:
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


def distinct_rows(v: VVal, n_rows: int) -> DistinctRows:
    """Distinct values of ``v`` across its ``n_rows`` rows, canonically
    ordered.  The rows are a table's, or the models a solver found
    (``Circuit.output_columns``): this is the one decoder of enumeration
    results, so it alone refuses an output natural wider than an int64
    code, whether or not any row exists.

    Each top-level item is ranked over all rows from its own leaf columns
    (``lex_rank``); because every leaf's numeric code is ordered the same
    way as the canonical Value order within its sort, rank order IS the
    canonical order.  An item's values repeat across rows (the same source
    node pairs with many destinations), so its key's bound is small, it is
    ranked by counting, and each distinct item value is decoded once.  The
    item ranks are held in the narrowest unsigned type, and rows are ranked
    over them in item order, with a key bound of the product of the items'
    distinct counts; the item rank of each distinct row is its id in that
    item.  No row is built here (see ``DistinctRows``).
    """
    int64_codes(v)
    if n_rows == 0:
        return DistinctRows(None, [[]], [np.zeros(0, dtype=np.int64)], 0)
    items = v.items if isinstance(v, VRec) else ((None, v),)
    names = tuple(n for n, _ in items) if isinstance(v, VRec) else None
    if not vval_leaves(v):
        return DistinctRows(names, [[_rebuild(x, [], [0])] for _, x in items],
                            [np.zeros(1, dtype=np.int64) for _ in items], 1)
    item_values: list[list[Value]] = []
    ranks: list[np.ndarray] = []
    for _, item in items:
        leaves = vval_leaves(item)
        if not leaves:
            item_values.append([_rebuild(item, [], [0])])
            ranks.append(np.broadcast_to(np.uint8(0), (n_rows,)))
            continue
        cols = [np.broadcast_to(leaf.arr, (n_rows,)) for leaf in leaves]
        rank, first = lex_rank(cols, [sort_card(leaf.sort) for leaf in leaves])
        codes = np.column_stack([col[first] for col in cols]).tolist()
        item_values.append([_rebuild(item, row, [0]) for row in codes])
        # below 2^32 rows an unsigned rank is at most uint32, which packs
        # into int64 keys (a uint64 column would make them floats)
        ranks.append(rank.astype(np.min_scalar_type(len(first) - 1)))
    _, first = lex_rank(ranks, [len(vals) for vals in item_values])
    return DistinctRows(names, item_values,
                        [rank[first].astype(np.int64) for rank in ranks],
                        len(first))


def exhaustive_values(var_sorts: dict[str, Sort], hyp: Expr,
                      trm: Expr) -> DistinctRows:
    """All distinct values of ``trm`` over environments satisfying ``hyp``,
    canonically ordered.  The reference backend behind
    compute-finite-values."""
    hyp_s = scalarize(hyp, var_sorts)
    trm_s = scalarize(trm, var_sorts)
    table = build_table(var_sorts, hyp_s, [trm_s])
    # an empty table has empty columns
    return distinct_rows(eval_vec(trm_s, table), table.n)
