"""Tseitin translation of well-sorted expressions to CNF.

Encoding: a scalar is a ``BLeaf``, its sort and the bits of its integer
code (``model.value_code``), LSB first, one literal per bit of
``sort_bits``: a boolean is one literal, a natural one per bit, an enum its
symbol's position over the minimal bit count, with clauses excluding the
codes past ``sort_card``.  Both expressions are scalarized first
(``veceval.scalarize``), so every gate works on scalars: the inputs are one
leaf per atom, keyed by ``(var, field)`` as ``veceval.Table``'s columns
are, and a tuple output is a ``veceval.VRec`` of leaves.  Variable 1 is
reserved as the constant TRUE (asserted by a unit clause), so constant bits
need no special cases downstream.

Gates are hash-consed (structural hashing): each distinct gate is built
once, and a repeated request returns its literal and adds no clauses.  An
AND is keyed by its literal set after constant and duplicate folding, so an
OR shares it by De Morgan; an XOR by its operands' variables, the sign
folded into the literal; an ITE by its three literals.  Most repeats are
the arm tests of a record-valued ``case``, which ``scalarize`` splits into
one ``case`` per field.  The CNF that ``check --dump-cnf`` writes is this
one: nlock's relation at the default (2,2,3) is ``p cnf 125 286``, and
would be ``p cnf 153 376`` with every requested gate built anew.

Variable numbering is deterministic: inputs in declaration order (fields in
sort order, bits LSB-first), then each gate's variable at its first
request.  Identical inputs therefore produce bit-identical clause lists.

Results are not decoded here: ``Circuit.output_columns`` turns the output
bits of the models a solver found into one integer code column per scalar
leaf, the codes ``veceval`` evaluates to, and ``veceval.distinct_rows``
decodes and orders them as it does the exhaustive backend's columns.  The
output leaves carry their sorts, so a natural too wide for an int64 code is
refused (``veceval.int64_codes``) before any model is searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .model import (
    BOOL, AddMod, And, BoolSort, CaseNat, Const, Eq, Expr, Field, Ite, Le,
    Lt, NatSort, Not, Or, Sort, SubSat, TupleE, Value, Var, sort_bits,
    sort_card, value_code, value_sort)
from .veceval import (
    AtomKey, VLeaf, VRec, VVal, all_atoms, scalarize, vval_leaves)

# numpy after wfgraph.model: compiling model from source with numpy already
# loaded raises the process's peak RSS
import numpy as np

TRUE = 1


class BlastError(ValueError):
    pass


@dataclass
class BLeaf:
    """A scalar as literals, the bits of its code (``model.value_code``)
    LSB first, and its sort: ``sort_bits(sort)`` literals."""
    lits: list[int]
    sort: Sort


# records of literal leaves are ``veceval.VRec``s, as records of lanes are
BitVal = Union[BLeaf, VRec]


def bitval_lits(v: BitVal) -> list[int]:
    """Flatten to the canonical literal order (fields in order, LSB-first)."""
    return [l for leaf in vval_leaves(v) for l in leaf.lits]


def value_lits(v: BitVal, value: Value) -> list[int]:
    """The literals that are true exactly when ``v`` takes ``value``: per
    leaf, in ``bitval_lits`` order, each bit of its code's literal or its
    negation."""
    if isinstance(v, VRec):
        return [l for (_, x), (_, y) in zip(v.items, value.items)
                for l in value_lits(x, y)]
    code = value_code(value)
    return [l if code >> i & 1 else -l for i, l in enumerate(v.lits)]


def _same_width(a: list[int], b: list[int], op: str):
    if len(a) != len(b):
        raise BlastError(f"operands of {op} have {len(a)} and {len(b)} bits")


class _Builder:
    def __init__(self):
        self.num_vars = 1  # variable 1 = TRUE
        self.clauses: list[list[int]] = [[TRUE]]
        # each distinct gate is built once: a gate's key, after constant
        # folding, to its literal
        self.gates: dict[tuple, int] = {}

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, clause: list[int]):
        self.clauses.append(clause)

    # -- gates ----------------------------------------------------------
    def g_and(self, lits: list[int]) -> int:
        out = []
        for l in lits:
            if l == -TRUE or -l in out:
                return -TRUE
            if l != TRUE and l not in out:
                out.append(l)
        if not out:
            return TRUE
        if len(out) == 1:
            return out[0]
        key = ("and", frozenset(out))
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.new_var()
            for l in out:
                self.add([-g, l])
            self.add([g] + [-l for l in out])
        return g

    def g_or(self, lits: list[int]) -> int:
        return -self.g_and([-l for l in lits])

    def g_xor(self, a: int, b: int) -> int:
        if a == TRUE:
            return -b
        if a == -TRUE:
            return b
        if b == TRUE:
            return -a
        if b == -TRUE:
            return a
        if a == b:
            return -TRUE
        if a == -b:
            return TRUE
        # keyed by the operands' variables: negating one negates the gate
        sign = -1 if (a < 0) != (b < 0) else 1
        a, b = sorted((abs(a), abs(b)))
        key = ("xor", a, b)
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.new_var()
            self.add([-g, a, b])
            self.add([-g, -a, -b])
            self.add([g, -a, b])
            self.add([g, a, -b])
        return sign * g

    def g_ite(self, c: int, t: int, e: int) -> int:
        if c == TRUE:
            return t
        if c == -TRUE:
            return e
        if t == e:
            return t
        if t == TRUE and e == -TRUE:
            return c
        if t == -TRUE and e == TRUE:
            return -c
        key = ("ite", c, t, e)
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.new_var()
            self.add([-g, -c, t])
            self.add([-g, c, e])
            self.add([g, -c, -t])
            self.add([g, c, -e])
        return g

    # -- vectors --------------------------------------------------------
    def eq_bits(self, a: list[int], b: list[int]) -> int:
        _same_width(a, b, "=")
        return self.g_and([-self.g_xor(x, y) for x, y in zip(a, b)])

    def lt_bits(self, a: list[int], b: list[int], strict: bool) -> int:
        """a < b (or a <= b) over little-endian unsigned vectors."""
        _same_width(a, b, "<" if strict else "<=")
        acc = -TRUE if strict else TRUE
        for x, y in zip(a, b):  # LSB upward; the last update dominates
            bit_lt = self.g_and([-x, y])
            bit_eq = -self.g_xor(x, y)
            acc = self.g_or([bit_lt, self.g_and([bit_eq, acc])])
        return acc

    def add_mod(self, a: list[int], b: list[int]) -> list[int]:
        _same_width(a, b, "+")
        out = []
        carry = -TRUE
        for x, y in zip(a, b):
            s = self.g_xor(self.g_xor(x, y), carry)
            carry = self.g_or([self.g_and([x, y]),
                               self.g_and([x, carry]),
                               self.g_and([y, carry])])
            out.append(s)
        return out

    def sub_sat(self, a: list[int], b: list[int]) -> list[int]:
        _same_width(a, b, "-")
        diff = []
        borrow = -TRUE
        for x, y in zip(a, b):
            d = self.g_xor(self.g_xor(x, y), borrow)
            borrow = self.g_or([self.g_and([-x, y]),
                                self.g_and([-x, borrow]),
                                self.g_and([y, borrow])])
            diff.append(d)
        ok = -borrow  # borrow out of the MSB means a < b: clamp to zero
        return [self.g_and([d, ok]) for d in diff]


def _const_bits(value: int, width: int) -> list[int]:
    return [TRUE if (value >> i) & 1 else -TRUE for i in range(width)]


def _encode_const(v: Value) -> BLeaf:
    s = value_sort(v)
    return BLeaf(_const_bits(value_code(v), sort_bits(s)), s)


def _bool(lit: int) -> BLeaf:
    return BLeaf([lit], BOOL)


def _ite_val(bld: _Builder, c: int, t: BLeaf, e: BLeaf) -> BLeaf:
    assert isinstance(t, BLeaf) and t.sort == e.sort, \
        "record branches are scalarized away"
    return BLeaf([bld.g_ite(c, x, y) for x, y in zip(t.lits, e.lits)], t.sort)


# An encoded value's sort is checked after ``_Encoder.encode`` returns, so
# each nesting level of an expression costs two frames (``_encode`` and
# ``encode``), as in ``veceval.scalarize``, and a model the exhaustive
# backend runs is not too deep to blast.


def _lit(v: BitVal) -> int:
    assert isinstance(v.sort, BoolSort)
    return v.lits[0]


def _bits(v: BitVal) -> list[int]:
    assert isinstance(v.sort, NatSort)
    return v.lits


class _Encoder:
    def __init__(self, bld: _Builder, env: dict[AtomKey, BLeaf]):
        self.bld = bld
        self.env = env
        # scalarize hands one condition (or scrutinee) node to every
        # per-field branch of a record branch: encode each node once.  Keys
        # are ids, valid because the encoded trees outlive the encoder.
        self.encoded: dict[int, BitVal] = {}

    def encode(self, e: Expr) -> BitVal:
        v = self.encoded.get(id(e))
        if v is None:
            v = self.encoded[id(e)] = self._encode(e)
        return v

    def _encode(self, e: Expr) -> BitVal:
        bld, enc = self.bld, self.encode
        if isinstance(e, Var):
            return self.env[e.name, None]
        if isinstance(e, Const):
            return _encode_const(e.value)
        if isinstance(e, Field):
            assert isinstance(e.rec, Var), "expression is not scalarized"
            return self.env[e.rec.name, e.name]
        if isinstance(e, Ite):
            return _ite_val(bld, _lit(enc(e.cond)), enc(e.then), enc(e.alt))
        if isinstance(e, Eq):
            return _bool(bld.eq_bits(enc(e.a).lits, enc(e.b).lits))
        if isinstance(e, (Lt, Le)):
            return _bool(bld.lt_bits(_bits(enc(e.a)), _bits(enc(e.b)),
                                     isinstance(e, Lt)))
        if isinstance(e, (AddMod, SubSat)):
            a = enc(e.a)
            op = bld.add_mod if isinstance(e, AddMod) else bld.sub_sat
            return BLeaf(op(a.lits, _bits(enc(e.b))), a.sort)
        if isinstance(e, Not):
            return _bool(-_lit(enc(e.a)))
        if isinstance(e, And):
            return _bool(bld.g_and([_lit(enc(x)) for x in e.args]))
        if isinstance(e, Or):
            return _bool(bld.g_or([_lit(enc(x)) for x in e.args]))
        if isinstance(e, TupleE):
            return VRec(tuple((n, enc(x)) for n, x in e.items))
        if isinstance(e, CaseNat):
            scrut = _bits(enc(e.scrut))
            out = enc(e.default)
            for key, body in reversed(e.arms):
                if key >= (1 << len(scrut)):
                    continue  # no scrutinee value can reach this arm
                hit = bld.eq_bits(scrut, _const_bits(key, len(scrut)))
                out = _ite_val(bld, hit, enc(body), out)
            return out
        raise BlastError(f"cannot encode {type(e).__name__}")


def _alloc_input(bld: _Builder, s: Sort) -> BLeaf:
    """Fresh literals for an atom of scalar sort ``s``, with a clause
    excluding each code past ``sort_card(s)`` (an enum's unused codes)."""
    nbits = sort_bits(s)
    bits = [bld.new_var() for _ in range(nbits)]
    for code in range(sort_card(s), 1 << nbits):
        bld.add([bits[i] if not ((code >> i) & 1) else -bits[i]
                 for i in range(nbits)])
    return BLeaf(bits, s)


@dataclass
class Circuit:
    """CNF encoding of a (trm, hyp) pair over declared variables.

    ``clauses`` hold the encoding constraints only; satisfying the instance
    additionally requires asserting ``hyp_lit`` (the enumerator adds it as a
    unit clause).  ``output`` is the encoded trm; ``outputs`` are its bits
    in canonical order (``bitval_lits``), listed once by ``bitblast``.
    """

    num_vars: int
    clauses: list[list[int]]
    inputs: dict[str, list[int]]
    output: BitVal
    outputs: list[int]
    hyp_lit: int

    def output_columns(self, rows: Sequence[Sequence[bool]]) -> VVal:
        """The trm values of ``rows``, each the truth values of ``outputs``
        in one model, as one integer code column per scalar leaf: the input
        of ``veceval.distinct_rows``."""
        bits = np.array(rows, dtype=np.int64).reshape(
            len(rows), len(self.outputs))
        start = 0

        def codes(width: int) -> np.ndarray:
            nonlocal start
            part = bits[:, start:start + width]
            start += width
            return part @ (1 << np.arange(width, dtype=np.int64))

        def leaf(v: BitVal) -> VVal:
            if isinstance(v, VRec):
                return VRec(tuple((n, leaf(x)) for n, x in v.items))
            col = codes(len(v.lits))
            card = sort_card(v.sort)
            if card < 1 << len(v.lits):  # an enum's unused codes
                bad = col[col >= card]
                if bad.size:
                    raise BlastError(
                        f"enum code {bad[0]} out of range: encoding bug")
            return VLeaf(col, v.sort)

        return leaf(self.output)


def bitblast(trm: Expr, hyp: Expr, var_sorts: dict[str, Sort]) -> Circuit:
    """Translate ``trm`` under ``hyp`` to a Circuit (see module docstring)."""
    trm = scalarize(trm, var_sorts)
    hyp = scalarize(hyp, var_sorts)
    bld = _Builder()
    # keyed by atom, as a ``veceval.Table``'s columns are
    env: dict[AtomKey, BLeaf] = {}
    inputs: dict[str, list[int]] = {name: [] for name in var_sorts}
    for key, s in all_atoms(var_sorts):
        env[key] = _alloc_input(bld, s)
        inputs[key[0]] += env[key].lits
    enc = _Encoder(bld, env)
    hyp_lit = _lit(enc.encode(hyp))
    output = enc.encode(trm)
    return Circuit(num_vars=bld.num_vars, clauses=bld.clauses, inputs=inputs,
                   output=output, outputs=bitval_lits(output),
                   hyp_lit=hyp_lit)


def dimacs(circuit: Circuit) -> str:
    """DIMACS text of the circuit constraints plus the hypothesis unit."""
    clauses = circuit.clauses + [[circuit.hyp_lit]]
    lines = [f"p cnf {circuit.num_vars} {len(clauses)}"]
    for c in clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"
