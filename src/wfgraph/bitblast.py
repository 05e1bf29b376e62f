"""Tseitin translation of well-sorted expressions to CNF.

Encoding: booleans are one literal; naturals are little-endian literal
vectors, one per bit; enums are binary codes over the minimal bit count with
clauses excluding out-of-range codes; record inputs and tuple outputs
concatenate their fields in declaration order.  Both expressions are
scalarized first (``veceval.scalarize``), so every gate works on scalars:
a record read is a field of an input, and only tuples are record-sorted.
Variable 1 is reserved as the constant TRUE (asserted by a unit clause), so
constant bits need no special cases downstream.

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
decodes and orders them as it does the exhaustive backend's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .model import (
    AddMod, And, BoolSort, BoolV, CaseNat, Const, EnumSort, EnumV, Eq, Expr,
    Field, Ite, Le, Lt, NatSort, NatV, Not, Or, Sort, SubSat, TupleE, Value,
    Var, sort_bits)
from .veceval import VBool, VEnum, VNat, VRec, VVal, scalarize

# numpy after wfgraph.model: compiling model from source with numpy already
# loaded raises the process's peak RSS
import numpy as np

TRUE = 1


class BlastError(ValueError):
    pass


@dataclass
class BBool:
    lit: int


@dataclass
class BNat:
    bits: list[int]  # little-endian

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass
class BEnum:
    bits: list[int]
    syms: tuple[str, ...]


@dataclass
class BRec:
    items: tuple[tuple[Optional[str], "BitVal"], ...]

    def get(self, name: str) -> "BitVal":
        for n, v in self.items:
            if n == name:
                return v
        raise KeyError(name)


BitVal = Union[BBool, BNat, BEnum, BRec]


def bitval_lits(v: BitVal) -> list[int]:
    """Flatten to the canonical literal order (fields in order, LSB-first)."""
    if isinstance(v, BBool):
        return [v.lit]
    if isinstance(v, (BNat, BEnum)):
        return list(v.bits)
    out: list[int] = []
    for _, x in v.items:
        out.extend(bitval_lits(x))
    return out


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


def _encode_const(v: Value) -> BitVal:
    if isinstance(v, BoolV):
        return BBool(TRUE if v.val else -TRUE)
    if isinstance(v, NatV):
        return BNat(_const_bits(v.val, v.width))
    assert isinstance(v, EnumV), "record constants are scalarized away"
    return BEnum(_const_bits(v.index, sort_bits(EnumSort(v.syms))), v.syms)


def _ite_val(bld: _Builder, c: int, t: BitVal, e: BitVal) -> BitVal:
    if isinstance(t, BBool):
        assert isinstance(e, BBool)
        return BBool(bld.g_ite(c, t.lit, e.lit))
    if isinstance(t, BNat):
        assert isinstance(e, BNat) and t.width == e.width
        return BNat([bld.g_ite(c, x, y) for x, y in zip(t.bits, e.bits)])
    assert isinstance(t, BEnum) and isinstance(e, BEnum) and t.syms == e.syms, \
        "record branches are scalarized away"
    return BEnum([bld.g_ite(c, x, y) for x, y in zip(t.bits, e.bits)], t.syms)


def _eq_val(bld: _Builder, a: BitVal, b: BitVal) -> int:
    return bld.eq_bits(bitval_lits(a), bitval_lits(b))


class _Encoder:
    def __init__(self, bld: _Builder, env: dict[str, BitVal]):
        self.bld = bld
        self.env = env
        # scalarize hands one condition (or scrutinee) node to every
        # per-field branch of a record branch: encode each node once.  Keys
        # are ids, valid because the encoded trees outlive the encoder.
        self.encoded: dict[int, BitVal] = {}

    def bool_lit(self, e: Expr) -> int:
        v = self.encode(e)
        assert isinstance(v, BBool)
        return v.lit

    def nat_bits(self, e: Expr) -> list[int]:
        v = self.encode(e)
        assert isinstance(v, BNat)
        return v.bits

    def encode(self, e: Expr) -> BitVal:
        v = self.encoded.get(id(e))
        if v is None:
            v = self.encoded[id(e)] = self._encode(e)
        return v

    def _encode(self, e: Expr) -> BitVal:
        bld = self.bld
        if isinstance(e, Var):
            return self.env[e.name]
        if isinstance(e, Const):
            return _encode_const(e.value)
        if isinstance(e, Field):
            rec = self.encode(e.rec)
            assert isinstance(rec, BRec)
            return rec.get(e.name)
        if isinstance(e, Ite):
            return _ite_val(bld, self.bool_lit(e.cond),
                            self.encode(e.then), self.encode(e.alt))
        if isinstance(e, Eq):
            return BBool(_eq_val(bld, self.encode(e.a), self.encode(e.b)))
        if isinstance(e, Lt):
            return BBool(bld.lt_bits(self.nat_bits(e.a), self.nat_bits(e.b), True))
        if isinstance(e, Le):
            return BBool(bld.lt_bits(self.nat_bits(e.a), self.nat_bits(e.b), False))
        if isinstance(e, AddMod):
            return BNat(bld.add_mod(self.nat_bits(e.a), self.nat_bits(e.b)))
        if isinstance(e, SubSat):
            return BNat(bld.sub_sat(self.nat_bits(e.a), self.nat_bits(e.b)))
        if isinstance(e, Not):
            return BBool(-self.bool_lit(e.a))
        if isinstance(e, And):
            return BBool(bld.g_and([self.bool_lit(x) for x in e.args]))
        if isinstance(e, Or):
            return BBool(bld.g_or([self.bool_lit(x) for x in e.args]))
        if isinstance(e, TupleE):
            return BRec(tuple((n, self.encode(x)) for n, x in e.items))
        if isinstance(e, CaseNat):
            scrut = self.nat_bits(e.scrut)
            out = self.encode(e.default)
            for key, body in reversed(e.arms):
                if key >= (1 << len(scrut)):
                    continue  # no scrutinee value can reach this arm
                hit = bld.eq_bits(scrut, _const_bits(key, len(scrut)))
                out = _ite_val(bld, hit, self.encode(body), out)
            return out
        raise BlastError(f"cannot encode {type(e).__name__}")


def _alloc_input(bld: _Builder, s: Sort) -> BitVal:
    if isinstance(s, BoolSort):
        return BBool(bld.new_var())
    if isinstance(s, NatSort):
        return BNat([bld.new_var() for _ in range(s.width)])
    if isinstance(s, EnumSort):
        nbits = sort_bits(s)
        bits = [bld.new_var() for _ in range(nbits)]
        for code in range(len(s.syms), 1 << nbits):
            bld.add([bits[i] if not ((code >> i) & 1) else -bits[i]
                     for i in range(nbits)])
        return BEnum(bits, s.syms)
    return BRec(tuple((n, _alloc_input(bld, fs)) for n, fs in s.fields))


@dataclass
class Circuit:
    """CNF encoding of a (trm, hyp) pair over declared variables.

    ``clauses`` hold the encoding constraints only; satisfying the instance
    additionally requires asserting ``hyp_lit`` (the enumerator adds it as a
    unit clause).  ``output`` is the encoded trm; ``outputs`` are its bits
    in canonical order.
    """

    num_vars: int
    clauses: list[list[int]]
    inputs: dict[str, list[int]]
    output: BitVal
    hyp_lit: int

    @property
    def outputs(self) -> list[int]:
        return bitval_lits(self.output)

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
            if isinstance(v, BBool):
                return VBool(codes(1).astype(bool))
            if isinstance(v, BNat):  # distinct_rows refuses past 63 bits
                return VNat(codes(v.width), v.width)
            if isinstance(v, BEnum):
                col = codes(len(v.bits))
                bad = col[col >= len(v.syms)]
                if bad.size:
                    raise BlastError(
                        f"enum code {bad[0]} out of range: encoding bug")
                return VEnum(col, v.syms)
            return VRec(tuple((n, leaf(x)) for n, x in v.items))

        return leaf(self.output)


def bitblast(trm: Expr, hyp: Expr, var_sorts: dict[str, Sort]) -> Circuit:
    """Translate ``trm`` under ``hyp`` to a Circuit (see module docstring)."""
    trm = scalarize(trm, var_sorts)
    hyp = scalarize(hyp, var_sorts)
    bld = _Builder()
    env: dict[str, BitVal] = {}
    inputs: dict[str, list[int]] = {}
    for name, s in var_sorts.items():
        env[name] = _alloc_input(bld, s)
        inputs[name] = bitval_lits(env[name])
    enc = _Encoder(bld, env)
    hyp_val = enc.encode(hyp)
    assert isinstance(hyp_val, BBool)
    output = enc.encode(trm)
    return Circuit(num_vars=bld.num_vars, clauses=bld.clauses, inputs=inputs,
                   output=output, hyp_lit=hyp_val.lit)


def dimacs(circuit: Circuit, extra_units: tuple[int, ...] = ()) -> str:
    """DIMACS text of the circuit constraints plus ``extra_units`` (the
    caller typically passes the hyp literal)."""
    clauses = circuit.clauses + [[u] for u in extra_units]
    lines = [f"p cnf {circuit.num_vars} {len(clauses)}"]
    for c in clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"
