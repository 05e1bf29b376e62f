"""Random scalar expressions and values, shared by the oracle tests.

The generator stays inside the scalar fragment (no records): that is the
fragment the circuit encoder receives after scalarization, and it keeps the
reference evaluator trivially correct.
"""

from __future__ import annotations

import random
from typing import Optional

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
    Ite,
    Le,
    Lt,
    NatSort,
    NatV,
    Not,
    Or,
    Sort,
    SubSat,
    Value,
    Var,
)

ENUM_POOLS = (("red", "green", "blue"), ("off", "on"),
              ("n", "e", "s", "w"), ("lo", "mid", "hi", "top", "max"))


def rand_sort(rng: random.Random, max_width: int = 3) -> Sort:
    k = rng.randrange(5)
    if k == 0:
        return BOOL
    if k == 1:
        return EnumSort(rng.choice(ENUM_POOLS))
    return NatSort(rng.randint(1, max_width))


def rand_value(rng: random.Random, s: Sort) -> Value:
    if isinstance(s, BoolSort):
        return BoolV(rng.random() < 0.5)
    if isinstance(s, NatSort):
        return NatV(rng.randrange(1 << s.width), s.width)
    assert isinstance(s, EnumSort)
    return EnumV(rng.choice(s.syms), s.syms)


def rand_env(rng: random.Random, var_sorts: dict[str, Sort]) -> dict:
    return {v: rand_value(rng, s) for v, s in var_sorts.items()}


def rand_var_sorts(rng: random.Random, max_vars: int = 3,
                   max_width: int = 3) -> dict[str, Sort]:
    names = ("x", "y", "z", "u", "v")
    count = rng.randint(1, max_vars)
    return {names[i]: rand_sort(rng, max_width) for i in range(count)}


def _leaf(rng: random.Random, var_sorts: dict[str, Sort], s: Sort):
    vs = [n for n, vsort in var_sorts.items() if vsort == s]
    if vs and rng.random() < 0.7:
        return Var(rng.choice(vs))
    return Const(rand_value(rng, s))


def rand_expr(rng: random.Random, var_sorts: dict[str, Sort], s: Sort,
              depth: int, bool_case: bool = False):
    """A random well-sorted expression of sort ``s``.  With ``bool_case``,
    a ``case`` may also stand where a boolean is expected (a guard split
    on a counter, like the bakery's ``blok``); without it the stream of
    expressions is the one the fixed-seed tests were written against."""
    if depth <= 0 or rng.random() < 0.2:
        return _leaf(rng, var_sorts, s)

    def sub(t: Sort, d: int = depth - 1):
        return rand_expr(rng, var_sorts, t, d, bool_case)

    if isinstance(s, BoolSort):
        pick = rng.randrange(8 if bool_case else 7)
        if pick == 0:
            return Not(sub(BOOL))
        if pick == 1:
            return And(tuple(sub(BOOL) for _ in range(rng.randint(2, 3))))
        if pick == 2:
            return Or(tuple(sub(BOOL) for _ in range(rng.randint(2, 3))))
        if pick == 3:
            t = rand_sort(rng)
            return Eq(sub(t), sub(t))
        if pick in (4, 5):
            t = NatSort(rng.randint(1, 3))
            return (Lt if pick == 4 else Le)(sub(t), sub(t))
        if pick == 7:
            return _case(rng, var_sorts, s, depth, bool_case)
        return Ite(sub(BOOL), sub(BOOL), sub(BOOL))

    if isinstance(s, NatSort):
        pick = rng.randrange(5)
        if pick == 0:
            return AddMod(sub(s), sub(s))
        if pick == 1:
            return SubSat(sub(s), sub(s))
        if pick == 2:
            return Ite(sub(BOOL), sub(s), sub(s))
        if pick == 3:
            return _case(rng, var_sorts, s, depth, bool_case)
        return _leaf(rng, var_sorts, s)

    pick = rng.randrange(3)
    if pick == 0:
        return Ite(sub(BOOL), sub(s), sub(s))
    if pick == 1:
        return _case(rng, var_sorts, s, depth, bool_case)
    return _leaf(rng, var_sorts, s)


def _case(rng: random.Random, var_sorts: dict[str, Sort], s: Sort,
          depth: int, bool_case: bool) -> CaseNat:
    def sub(t: Sort):
        return rand_expr(rng, var_sorts, t, depth - 1, bool_case)

    scrut = sub(NatSort(rng.randint(1, 2)))
    keys = sorted(rng.sample(range(4), rng.randint(1, 3)))
    arms = tuple((k, sub(s)) for k in keys)
    return CaseNat(scrut, arms, sub(s))
