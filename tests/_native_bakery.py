"""A native Python mirror of the bundled bakery model, with its scheduler.

``wfgraph.bakery`` steps model values with the closures compiled from the
model's ``system`` declaration.  These are the hand-written dataclasses and
transition functions it replaced, kept as the oracle it is compared
against: they follow the model's ``next``, ``shared-next``, ``blok`` and
``done`` case by case on plain Python values, the scheduler below walks
them, and ``native_run`` replays the monitored run, converting each process
to a model value only for the measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from wfgraph.bakery import Bakery
from wfgraph.certify import DescentError
from wfgraph.model import FALSE, TRUE, BoolSort, Model, NatV, TupleV
from wfgraph.ordinals import (
    Ordinal, bnll_lt, bnll_to_ordinal, o_lt, ordinal_text)
from wfgraph.system import BakeryError, SystemState


# -- native state ------------------------------------------------------------

@dataclass(frozen=True)
class BakeTr:
    """One process: program counter plus the bakery bookkeeping fields."""

    loc: int
    choosing: bool
    temp: int
    pos: int
    pos_valid: bool
    loop: int
    runs: int
    done: bool
    ndx: int


@dataclass(frozen=True)
class BakeSh:
    """Shared state: the ticket high-water mark."""

    max: int


@dataclass(frozen=True)
class BakeSt:
    trs: tuple[BakeTr, ...]
    sh: BakeSh


def bake_init(n: int, r: int) -> BakeSt:
    """Initial global state: n copies of the init process, indices 1..n."""
    base = BakeTr(loc=0, choosing=False, temp=0, pos=0, pos_valid=False,
                  loop=0, runs=r, done=False, ndx=1)
    return BakeSt(tuple(replace(base, ndx=i + 1) for i in range(n)),
                  BakeSh(0))


# -- transition functions ----------------------------------------------------
#
# These follow the model's `next`, `shared-next`, `blok`, and `done` case by
# case, including the saturating decrements and the ticket increment that
# wraps modulo 2^w.

def bake_tr_next(a: BakeTr, sh: BakeSh, n: int, w: int) -> BakeTr:
    loc = a.loc
    if loc == 0:
        return replace(a, loc=1, choosing=True)
    if loc == 1:
        return replace(a, loc=2, temp=sh.max)
    if loc == 2:
        return replace(a, loc=3, pos=(a.temp + 1) % (1 << w), loop=n)
    if loc == 3:
        return replace(a, loc=4)
    if loc == 4:
        return replace(a, loc=5, loop=max(a.loop - 1, 0))
    if loc == 5:
        return replace(a, loc=6 if a.loop == 0 else 3,
                       pos_valid=a.loop == 0)
    if loc == 6:
        return replace(a, loc=7)
    if loc == 7:
        return replace(a, loc=8, choosing=False, loop=n)
    if loc in (8, 9, 10):
        return replace(a, loc=loc + 1)
    if loc == 11:
        return replace(a, loc=12, loop=max(a.loop - 1, 0))
    if loc == 12:
        return replace(a, loc=13 if a.loop == 0 else 8)
    if loc == 13:
        return replace(a, loc=14, pos_valid=False)
    if loc == 14:
        return replace(a, loc=15, runs=max(a.runs - 1, 0))
    if loc == 15:
        return replace(a, loc=16 if a.runs == 0 else 0)
    return replace(a, loc=17, done=True)


def bake_sh_next(sh: BakeSh, a: BakeTr) -> BakeSh:
    if a.loc == 6 and not sh.max > a.temp:
        return BakeSh(a.pos)
    return sh


def bake_tr_blok(a: BakeTr, b: BakeTr) -> bool:
    """True when a is waiting on b."""
    if a.loop != b.ndx:
        return False
    if a.loc == 3:
        return a.pos == 0 and b.pos_valid
    if a.loc == 8:
        return b.pos != 0 and b.choosing
    if a.loc == 9:
        return b.pos_valid and b.pos < a.pos
    if a.loc == 10:
        return b.pos_valid and b.pos == a.pos and b.ndx < a.ndx
    return False


def bake_done(a: BakeTr) -> bool:
    return a.done


def bake_blok(a: BakeTr, trs: Sequence[BakeTr]) -> bool:
    """True when a is waiting on any process in the list (a's own entry is
    harmless: every blok case fails against the process itself)."""
    return any(bake_tr_blok(a, b) for b in trs)


# -- scheduling --------------------------------------------------------------

def find_undone(trs: Sequence[BakeTr]) -> Optional[int]:
    for i, a in enumerate(trs):
        if not a.done:
            return i
    return None


def pick_blok(a: BakeTr, trs: Sequence[BakeTr]) -> int:
    for i, b in enumerate(trs):
        if bake_tr_blok(a, b):
            return i
    raise BakeryError("pick_blok called on an unblocked process")


def find_unblok(n: int, trs: Sequence[BakeTr],
                msr: Optional[Callable[[BakeTr], Ordinal]] = None) -> int:
    if trs[n].done:
        raise BakeryError(f"find_unblok started at done index {n}")
    seen = {n}
    m = msr(trs[n]) if msr is not None else None
    while bake_blok(trs[n], trs):
        k = pick_blok(trs[n], trs)
        if msr is not None:
            mk = msr(trs[k])
            if not o_lt(mk, m):
                raise DescentError(
                    f"no-lock measure failed to fall from index {n} "
                    f"({ordinal_text(m)}) to blocker {k} ({ordinal_text(mk)})")
            m = mk
        elif k in seen:
            raise BakeryError(f"blocking cycle through index {k}")
        seen.add(k)
        n = k
    if trs[n].done:
        raise BakeryError(f"find_unblok reached done index {n}")
    return n


def choose_ready(trs: Sequence[BakeTr],
                 oracle: Optional[Callable[[Sequence[int]], int]] = None,
                 msr: Optional[Callable[[BakeTr], Ordinal]] = None) -> int:
    start = find_undone(trs)
    if start is None:
        raise BakeryError("choose_ready called with every process done")
    witness = find_unblok(start, trs, msr)
    if oracle is None:
        return witness
    valid = [i for i, a in enumerate(trs)
             if not a.done and not bake_blok(a, trs)]
    assert witness in valid
    return oracle(valid)


# -- conversion and the monitored run ----------------------------------------

def tr_value(model: Model, a: BakeTr) -> TupleV:
    """The native process as a value of the model's process sort."""
    items = []
    for name, fs in model.record_sort("proc").fields:
        v = getattr(a, name.replace("-", "_"))
        items.append((name, (TRUE if v else FALSE) if isinstance(fs, BoolSort)
                      else NatV(v, fs.width)))
    return TupleV(tuple(items))


def from_state(st: SystemState) -> BakeSt:
    """A model state decoded to the native one."""
    return BakeSt(
        tuple(BakeTr(**{name.replace("-", "_"): v.val for name, v in a.items})
              for a in st.trs),
        BakeSh(st.sh.get("max").val))


def native_run(b: Bakery, seed: Optional[int] = None, max_steps: int = 100_000
               ) -> tuple[BakeSt, tuple[str, ...], tuple[Ordinal, ...]]:
    """``Bakery.run`` replayed on the native mirror: the same schedule, trace
    lines and rank measures, with each process converted to a model value
    only to be measured."""
    oracle = random.Random(seed).choice if seed is not None else None

    def rank(a: BakeTr):
        return b.rank_omap.mk_bnl(tr_value(b.model, a), b._rank_abs)

    def nlock_msr(a: BakeTr) -> Ordinal:
        return b.nlock_omap.msr(tr_value(b.model, a), b._nlock_abs)

    st = bake_init(b.n, b.r)
    bn = [rank(a) for a in st.trs]
    bound = b.rank_omap.bnl_bound
    measures = [bnll_to_ordinal(b.n, bn, bound)]
    trace: list[str] = []
    while not all(a.done for a in st.trs):
        if len(trace) >= max_steps:
            raise BakeryError(f"run exceeded {max_steps} steps")
        i = choose_ready(st.trs, oracle, nlock_msr)
        before = st.trs[i]
        trs = list(st.trs)
        trs[i] = bake_tr_next(before, st.sh, b.n, b.w)
        st2 = BakeSt(tuple(trs), bake_sh_next(st.sh, before))
        bn2 = list(bn)
        bn2[i] = rank(st2.trs[i])
        if not bnll_lt(bn2, bn):
            raise DescentError(f"rank measure failed to fall at step "
                               f"{len(trace) + 1}: {bn} -> {bn2}")
        m = bnll_to_ordinal(b.n, bn2, bound)
        measures.append(m)
        trace.append(
            f"step {len(trace) + 1} ndx {before.ndx} "
            f"loc {before.loc} -> {st2.trs[i].loc} "
            f"measure {ordinal_text(m)}")
        st, bn = st2, bn2
    return st, tuple(trace), tuple(measures)
