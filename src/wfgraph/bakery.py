"""Executable Lamport bakery: a native mirror of the shipped model plus a
monitored scheduler.

`models/bakery.wfm` is the source of truth; the dataclasses and transition
functions here replay the same semantics on plain Python values, so a step
itself evaluates no model expression.  The two routes are cross-checked
against each other in the test suite, and every run is watched by the
synthesized measures: the scheduler's blocking descent must strictly
decrease the no-lock measure, and each global step must strictly decrease
the fixed-length list-of-bnl rank measure.  The measures evaluate the map's
expressions through closures compiled once per `Bakery`; a step moves one
process, so the monitor re-measures only that process's rank entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Optional, Sequence

from .absgraph import map_graph, tag_graph
from .certify import DescentError, abstraction_functions
from .measure import Omap, synthesize_omap
from .model import (
    FALSE,
    TRUE,
    BoolSort,
    Model,
    NatV,
    TupleV,
    Value,
    parse_model,
)
from .ordinals import (
    Bnl,
    Ordinal,
    bnll_lt,
    bnll_to_ordinal,
    o_lt,
    ordinal_text,
)


class BakeryError(Exception):
    """A scheduler precondition or postcondition failed."""


def bakery_text() -> str:
    """Source text of the bundled bakery model."""
    return (resources.files("wfgraph") / "models" / "bakery.wfm").read_text()


def bakery_model(n: int = 2, r: int = 2, w: int = 3) -> Model:
    return parse_model(bakery_text(), {"n": n, "r": r, "w": w})


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
    """Smallest index of a not-done process, or None when all finished."""
    for i, a in enumerate(trs):
        if not a.done:
            return i
    return None


def pick_blok(a: BakeTr, trs: Sequence[BakeTr]) -> int:
    """Smallest index of a process a is waiting on."""
    for i, b in enumerate(trs):
        if bake_tr_blok(a, b):
            return i
    raise BakeryError("pick_blok called on an unblocked process")


def find_unblok(n: int, trs: Sequence[BakeTr], sh: BakeSh,
                msr: Optional[Callable[[BakeTr], Ordinal]] = None) -> int:
    """Follow the chain of smallest blockers from index n until a process
    that is free to move.

    The chain is finite because the no-lock measure strictly falls along
    every blocking arc; pass that measure as `msr` to have each hop checked.
    The result is neither done nor blocked (done processes cannot block, so
    the chain never reaches one).
    """
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


def choose_ready(trs: Sequence[BakeTr], sh: BakeSh,
                 oracle: Optional[Callable[[Sequence[int]], int]] = None,
                 msr: Optional[Callable[[BakeTr], Ordinal]] = None) -> int:
    """Index of a not-done, not-blocked process.

    The blocker chain from the first undone process witnesses that a valid
    choice exists; without an oracle that witness is returned, otherwise the
    oracle picks among all valid indices.
    """
    start = find_undone(trs)
    if start is None:
        raise BakeryError("choose_ready called with every process done")
    witness = find_unblok(start, trs, sh, msr)
    if oracle is None:
        return witness
    valid = [i for i, a in enumerate(trs)
             if not a.done and not bake_blok(a, trs)]
    assert witness in valid
    return oracle(valid)


# -- measured runs -----------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    final: BakeSt
    trace: tuple[str, ...]
    measures: tuple[Ordinal, ...]

    @property
    def steps(self) -> int:
        return len(self.trace)


class Bakery:
    """A bakery instance at fixed parameters, with the rank and no-lock
    measures synthesized once up front.

    >>> b = Bakery(n=2, r=1)
    >>> res = b.run(seed=7)
    >>> all(tr.done for tr in res.final.trs)
    True
    """

    def __init__(self, n: int = 2, r: int = 2, w: int = 3,
                 backend: str = "exhaustive"):
        if n < 1 or r < 1 or w < 1:
            raise BakeryError("parameters must be positive")
        self.n, self.r, self.w = n, r, w
        self.model = bakery_model(n, r, w)
        # per field of the model's proc sort: its name, the BakeTr
        # attribute, and its width with a cache of the NatV leaves built so
        # far (None for a boolean field); process values share these leaves
        self._fields = tuple(
            (name, name.replace("-", "_"),
             None if isinstance(fs, BoolSort) else (fs.width, {}))
            for name, fs in self.model.record_sort("proc").fields)
        self.rank_omap = self._synth("rank", backend)
        self._rank_e, self._rank_o = abstraction_functions(self.model, "rank")
        self.nlock_omap = self._synth("nlock", backend)
        self._nlock_e, self._nlock_o = abstraction_functions(
            self.model, "nlock")

    def _synth(self, map_name: str, backend: str) -> Omap:
        g = map_graph(self.model, map_name, backend)
        return synthesize_omap(tag_graph(self.model, map_name, g, backend))

    def init(self) -> BakeSt:
        return bake_init(self.n, self.r)

    def tr_value(self, a: BakeTr) -> Value:
        """The process as a model value, for the abstraction functions.

        Leaves are shared: a NatV is built (and range-checked) the first
        time its field takes that raw value, and reused after."""
        items = []
        for name, attr, nat in self._fields:
            v = getattr(a, attr)
            if nat is None:
                leaf = TRUE if v else FALSE
            else:
                width, leaves = nat
                leaf = leaves.get(v)
                if leaf is None:
                    leaf = leaves[v] = NatV(v, width)
            items.append((name, leaf))
        return TupleV(tuple(items))

    def nlock_msr(self, a: BakeTr) -> Ordinal:
        return self.nlock_omap.msr(self.tr_value(a),
                                   self._nlock_e, self._nlock_o)

    def rank_bnll(self, st: BakeSt) -> list[Bnl]:
        """Per-process rank measure values, in process order."""
        return [self.rank_omap.mk_bnl(self.tr_value(a),
                                      self._rank_e, self._rank_o)
                for a in st.trs]

    def run_measure(self, st: BakeSt) -> Ordinal:
        return bnll_to_ordinal(self.n, self.rank_bnll(st),
                               self.rank_omap.bnl_bound)

    def step(self, st: BakeSt, i: int) -> BakeSt:
        a = st.trs[i]
        trs = list(st.trs)
        trs[i] = bake_tr_next(a, st.sh, self.n, self.w)
        return BakeSt(tuple(trs), bake_sh_next(st.sh, a))

    def run(self, st: Optional[BakeSt] = None,
            oracle: Optional[Callable[[Sequence[int]], int]] = None,
            seed: Optional[int] = None,
            max_steps: int = 100_000) -> RunResult:
        """Step chosen processes until all are done.

        Without an oracle the deterministic blocker-chain witness is
        scheduled; `seed` installs a seeded random oracle instead.  A
        monitor raises DescentError if the list-of-bnl rank measure ever
        fails to strictly fall, so the loop provably cannot run forever.
        """
        if st is None:
            st = self.init()
        if oracle is None and seed is not None:
            rng = random.Random(seed)
            oracle = rng.choice
        bn = self.rank_bnll(st)
        bound = self.rank_omap.bnl_bound
        measures = [bnll_to_ordinal(self.n, bn, bound)]
        trace: list[str] = []
        while not all(a.done for a in st.trs):
            if len(trace) >= max_steps:
                raise BakeryError(f"run exceeded {max_steps} steps")
            i = choose_ready(st.trs, st.sh, oracle, self.nlock_msr)
            before = st.trs[i]
            st2 = self.step(st, i)
            # only process i moved, and each entry is a function of its
            # own process alone: re-measure that one entry
            bn2 = list(bn)
            bn2[i] = self.rank_omap.mk_bnl(self.tr_value(st2.trs[i]),
                                           self._rank_e, self._rank_o)
            if not bnll_lt(bn2, bn):
                raise DescentError(
                    f"rank measure failed to fall at step {len(trace)}: "
                    f"{bn} -> {bn2}")
            m = bnll_to_ordinal(self.n, bn2, bound)
            measures.append(m)
            trace.append(
                f"step {len(trace) + 1} ndx {before.ndx} "
                f"loc {before.loc} -> {st2.trs[i].loc} "
                f"measure {ordinal_text(m)}")
            st, bn = st2, bn2
        return RunResult(st, tuple(trace), tuple(measures))
