"""Executable Lamport bakery: the shipped model's `system`, compiled, under
a monitored scheduler.

`models/bakery.wfm` is the one source of truth.  `Bakery` holds the
model's `system` declaration compiled once (`system.System`: `next`,
`shared-next`, `blok` and `done` as closures) and steps model values with
it: each process is a `TupleV` of the state sort, whose fields are read
with `get` (`a.get("pos-valid")`).  Every run is watched by the synthesized
measures: the scheduler's blocking descent must strictly decrease the
no-lock measure, and each global step must strictly decrease the
fixed-length list-of-bnl rank measure.  The measures evaluate the map's
expressions through closures compiled once per `Bakery`
(`system.abstraction_functions`); a step moves one process, so the monitor
re-measures only that process's rank entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Sequence

from .absgraph import map_graph, tag_graph
from .certify import DescentError
from .measure import Omap, synthesize_omap
from .model import Model, NatV, TupleV, parse_model
from .ordinals import (
    Bnl,
    Ordinal,
    bnll_lt,
    bnll_to_ordinal,
    o_lt,
    ordinal_text,
)
from .system import (
    BakeryError, System, SystemState, abstraction_functions)


def bakery_text() -> str:
    """Source text of the bundled bakery model."""
    return (resources.files("wfgraph") / "models" / "bakery.wfm").read_text()


def bakery_model(n: int = 2, r: int = 2, w: int = 3) -> Model:
    return parse_model(bakery_text(), {"n": n, "r": r, "w": w})


# -- scheduling --------------------------------------------------------------

def find_unblok(n: int, trs: Sequence[TupleV], system: System,
                msr: Optional[Callable[[TupleV], Ordinal]] = None) -> int:
    """Follow the chain of smallest blockers from index n until a process
    that is free to move.

    The chain is finite because the no-lock measure strictly falls along
    every blocking arc; pass that measure as `msr` to have each hop checked.
    The result is neither done nor blocked (done processes cannot block, so
    the chain never reaches one).
    """
    if system.done(trs[n]):
        raise BakeryError(f"find_unblok started at done index {n}")
    start, seen = n, {n}
    m = None  # the start's measure, taken at the first hop
    while (k := system.blocker(trs[n], trs)) is not None:
        if msr is not None:
            if m is None:
                m = msr(trs[n])
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
    if n != start and system.done(trs[n]):
        raise BakeryError(f"find_unblok reached done index {n}")
    return n


def choose_ready(trs: Sequence[TupleV], system: System,
                 oracle: Optional[Callable[[Sequence[int]], int]] = None,
                 msr: Optional[Callable[[TupleV], Ordinal]] = None) -> int:
    """Index of a not-done, not-blocked process.

    The blocker chain from the first undone process witnesses that a valid
    choice exists; without an oracle that witness is returned, otherwise the
    oracle picks among all valid indices.
    """
    start = system.find_undone(trs)
    if start is None:
        raise BakeryError("choose_ready called with every process done")
    witness = find_unblok(start, trs, system, msr)
    if oracle is None:
        return witness
    # the witness is ready by find_unblok's postcondition; test the others
    return oracle([i for i, a in enumerate(trs) if i == witness or
                   not system.done(a) and system.blocker(a, trs) is None])


# -- measured runs -----------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    final: SystemState
    trace: tuple[str, ...]
    measures: tuple[Ordinal, ...]

    @property
    def steps(self) -> int:
        return len(self.trace)


class Bakery:
    """A bakery instance at fixed parameters: the model's system compiled
    once, and the rank and no-lock measures synthesized once up front.

    >>> b = Bakery(n=2, r=1)
    >>> res = b.run(seed=7)
    >>> all(b.system.done(tr) for tr in res.final.trs)
    True
    """

    def __init__(self, n: int = 2, r: int = 2, w: int = 3,
                 backend: str = "exhaustive"):
        if n < 1 or r < 1 or w < 1:
            raise BakeryError("parameters must be positive")
        self.n, self.r, self.w = n, r, w
        self.model = bakery_model(n, r, w)
        self.system = System.compile(self.model)
        self.rank_omap = self._synth("rank", backend)
        self._rank_e, self._rank_o = abstraction_functions(self.model, "rank")
        self.nlock_omap = self._synth("nlock", backend)
        self._nlock_e, self._nlock_o = abstraction_functions(
            self.model, "nlock")

    def _synth(self, map_name: str, backend: str) -> Omap:
        g = map_graph(self.model, map_name, backend)
        return synthesize_omap(tag_graph(self.model, map_name, g, backend))

    def init(self) -> SystemState:
        """n copies of the model's `init` process, with indices 1..n, and
        the shared state at its sort's default value."""
        width = self.system.init.get("ndx").width
        return SystemState(
            tuple(TupleV(tuple((k, NatV(i + 1, width) if k == "ndx" else v)
                               for k, v in self.system.init.items))
                  for i in range(self.n)),
            self.system.sh0)

    def nlock_msr(self, a: TupleV) -> Ordinal:
        return self.nlock_omap.msr(a, self._nlock_e, self._nlock_o)

    def rank_bnll(self, st: SystemState) -> list[Bnl]:
        """Per-process rank measure values, in process order."""
        return [self.rank_omap.mk_bnl(a, self._rank_e, self._rank_o)
                for a in st.trs]

    def step(self, st: SystemState, i: int) -> SystemState:
        a = st.trs[i]
        trs = list(st.trs)
        trs[i] = self.system.next(a, st.sh)
        return SystemState(tuple(trs), self.system.shared_next(st.sh, a))

    def run(self, st: Optional[SystemState] = None,
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
        while self.system.find_undone(st.trs) is not None:
            if len(trace) >= max_steps:
                raise BakeryError(f"run exceeded {max_steps} steps")
            i = choose_ready(st.trs, self.system, oracle, self.nlock_msr)
            before = st.trs[i]
            st2 = self.step(st, i)
            # only process i moved, and each entry is a function of its
            # own process alone: re-measure that one entry
            bn2 = list(bn)
            bn2[i] = self.rank_omap.mk_bnl(st2.trs[i],
                                           self._rank_e, self._rank_o)
            if not bnll_lt(bn2, bn):
                raise DescentError(
                    f"rank measure failed to fall at step {len(trace)}: "
                    f"{bn} -> {bn2}")
            m = bnll_to_ordinal(self.n, bn2, bound)
            measures.append(m)
            # fields are read with get: on CPython 3.11 an attribute-view
            # read first fails a normal lookup, which costs ~2 us
            trace.append(
                f"step {len(trace) + 1} ndx {before.get('ndx').val} "
                f"loc {before.get('loc').val} -> {st2.trs[i].get('loc').val} "
                f"measure {ordinal_text(m)}")
            st, bn = st2, bn2
        return RunResult(st, tuple(trace), tuple(measures))
