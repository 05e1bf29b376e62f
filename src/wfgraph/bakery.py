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

Each `Bakery` keeps the steps its runs have checked as a graph
(`_StepGraph`).  A node is a distinct system state, with its rank measure,
whether it is done and, once a run needs them, its witness (whose blocker
chain the no-lock measure was checked along) and its ready indices; an
arc is a step along which the rank measure fell, with its successor and
trace text.  Process values are interned, and each distinct one has its
rank entry measured once.  A run walks the graph and computes and checks
only what no run has reached before, so every step it takes was checked
once under the current measures.  The graph is keyed on the compiled
system, both omaps and their evaluators, and is rebuilt empty when any of
them has been rebound.
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


def bakery_model(n: Optional[int] = None, r: Optional[int] = None,
                 w: Optional[int] = None) -> Model:
    """The bundled bakery; a parameter left unset keeps the model's own
    default, from its `params` declaration."""
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


def _ready_indices(trs: Sequence[TupleV], system: System,
                   witness: int) -> list[int]:
    """The valid choices: `witness`, which find_unblok returned, and every
    other index that is neither done nor blocked."""
    # the witness is ready by find_unblok's postcondition; test the others
    return [i for i, a in enumerate(trs) if i == witness or
            not system.done(a) and system.blocker(a, trs) is None]


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
    return oracle(_ready_indices(trs, system, witness))


# -- the checked step graph --------------------------------------------------

class _StepGraph:
    """The steps a `Bakery`'s runs have taken and checked.

    Every process and shared value is interned: stored once and numbered,
    and a process value's rank entry is measured once.  A node is a
    distinct `SystemState`, numbered the first time a run reaches it and
    keyed on the numbers of its values.  It keeps its rank bnll and that
    bnll's ordinal, whether it is done and, computed the first time a run
    asks, its witness (`choose_ready` with the no-lock measure, which
    checks the descent along the blocker chain) and its ready indices.  An
    arc (node, i) keeps the successor's number and the trace text after
    ``step N``; it is stored only after the rank measure fell along it, so
    a failing step raises every time it is taken.

    The graph holds for the objects in `basis` only.  It keeps no reference
    to its `Bakery`: the methods that compute take it as an argument.
    """

    def __init__(self, basis: tuple):
        self.basis = basis
        self.value_ids: dict[TupleV, int] = {}
        self.values: list[TupleV] = []
        self.rank: dict[int, Bnl] = {}  # value number -> its rank entry
        self.ids: dict[tuple[int, ...], int] = {}
        self.keys: list[tuple[int, ...]] = []
        self.states: list[SystemState] = []
        self.bnll: list[list[Bnl]] = []
        self.ordinal: list[Ordinal] = []
        self.done: list[bool] = []
        self.witness: list[Optional[int]] = []
        self.ready: list[Optional[list[int]]] = []
        self.arcs: list[dict[int, tuple[int, str]]] = []

    def _intern(self, x: TupleV) -> int:
        k = self.value_ids.setdefault(x, len(self.values))
        if k == len(self.values):
            self.values.append(x)
        return k

    def node(self, b: "Bakery", st: SystemState) -> int:
        """Number of st, measured and added the first time it is seen."""
        key = (*map(self._intern, st.trs), self._intern(st.sh))
        v = self.ids.get(key)
        return self._add(b, key, b.rank_bnll(st)) if v is None else v

    def _add(self, b: "Bakery", key: tuple[int, ...], bn: list[Bnl]) -> int:
        m = bnll_to_ordinal(b.n, bn, b.rank_omap.bnl_bound)
        vals = self.values
        st = SystemState(tuple(map(vals.__getitem__, key[:-1])),
                         vals[key[-1]])
        v = self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.states.append(st)
        self.bnll.append(bn)
        self.ordinal.append(m)
        self.done.append(b.system.find_undone(st.trs) is None)
        self.witness.append(None)
        self.ready.append(None)
        self.arcs.append({})
        return v

    def choose(self, b: "Bakery", v: int,
               oracle: Optional[Callable[[Sequence[int]], int]]) -> int:
        """The process to step at node v: its witness without an oracle,
        else the oracle's pick from a fresh list of its ready indices."""
        w = self.witness[v]
        if w is None:
            w = self.witness[v] = choose_ready(
                self.states[v].trs, b.system, None, b.nlock_msr)
        if oracle is None:
            return w
        ready = self.ready[v]
        if ready is None:
            ready = self.ready[v] = _ready_indices(
                self.states[v].trs, b.system, w)
        return oracle(list(ready))

    def step(self, b: "Bakery", v: int, i: int, k: int) -> tuple[int, str]:
        """Arc (v, i), stepped and checked the first time it is taken as
        step k + 1 of a run: (successor, trace text after ``step N``)."""
        arc = self.arcs[v].get(i)
        if arc is not None:
            return arc
        st, bn = self.states[v], self.bnll[v]
        if not 0 <= i < len(st.trs):  # i also numbers the successor's key
            raise BakeryError(f"step {k + 1} chose index {i}, not a process")
        st2 = b.step(st, i)
        nums = list(self.keys[v])
        nums[i] = self._intern(st2.trs[i])
        nums[-1] = self._intern(st2.sh)
        key = tuple(nums)
        u = self.ids.get(key)
        if u is None:
            # only process i moved, and each entry is a function of its
            # own process alone: measure that one entry, once per value
            bn2 = list(bn)
            bn2[i] = self.rank.get(key[i])
            if bn2[i] is None:
                bn2[i] = self.rank[key[i]] = b.rank_omap.mk_bnl(
                    st2.trs[i], b._rank_e, b._rank_o)
        else:
            bn2 = self.bnll[u]
        if not bnll_lt(bn2, bn):
            raise DescentError(
                f"rank measure failed to fall at step {k}: {bn} -> {bn2}")
        if u is None:
            u = self._add(b, key, bn2)
        before, after = st.trs[i], self.states[u].trs[i]
        arc = self.arcs[v][i] = (
            u, f" ndx {before.get('ndx').val} loc {before.get('loc').val} "
               f"-> {after.get('loc').val} "
               f"measure {ordinal_text(self.ordinal[u])}")
        return arc


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

    def __init__(self, n: Optional[int] = None, r: Optional[int] = None,
                 w: Optional[int] = None, backend: str = "exhaustive"):
        if any(p is not None and p < 1 for p in (n, r, w)):
            raise BakeryError("parameters must be positive")
        self.model = bakery_model(n, r, w)
        self.n, self.r, self.w = (dict(self.model.params)[k] for k in "nrw")
        self.system = System.compile(self.model)
        self.rank_omap = self._synth("rank", backend)
        self._rank_e, self._rank_o = abstraction_functions(self.model, "rank")
        self.nlock_omap = self._synth("nlock", backend)
        self._nlock_e, self._nlock_o = abstraction_functions(
            self.model, "nlock")
        self._graph = _StepGraph(self._graph_basis())

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
        scheduled; `seed` installs a seeded random oracle instead, and an
        oracle always gets a fresh list of the ready indices.  A monitor
        raises DescentError if the list-of-bnl rank measure ever fails to
        strictly fall, so the loop provably cannot run forever.

        The run walks this instance's graph of checked steps: a state and
        a step are computed and checked the first time any run reaches
        them, and read back after that.  The graph is keyed on `system`,
        `rank_omap`, `nlock_omap` and the measures' compiled evaluators,
        and rebuilt empty when any of them has been rebound, so every step
        taken was checked once under the current measures.  Runs on one
        instance must not overlap: the graph has no lock.
        """
        if st is None:
            st = self.init()
        if oracle is None and seed is not None:
            rng = random.Random(seed)
            oracle = rng.choice
        g = self._step_graph()
        v = g.node(self, st)
        measures = [g.ordinal[v]]
        trace: list[str] = []
        while not g.done[v]:
            if len(trace) >= max_steps:
                raise BakeryError(f"run exceeded {max_steps} steps")
            v, text = g.step(self, v, g.choose(self, v, oracle), len(trace))
            measures.append(g.ordinal[v])
            trace.append(f"step {len(trace) + 1}{text}")
        return RunResult(g.states[v], tuple(trace), tuple(measures))

    def _step_graph(self) -> _StepGraph:
        """The graph of checked steps, rebuilt empty if anything it was
        built from has been rebound since."""
        basis = self._graph_basis()
        if any(x is not y for x, y in zip(basis, self._graph.basis)):
            self._graph = _StepGraph(basis)
        return self._graph

    def _graph_basis(self) -> tuple:
        return (self.system, self.rank_omap, self.nlock_omap,
                self._rank_e, self._rank_o, self._nlock_e, self._nlock_o)
