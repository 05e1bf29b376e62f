"""Executable Lamport bakery: the shipped model's `system`, compiled, under
a monitored scheduler.

`models/bakery.wfm` is the one source of truth.  `Bakery` holds the
model's `system` declaration compiled once (`system.System`: the initial
state, where every run starts unless given another, and `next`,
`shared-next`, `blok` and `done` as closures) and steps model values with
it: each process is a `TupleV` of the state sort, whose fields are read
with `get` (`a.get("pos-valid")`).  Every run is watched by the synthesized
measures: the scheduler's blocking descent must strictly decrease the
no-lock measure, and each global step must strictly decrease the
fixed-length list-of-bnl rank measure.  The measures evaluate the map's
expressions through one abstraction function per map, compiled once per
`Bakery` (`system.abstraction`); a step moves one process, so the monitor
re-measures only that process's rank entry.

Each `Bakery` keeps the steps its runs have checked as a graph
(`_StepGraph`) of one `_Node` per distinct system state, with its rank
measure, whether it is done and, once a run needs them, its witness (whose
blocker chain the no-lock measure was checked along) and its ready
indices; an arc is a step along which the rank measure fell, with its
successor and trace text.  Process values are interned, and each distinct
one, in a starting state or a stepped one, has its rank entry measured
once.  A run walks the graph and computes and checks only what no run has
reached before, so every step it takes was checked once under the current
measures.

Each measure value is validated once, where it is measured: a rank entry
(`ordinals.checked_bnl`: naturals, of the omap's `bnl_bound`) when it is
stored, and a no-lock measure when `Omap.msr` builds its ordinal.  After
that, rank bnlls are compared by plain list order and a node's ordinal is
built from its checked entries (`ordinals.checked_ordinal`) without a
second check; its text is rendered once per node.  The graph is keyed on
the compiled system, both omaps and their abstractions, and is rebuilt
empty when any of them has been rebound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Sequence

from .absgraph import map_graph, tag_graph
from .certify import DescentError
from .measure import Omap, synthesize_omap
from .model import Model, TupleV, parse_model
from .ordinals import (
    Bnl,
    Ordinal,
    OrdinalError,
    checked_bnl,
    checked_ordinal,
    o_lt,
    ordinal_text,
)
from .system import BakeryError, System, SystemState, abstraction


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


def _pick(oracle: Callable[[Sequence[int]], int], ready: list[int],
          step: Optional[int] = None) -> int:
    """The oracle's pick from a fresh copy of `ready`, which must be one
    of them; a refusal names the run's `step`, if given."""
    i = oracle(list(ready))
    if i not in ready:
        who = "the oracle" if step is None else f"step {step}"
        raise BakeryError(f"{who} chose index {i}, not a process that is "
                          f"ready: {ready}")
    return i


def choose_ready(trs: Sequence[TupleV], system: System,
                 oracle: Optional[Callable[[Sequence[int]], int]] = None,
                 msr: Optional[Callable[[TupleV], Ordinal]] = None) -> int:
    """Index of a not-done, not-blocked process.

    The blocker chain from the first undone process witnesses that a valid
    choice exists; without an oracle that witness is returned, otherwise the
    oracle picks among all valid indices, and a pick that is not one of
    them raises BakeryError.
    """
    start = system.find_undone(trs)
    if start is None:
        raise BakeryError("choose_ready called with every process done")
    witness = find_unblok(start, trs, system, msr)
    if oracle is None:
        return witness
    return _pick(oracle, _ready_indices(trs, system, witness))


# -- the checked step graph --------------------------------------------------

class _Node:
    """A checked state: its values' numbers (`key`), rank bnll, ordinal
    and text, whether it is done, its witness and ready indices once asked
    for, and `arcs`: stepped index -> (successor, text after ``step N``)."""

    __slots__ = ("state", "key", "bnll", "ordinal", "text", "done",
                 "witness", "ready", "arcs")

    def __init__(self, state: SystemState, key: tuple[int, ...],
                 bnll: list[Bnl], done: bool):
        self.state, self.key, self.bnll, self.done = state, key, bnll, done
        # every entry of bnll was checked when it was measured
        self.ordinal = checked_ordinal([n for x in bnll for n in x])
        self.text = ordinal_text(self.ordinal)
        self.witness: Optional[int] = None
        self.ready: Optional[list[int]] = None
        self.arcs: dict[int, tuple[_Node, str]] = {}


class _StepGraph:
    """The steps a `Bakery`'s runs have taken and checked.

    Every process and shared value is interned: stored once and numbered,
    and a process value's rank entry is measured and checked once
    (`_entry`).  A node (`_Node`) is a distinct `SystemState`, keyed on
    the numbers of its values.  Its witness is `choose_ready` with the
    no-lock measure, which checks the descent along the blocker chain.  An
    arc is stored only after the rank measure fell along it, so a failing
    step raises every time it is taken, and the nodes form a DAG, which
    holds no reference cycle.

    The graph holds for the objects in `basis` only.  It keeps no reference
    to its `Bakery`: the methods that compute take it as an argument.
    """

    def __init__(self, basis: tuple):
        self.basis = basis
        self.value_ids: dict[TupleV, int] = {}
        self.values: list[TupleV] = []
        self.rank: dict[int, Bnl] = {}  # value number -> its rank entry
        self.nodes: dict[tuple[int, ...], _Node] = {}

    def _intern(self, x: TupleV) -> int:
        k = self.value_ids.setdefault(x, len(self.values))
        if k == len(self.values):
            self.values.append(x)
        return k

    def _entry(self, b: "Bakery", k: int) -> Bnl:
        """Value k's rank entry, measured and checked the first time."""
        bn = self.rank.get(k)
        if bn is None:
            bn = self.rank[k] = checked_bnl(
                b.rank_omap.mk_bnl(self.values[k], b._rank_abs),
                b.rank_omap.bnl_bound)
        return bn

    def _add(self, b: "Bakery", key: tuple[int, ...],
             bnll: list[Bnl]) -> _Node:
        vals = self.values
        st = SystemState(tuple(map(vals.__getitem__, key[:-1])),
                         vals[key[-1]])
        done = b.system.find_undone(st.trs) is None
        node = self.nodes[key] = _Node(st, key, bnll, done)
        return node

    def node(self, b: "Bakery", st: SystemState) -> _Node:
        """st's node, measured, checked and added the first time it is
        seen."""
        key = (*map(self._intern, st.trs), self._intern(st.sh))
        v = self.nodes.get(key)
        if v is not None:
            return v
        if len(st.trs) != b.n:
            raise OrdinalError(
                f"bnll length {len(st.trs)} does not match {b.n}")
        return self._add(b, key, [self._entry(b, k) for k in key[:-1]])

    def choose(self, b: "Bakery", v: _Node,
               oracle: Optional[Callable[[Sequence[int]], int]],
               k: int) -> int:
        """The process to step at node v as step k + 1 of a run: its
        witness without an oracle, else the oracle's pick from a fresh list
        of its ready indices, which must be one of them."""
        if v.witness is None:
            v.witness = choose_ready(v.state.trs, b.system, None,
                                     b.nlock_msr)
        if oracle is None:
            return v.witness
        if v.ready is None:
            v.ready = _ready_indices(v.state.trs, b.system, v.witness)
        # the pick also numbers the successor's key
        return _pick(oracle, v.ready, k + 1)

    def step(self, b: "Bakery", v: _Node, i: int,
             k: int) -> tuple[_Node, str]:
        """Arc (v, i), stepped and checked the first time it is taken as
        step k + 1 of a run: (successor, trace text after ``step N``)."""
        arc = v.arcs.get(i)
        if arc is not None:
            return arc
        st2 = b.step(v.state, i)
        nums = list(v.key)
        nums[i] = self._intern(st2.trs[i])
        nums[-1] = self._intern(st2.sh)
        key = tuple(nums)
        u = self.nodes.get(key)
        # each entry is a function of its own process alone, measured once
        # per value, so only moved process i's entry can be new
        bn2 = [self._entry(b, n) for n in key[:-1]] if u is None else u.bnll
        # both bnlls have n checked members of one length, so list order
        # is bnll order
        if not bn2 < v.bnll:
            raise DescentError(
                f"rank measure failed to fall at step {k + 1}: "
                f"{v.bnll} -> {bn2}")
        if u is None:
            u = self._add(b, key, bn2)
        before, after = v.state.trs[i], u.state.trs[i]
        arc = v.arcs[i] = (
            u, f" ndx {before.get('ndx').val} loc {before.get('loc').val} "
               f"-> {after.get('loc').val} "
               f"measure {u.text}")
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
        self._rank_abs = abstraction(self.model, "rank")
        self.nlock_omap = self._synth("nlock", backend)
        self._nlock_abs = abstraction(self.model, "nlock")
        self._graph = _StepGraph(self._graph_basis())

    def _synth(self, map_name: str, backend: str) -> Omap:
        g = map_graph(self.model, map_name, backend)
        return synthesize_omap(tag_graph(self.model, map_name, g, backend))

    def nlock_msr(self, a: TupleV) -> Ordinal:
        return self.nlock_omap.msr(a, self._nlock_abs)

    def rank_bnll(self, st: SystemState) -> list[Bnl]:
        """Per-process rank measure values, in process order, not yet
        checked (a run checks each with `ordinals.checked_bnl`)."""
        return [self.rank_omap.mk_bnl(a, self._rank_abs) for a in st.trs]

    def step(self, st: SystemState, i: int) -> SystemState:
        a = st.trs[i]
        trs = list(st.trs)
        trs[i] = self.system.next(a, st.sh)
        return SystemState(tuple(trs), self.system.shared_next(st.sh, a))

    def run(self, st: Optional[SystemState] = None,
            oracle: Optional[Callable[[Sequence[int]], int]] = None,
            seed: Optional[int] = None,
            max_steps: int = 100_000) -> RunResult:
        """Step chosen processes until all are done, from `st` or else the
        system's initial state.

        Without an oracle the deterministic blocker-chain witness is
        scheduled; `seed` installs a seeded random oracle instead, and an
        oracle always gets a fresh list of the ready indices.  A monitor
        raises DescentError if the list-of-bnl rank measure ever fails to
        strictly fall, so the loop provably cannot run forever.

        The run walks this instance's graph of checked steps: a state and
        a step are computed and checked the first time any run reaches
        them, and read back after that.  The graph is keyed on `system`,
        `rank_omap`, `nlock_omap` and the maps' compiled abstractions,
        and rebuilt empty when any of them has been rebound, so every step
        taken was checked once under the current measures.  Runs on one
        instance must not overlap: the graph has no lock.
        """
        if st is None:
            st = self.system.initial
        if oracle is None and seed is not None:
            rng = random.Random(seed)
            oracle = rng.choice
        g = self._step_graph()
        v = g.node(self, st)
        measures = [v.ordinal]
        trace: list[str] = []
        while not v.done:
            if len(trace) >= max_steps:
                raise BakeryError(f"run exceeded {max_steps} steps")
            k = len(trace)
            v, text = g.step(self, v, g.choose(self, v, oracle, k), k)
            measures.append(v.ordinal)
            trace.append(f"step {len(trace) + 1}{text}")
        return RunResult(v.state, tuple(trace), tuple(measures))

    def _step_graph(self) -> _StepGraph:
        """The graph of checked steps, rebuilt empty if anything it was
        built from has been rebound since."""
        basis = self._graph_basis()
        if any(x is not y for x, y in zip(basis, self._graph.basis)):
            self._graph = _StepGraph(basis)
        return self._graph

    def _graph_basis(self) -> tuple:
        return (self.system, self.rank_omap, self.nlock_omap,
                self._rank_abs, self._nlock_abs)
