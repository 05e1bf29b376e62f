"""What a model's `system` declaration means, said once.

A model's `system` names the definitions that make up its concurrent
system: the number of `processes`, the `init` process (a function of the
process index), the `next` and `shared-next` steps, the `blok` (waits-on)
predicate and `done`.  Everything that reads them reads them here:

  relation_parts         a map's concrete relation, as a symbolic
                         hypothesis over free state variables; the graph
                         builder (``absgraph``) and the certifier
                         (``certify``) both enumerate it
  System, SystemState    the same definitions compiled to closures over
                         model values, for monitored runs (``bakery``), and
                         the initial state: process k is ``init(k)`` for
                         k = 1..processes, the shared state its sort's
                         default
  initial_state          that initial state alone, compiling only `init`
  initial_nodes          a step map's start: its initial processes' nodes,
                         which seed its graph (``absgraph``) and root the
                         certifier's sweep (``certify``)
  abstraction            a map's node and measure expressions, compiled
                         to one function of a state

This module imports from ``model`` only, so the relation that the
certifier checks shares no code with graph construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .model import (
    And, Expr, MapDecl, Model, ModelError, Not, Sort, SystemDecl, TupleV,
    Value, Var, canonical_sorted, code_value, compile_expr, default_value,
    subst_vars)


class BakeryError(Exception):
    """A scheduler precondition or postcondition failed."""


_SHARED_VAR = "@sh"
_OTHER_VAR = "@oth"


def _system_decl(model: Model) -> SystemDecl:
    if model.system is None:
        raise ModelError(f"model '{model.name}' declares no system")
    return model.system


def relation_parts(model: Model, map_name: str
                   ) -> tuple[MapDecl, Expr, Expr, dict[str, Sort]]:
    """The concrete relation a map abstracts over.

    Returns (map decl, relation hypothesis, destination-state expression,
    query variable sorts).  The source state is the map's own variable x.
    For a step map the destination is ``next(x, sh)`` over a free shared
    state sh, from an x that is not done; for a blocking map it is a
    second free state y with ``blok(x, y)``.  The hypothesis also requires
    both ends to satisfy the map's domain, so a pair that leaves the
    domain is not in the relation.
    """
    mp = model.map_decl(map_name)
    sysd = _system_decl(model)
    x = Var(mp.var)
    if mp.kind == "step":
        dst: Expr = model.define(sysd.next).apply(x, Var(_SHARED_VAR))
        moves: Expr = Not(model.define(sysd.done).apply(x))
        free = {_SHARED_VAR: model.record_sort(sysd.shared_sort_name)}
    else:
        dst = Var(_OTHER_VAR)
        moves = model.define(sysd.blok).apply(x, dst)
        free = {_OTHER_VAR: mp.state_sort}
    rel = And((moves, mp.domain, subst_vars(mp.domain, {mp.var: dst})))
    return mp, rel, dst, {mp.var: mp.state_sort, **free}


def abstraction(model: Model, map_name: str
                ) -> Callable[[Value], tuple[Value, dict[str, tuple[int, ...]]]]:
    """A map's abstraction, compiled once: a function from a state to its
    node and its measures' values, each a tuple of ints, by measure name in
    declared order."""
    mp = model.map_decl(map_name)
    var = mp.var
    node = compile_expr(mp.node)
    measures = [(name, compile_expr(e)) for name, e in mp.measures]

    def abstract(x: Value) -> tuple[Value, dict[str, tuple[int, ...]]]:
        env = {var: x}
        return node(env), {
            name: tuple(v.val for _, v in m(env).items)  # type: ignore
            for name, m in measures}

    return abstract


@dataclass(frozen=True)
class SystemState:
    """Every process, each a value of the state sort, and the shared state."""

    trs: tuple[TupleV, ...]
    sh: TupleV


def initial_state(model: Model) -> SystemState:
    """The system's initial state, compiling only `init`: process k is
    ``init(k)`` for k = 1..processes, the shared state its sort's
    default."""
    sy = _system_decl(model)
    d = model.define(sy.init)
    (i, index), = d.params
    init = compile_expr(d.body)
    return SystemState(
        tuple(init({i: code_value(index, k)})
              for k in range(1, sy.processes + 1)),
        default_value(model.record_sort(sy.shared_sort_name)))


def initial_nodes(model: Model, map_name: str) -> tuple[Value, ...]:
    """The nodes of the initial state's processes under a map, distinct and
    canonically ordered."""
    mp = model.map_decl(map_name)
    node = compile_expr(mp.node)
    return tuple(canonical_sorted(
        {node({mp.var: x}) for x in initial_state(model).trs}))


@dataclass(frozen=True)
class System:
    """A model's `system` declaration compiled to closures over model values:
    the initial state, and `next`, `shared-next`, `blok` and `done` as
    Python functions."""

    initial: SystemState
    next: Callable[[TupleV, TupleV], TupleV]
    shared_next: Callable[[TupleV, TupleV], TupleV]
    blok: Callable[[TupleV, TupleV], bool]
    done: Callable[[TupleV], bool]

    @classmethod
    def compile(cls, model: Model) -> "System":
        sy = _system_decl(model)

        def define(name: str):
            d = model.define(name)
            return compile_expr(d.body), [p for p, _ in d.params]

        nxt, (a1, sh1) = define(sy.next)
        shn, (sh2, a2) = define(sy.shared_next)
        blok, (a3, b3) = define(sy.blok)
        done, (a4,) = define(sy.done)
        return cls(initial_state(model),
                   lambda a, sh: nxt({a1: a, sh1: sh}),
                   lambda sh, a: shn({sh2: sh, a2: a}),
                   lambda a, b: blok({a3: a, b3: b}).val,
                   lambda a: done({a4: a}).val)

    def blocker(self, a: TupleV, trs: Sequence[TupleV]) -> Optional[int]:
        """Smallest index of a process a is waiting on, its own entry
        included, or None when a is not blocked."""
        blok = self.blok
        for i, b in enumerate(trs):
            if blok(a, b):
                return i
        return None

    def find_undone(self, trs: Sequence[TupleV]) -> Optional[int]:
        """Smallest index of a not-done process, or None when all finished."""
        for i, a in enumerate(trs):
            if not self.done(a):
                return i
        return None
