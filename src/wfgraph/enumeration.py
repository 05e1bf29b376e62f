"""Enumeration of every value a term takes under a hypothesis.

``compute_finite_values`` asks: over all assignments to the declared
variables satisfying ``hyp``, which distinct values does ``trm`` take?  It
returns all of them or refuses, on either backend alike: a partial value
set abstracts nothing.  A query whose values reach ``VALUE_BOUND`` (read
at call time, one past the exhaustive row cap, so only a SAT query can)
raises NotTotal, and an exhaustive table past the row cap raises
``veceval.Capacity``; both name the query.

``reach`` asks for the values of a term (src, dst, ...) under ``hyp``
whose source node a set of seed nodes reaches through the arcs (src, dst);
the later items (a graph builder's order flags) ride along.  Both backends
walk one image's arcs first in, first out, in canonical order, and refuse
with NotTotal once the reached arcs (not values) reach ``VALUE_BOUND``.

Backends:
  exhaustive  vectorized sweep over the variable domains (numpy); a reach
              sweeps the relation's whole image once
  sat         bit-blast to CNF once, load the built-in solver once and
              enumerate models, blocking each found output pattern; a
              reach enumerates each reachable node's, its ``src`` bits
              assumed (``DpllSolver.solve``), then decodes them once

Evaluation is independent per backend: numpy columns on one side, CNF and
a CDCL solver on the other.  Decoding and canonical order are shared: every
backend hands one integer code column per scalar leaf of ``trm`` to
``veceval.distinct_rows``, which returns one ``veceval.DistinctRows`` (per
top-level item, its distinct values and an integer id column).  The
exhaustive backend's columns are its table's; the SAT backend's are the
output bits of each model found, which also make its blocking clause
(``Circuit.output_columns``).  Either backend's leaves carry their model
sorts, so an output natural too wide for an int64 code is refused from
them (``veceval.int64_codes``): on SAT before the first solve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .bitblast import Circuit, bitblast, bitval_lits, value_lits
from .model import Expr, Sort, TupleE, Value, canonical_sorted
from .sat import DpllSolver
from .veceval import (
    DEFAULT_ROW_CAP, Capacity, DistinctRows, distinct_rows, exhaustive_values,
    int64_codes)

BACKENDS = ("exhaustive", "sat")
VALUE_BOUND = DEFAULT_ROW_CAP + 1


class NotTotal(ValueError):
    """An enumeration reached its bound before exhausting the value set."""

    def __init__(self, what: str, num: int):
        super().__init__(f"{what} enumeration exceeded the bound of {num} "
                         f"values; the abstraction is too large")
        self.what = what
        self.num = num


@dataclass(frozen=True)
class EnumResult:
    values: DistinctRows  # every value, distinct, canonically ordered
    solve_calls: int


def _check_backend(backend: str):
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


def _exhaustive_values(var_sorts: dict[str, Sort], hyp: Expr, trm: Expr,
                       what: str) -> DistinctRows:
    try:
        return exhaustive_values(var_sorts, hyp, trm)
    except Capacity as err:
        raise Capacity(err.rows, err.cap, what) from None


def _load(var_sorts: dict[str, Sort], hyp: Expr, trm: Expr
          ) -> tuple[Circuit, DpllSolver]:
    """``trm`` under ``hyp`` bitblasted once and loaded into one solver,
    ``hyp`` asserted.  A too-wide output is refused before any solve."""
    circuit = bitblast(trm, hyp, var_sorts)
    int64_codes(circuit.output)
    solver = DpllSolver(circuit.num_vars)
    for clause in circuit.clauses:
        solver.add_clause(clause)
    solver.add_clause([circuit.hyp_lit])
    return circuit, solver


def _models(circuit: Circuit, solver: DpllSolver,
            assumptions: Sequence[int] = ()) -> Iterator[list[bool]]:
    """The output bits of each model under ``assumptions``, each pattern
    new: it is blocked as it is found, and the solver keeps the blocking
    clauses.  The one SAT enumeration loop; a caller stops it at its
    bound."""
    outputs = circuit.outputs
    while solver.solve(assumptions):
        model = solver.model
        bits = [model[l] if l > 0 else not model[-l] for l in outputs]
        solver.add_clause([-l if b else l for l, b in zip(outputs, bits)])
        yield bits


def compute_finite_values(var_sorts: dict[str, Sort], hyp: Expr, trm: Expr,
                          backend: str = "exhaustive",
                          what: str = "query") -> EnumResult:
    """Every value of ``trm`` under ``hyp``, or NotTotal (or Capacity)
    naming the query ``what``.  ``solve_calls`` counts one probe past the
    values: the SAT backend's last solve is the one that finds nothing."""
    _check_backend(backend)
    bound = VALUE_BOUND
    if backend == "exhaustive":
        values = _exhaustive_values(var_sorts, hyp, trm, what)
    else:
        circuit, solver = _load(var_sorts, hyp, trm)
        rows = list(islice(_models(circuit, solver), bound))
        values = distinct_rows(circuit.output_columns(rows), len(rows))
    if len(values) >= bound:
        raise NotTotal(what, bound)
    return EnumResult(values, len(values) + 1)


def reach(var_sorts: dict[str, Sort], hyp: Expr, trm: TupleE,
          seeds: Iterable[Value], backend: str = "exhaustive",
          what: str = "query") -> list[Value]:
    """The values of ``trm`` under ``hyp`` whose source the seeds reach,
    or NotTotal naming the query ``what`` once the reached arcs reach
    ``VALUE_BOUND`` (or Capacity).

    ``trm``'s first item is the source node and its second the
    destination node; any later items (flags) ride along.  An arc (u, v)
    is a source and a destination that some value pairs; the bound counts
    arcs, not values.  SAT enumerates each reachable node once, in the
    order found, its source bits assumed (a destination's bits on the
    source literals are its node), and decodes all its models once.  Both
    backends' images are walked nodes first in, first out, seeds and each
    node's values in canonical order, so both list the same values."""
    _check_backend(backend)
    bound = VALUE_BOUND
    order = canonical_sorted(set(seeds))
    if backend == "exhaustive":
        image = _exhaustive_values(var_sorts, hyp, trm, what)
    else:
        circuit, solver = _load(var_sorts, hyp, trm)
        (_, src_bits), *_ = circuit.output.items
        src = bitval_lits(src_bits)  # dst's bits follow, as many
        todo = deque(tuple(value_lits(src_bits, u)) for u in order)
        reached = set(todo)
        rows: list[list[bool]] = []
        pairs: set[tuple] = set()
        while todo:
            node = todo.popleft()
            for bits in _models(circuit, solver, node):
                rows.append(bits)
                dst = tuple(l if b else -l
                            for l, b in zip(src, bits[len(src):]))
                if (node, dst) not in pairs:
                    pairs.add((node, dst))
                    if len(pairs) >= bound:
                        raise NotTotal(what, bound)
                if dst not in reached:
                    reached.add(dst)
                    todo.append(dst)
        image = distinct_rows(circuit.output_columns(rows), len(rows))
    by_src: dict[Value, list[Value]] = {}
    for q in image:
        by_src.setdefault(q.items[0][1], []).append(q)
    seen, queue = set(order), deque(order)
    found: list[Value] = []
    arcs = 0
    while queue:
        u = queue.popleft()
        succ: set[Value] = set()
        for q in by_src.get(u, ()):
            found.append(q)
            v = q.items[1][1]  # type: ignore[union-attr]
            succ.add(v)
            if v not in seen:
                seen.add(v)
                queue.append(v)
        arcs += len(succ)
        if arcs >= bound:
            raise NotTotal(what, bound)
    return found
