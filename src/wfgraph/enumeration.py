"""Bounded enumeration of the values a term takes under a hypothesis.

``compute_finite_values`` asks: over all assignments to the declared
variables satisfying ``hyp``, which distinct values does ``trm`` take?  It
stops after ``num`` values.  ``is_total`` is True exactly when enumeration
finished by exhausting the value set (the final probe found nothing new),
so a result that fills the budget precisely reports is_total=False even if
nothing further exists.  Every graph, tag and certificate query passes
``VALUE_BOUND``, one past the exhaustive row cap, and raises NotTotal on a
cutoff: only a SAT query with more values than a table may hold is cut off.

Backends:
  exhaustive  vectorized sweep over the variable domains (numpy)
  sat         bit-blast to CNF, enumerate models with the built-in solver,
              blocking each found output pattern

Evaluation is independent per backend: numpy columns on one side, CNF and
a CDCL solver on the other.  Decoding and canonical order are shared: every
backend hands one integer code column per scalar leaf of ``trm`` to
``veceval.distinct_rows``, which returns one ``veceval.DistinctRows`` (per
top-level item, its distinct values and an integer id column).  The
exhaustive backend's columns are its table's; the SAT backend's are the
output bits of each model found, which also make its blocking clause
(``Circuit.output_columns``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitblast import bitblast
from .model import Expr, Sort
from .sat import DpllSolver
from .veceval import (
    DEFAULT_ROW_CAP, DistinctRows, distinct_rows, exhaustive_values)

BACKENDS = ("exhaustive", "sat")
VALUE_BOUND = DEFAULT_ROW_CAP + 1


@dataclass(frozen=True)
class EnumResult:
    values: DistinctRows  # distinct, canonically ordered
    is_total: bool
    solve_calls: int


def compute_finite_values(var_sorts: dict[str, Sort], hyp: Expr, trm: Expr,
                          num: int, backend: str = "exhaustive") -> EnumResult:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if num < 0:
        raise ValueError("num must be non-negative")

    if backend == "exhaustive":
        # only the first num values are decoded: fewer means the set ran out
        values = exhaustive_values(var_sorts, hyp, trm, limit=num)
        if len(values) < num:
            return EnumResult(values, True, len(values) + 1)
        return EnumResult(values, False, num)

    circuit = bitblast(trm, hyp, var_sorts)
    outputs = circuit.outputs
    solver = DpllSolver(circuit.num_vars)
    for clause in circuit.clauses:
        solver.add_clause(clause)
    solver.add_clause([circuit.hyp_lit])
    rows: list[list[bool]] = []
    calls = 0
    is_total = False
    while len(rows) < num:
        calls += 1
        if not solver.solve():
            is_total = True
            break
        model = solver.model
        bits = [model[l] if l > 0 else not model[-l] for l in outputs]
        rows.append(bits)
        solver.add_clause([-l if b else l for l, b in zip(outputs, bits)])
    values = distinct_rows(circuit.output_columns(rows), len(rows))
    return EnumResult(values, is_total, calls)
