"""Bounded enumeration of the values a term takes under a hypothesis.

``compute_finite_values`` asks: over all assignments to the declared
variables satisfying ``hyp``, which distinct values does ``trm`` take?  It
stops after ``num`` values.  ``is_total`` is True exactly when enumeration
finished by exhausting the value set (the final probe found nothing new),
so a result that fills the budget precisely reports is_total=False even if
nothing further exists; callers that need totality pass a budget strictly
above the largest possible count.

Backends:
  exhaustive  vectorized sweep over the variable domains (numpy)
  sat         bit-blast to CNF, enumerate models with the built-in solver,
              blocking each found output pattern
  ipasir      same loop through an external IPASIR shared library

Every backend returns its values as one ``veceval.DistinctRows``: per
top-level item, its distinct values and an integer id column.  The
exhaustive backend builds it from its table without building any row; the
solver backends wrap the values they decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitblast import bitblast, _lit_val
from .model import Expr, Sort, Value, canonical_sorted
from .sat import make_solver
from .veceval import DistinctRows, exhaustive_values

BACKENDS = ("exhaustive", "sat", "ipasir")


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
    solver = make_solver(circuit.num_vars, backend)
    try:
        for clause in circuit.clauses:
            solver.add_clause(clause)
        solver.add_clause([circuit.hyp_lit])
        found: list[Value] = []
        calls = 0
        is_total = False
        while len(found) < num:
            calls += 1
            if not solver.solve():
                is_total = True
                break
            model = solver.model
            found.append(circuit.decode_output(model))
            solver.add_clause(
                [-l if _lit_val(model, l) else l for l in circuit.outputs])
        return EnumResult(DistinctRows.of(canonical_sorted(found)), is_total,
                          calls)
    finally:
        close = getattr(solver, "close", None)
        if close:
            close()
