"""Enumeration of every value a term takes under a hypothesis.

``compute_finite_values`` asks: over all assignments to the declared
variables satisfying ``hyp``, which distinct values does ``trm`` take?  It
returns all of them or refuses, on either backend alike: a partial value
set abstracts nothing.  A query whose values reach ``VALUE_BOUND`` (read
at call time, one past the exhaustive row cap, so only a SAT query can)
raises NotTotal, and an exhaustive table past the row cap raises
``veceval.Capacity``; both name the query.

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
(``Circuit.output_columns``).  Either backend's leaves carry their model
sorts, so an output natural too wide for an int64 code is refused from
them (``veceval.int64_codes``): on SAT before the first solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitblast import bitblast
from .model import Expr, Sort
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


def compute_finite_values(var_sorts: dict[str, Sort], hyp: Expr, trm: Expr,
                          backend: str = "exhaustive",
                          what: str = "query") -> EnumResult:
    """Every value of ``trm`` under ``hyp``, or NotTotal (or Capacity)
    naming the query ``what``.  ``solve_calls`` counts one probe past the
    values: the SAT backend's last solve is the one that finds nothing."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    bound = VALUE_BOUND
    if backend == "exhaustive":
        try:
            values = exhaustive_values(var_sorts, hyp, trm)
        except Capacity as err:
            raise Capacity(err.rows, err.cap, what) from None
    else:
        circuit = bitblast(trm, hyp, var_sorts)
        int64_codes(circuit.output)  # refused before the first solve
        outputs = circuit.outputs
        solver = DpllSolver(circuit.num_vars)
        for clause in circuit.clauses:
            solver.add_clause(clause)
        solver.add_clause([circuit.hyp_lit])
        # each model's output pattern is blocked, so each is a new value
        rows: list[list[bool]] = []
        while len(rows) < bound and solver.solve():
            model = solver.model
            bits = [model[l] if l > 0 else not model[-l] for l in outputs]
            rows.append(bits)
            solver.add_clause([-l if b else l for l, b in zip(outputs, bits)])
        values = distinct_rows(circuit.output_columns(rows), len(rows))
    if len(values) >= bound:
        raise NotTotal(what, bound)
    return EnumResult(values, len(values) + 1)
