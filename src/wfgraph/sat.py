"""SAT backends: a built-in CDCL solver and an optional IPASIR bridge.

The built-in solver is conflict-driven clause learning in the style of GRASP
(Marques-Silva & Sakallah 1999) with MiniSat's two-watched-literal
propagation (Een & Sorensson 2003).  Each conflict is analysed to its first
unique implication point; the learned clause is kept and the search jumps
back, non-chronologically, to the level where that clause asserts.

Decisions fall on the lowest-indexed unassigned variable, tried False first.
There are no restarts, no clause deletion and no activity heuristic, so the
same clauses always give the same sequence of models; the enumeration layer
relies on that for reproducible value orders and solve counts.  Bitblasting
numbers the inputs first, so decisions fall on inputs.

Model enumeration adds a blocking clause after each satisfying assignment.
``add_clause`` first cancels the search to decision level 0, then adds the
clause; learned clauses stay, since the clause set only grows.  At level 0
false literals are dropped, satisfied clauses and tautologies skipped, and
units assigned for good, so a level-0 conflict or an empty clause leaves the
solver unsatisfiable from then on.

The class keeps the name ``DpllSolver``: the benchmark's tracer
(``perfbench/tracer.py``) wraps ``DpllSolver.solve`` and
``DpllSolver.add_clause`` by name for its ``sat.*`` spans.

Set the WFG_IPASIR_LIB environment variable to the path of a shared library
exporting the IPASIR API to enable the ``ipasir`` backend.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional


class DpllSolver:
    """CDCL over clauses of DIMACS literals (see the module docstring).

    Internally variable ``v`` is the literal codes ``2v`` (true) and ``2v+1``
    (false), so ``code ^ 1`` negates.  ``_val[code]`` is 1, -1 or 0 for
    true, false or unassigned.  A clause is a list of codes whose watched
    literals sit at positions 0 and 1; ``_watches[code]`` holds the clauses
    to visit when ``code`` becomes true, i.e. those watching ``code ^ 1``.
    A clause that implies a literal holds it at position 0.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.model: list[bool] = []
        n = num_vars + 1
        self._val = [0] * (2 * n)
        self._level = [0] * n
        self._reason: list[Optional[list[int]]] = [None] * n
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * n)]
        self._trail: list[int] = []
        self._lim: list[int] = []  # trail length at each decision
        self._qhead = 0
        self._next = 1  # no variable below this one is unassigned
        self._seen = bytearray(n)
        self._ok = True

    def _assign(self, code: int, reason: Optional[list[int]]):
        self._val[code] = 1
        self._val[code ^ 1] = -1
        v = code >> 1
        self._level[v] = len(self._lim)
        self._reason[v] = reason
        self._trail.append(code)

    def _cancel_until(self, level: int):
        if len(self._lim) <= level:
            return
        val, trail = self._val, self._trail
        start = self._lim[level]
        low = self._next
        for code in trail[start:]:
            val[code] = val[code ^ 1] = 0
            v = code >> 1
            if v < low:
                low = v
        del trail[start:]
        del self._lim[level:]
        self._qhead = start
        self._next = low

    def add_clause(self, lits: list[int]):
        n = self.num_vars
        if lits and (0 in lits or min(lits) < -n or max(lits) > n):
            bad = next(l for l in lits if not 1 <= abs(l) <= n)
            raise ValueError(f"literal {bad} out of range")
        if not self._ok:
            return
        if self._lim:
            self._cancel_until(0)
        val = self._val
        clause: list[int] = []
        for l in lits:
            code = l << 1 if l > 0 else -l << 1 | 1
            x = val[code]
            if x == 0:
                if code not in clause:
                    if code ^ 1 in clause:
                        return  # tautology
                    clause.append(code)
            elif x == 1:
                return  # satisfied at level 0
        if not clause:
            self._ok = False
        elif len(clause) == 1:
            self._assign(clause[0], None)
            if self._propagate() is not None:
                self._ok = False
        else:
            self._watches[clause[0] ^ 1].append(clause)
            self._watches[clause[1] ^ 1].append(clause)

    def _propagate(self) -> Optional[list[int]]:
        """Unit-propagate the trail; return a conflicting clause or None."""
        val, trail, watches = self._val, self._trail, self._watches
        level, reason = self._level, self._reason
        dl = len(self._lim)
        qhead = self._qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[p]
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if val[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != -1:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk ^ 1].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if val[first] == -1:
                        del ws[j:i]
                        return c
                    val[first] = 1
                    val[first ^ 1] = -1
                    v = first >> 1
                    level[v] = dl
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        self._qhead = qhead
        return None

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """1-UIP learned clause (asserting literal first, the literal of
        the backjump level second) and the level to jump back to."""
        seen, level, reason, trail = (self._seen, self._level, self._reason,
                                      self._trail)
        dl = len(self._lim)
        learnt = [0]
        pending = 0  # seen literals of the current level not yet resolved
        idx = len(trail) - 1
        lits = confl
        while True:
            for q in lits:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    if level[v] == dl:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[p >> 1] = 0
            pending -= 1
            if pending == 0:
                break
            lits = reason[p >> 1][1:]
        learnt[0] = p ^ 1
        back = 0
        for k in range(1, len(learnt)):
            v = learnt[k] >> 1
            seen[v] = 0
            if level[v] > back:
                back = level[v]
                learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, back

    def solve(self) -> bool:
        if not self._ok:
            return False
        self._cancel_until(0)
        val, n = self._val, self.num_vars
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self._lim:
                    self._ok = False
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) > 1:
                    self._watches[learnt[0] ^ 1].append(learnt)
                    self._watches[learnt[1] ^ 1].append(learnt)
                    self._assign(learnt[0], learnt)
                else:
                    self._assign(learnt[0], None)
                continue
            v = self._next
            while v <= n and val[2 * v]:
                v += 1
            self._next = v
            if v > n:
                self.model = [False] + [val[2 * u] == 1
                                        for u in range(1, n + 1)]
                return True
            self._lim.append(len(self._trail))
            self._assign(2 * v + 1, None)  # try False first


class IpasirSolver:
    """ctypes bridge to an IPASIR shared library (one solver per instance)."""

    def __init__(self, num_vars: int, lib_path: str):
        self.num_vars = num_vars
        self._lib = ctypes.CDLL(lib_path)
        self._lib.ipasir_init.restype = ctypes.c_void_p
        self._lib.ipasir_add.argtypes = [ctypes.c_void_p, ctypes.c_int]
        self._lib.ipasir_solve.argtypes = [ctypes.c_void_p]
        self._lib.ipasir_solve.restype = ctypes.c_int
        self._lib.ipasir_val.argtypes = [ctypes.c_void_p, ctypes.c_int]
        self._lib.ipasir_val.restype = ctypes.c_int
        self._lib.ipasir_release.argtypes = [ctypes.c_void_p]
        self._ptr = self._lib.ipasir_init()
        self.model: list[bool] = []

    def add_clause(self, lits: list[int]):
        for l in lits:
            self._lib.ipasir_add(self._ptr, l)
        self._lib.ipasir_add(self._ptr, 0)

    def solve(self) -> bool:
        r = self._lib.ipasir_solve(self._ptr)
        if r == 10:
            self.model = [False]
            for v in range(1, self.num_vars + 1):
                self.model.append(self._lib.ipasir_val(self._ptr, v) > 0)
            return True
        if r == 20:
            return False
        raise RuntimeError(f"ipasir_solve returned {r}")

    def close(self):
        if self._ptr is not None:
            self._lib.ipasir_release(self._ptr)
            self._ptr = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def ipasir_library() -> Optional[str]:
    return os.environ.get("WFG_IPASIR_LIB") or None


def make_solver(num_vars: int, backend: str):
    if backend == "sat":
        return DpllSolver(num_vars)
    if backend == "ipasir":
        path = ipasir_library()
        if not path:
            raise RuntimeError(
                "ipasir backend requested but WFG_IPASIR_LIB is not set")
        return IpasirSolver(num_vars, path)
    raise ValueError(f"unknown SAT backend {backend!r}")
