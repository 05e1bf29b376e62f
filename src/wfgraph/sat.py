"""The SAT backend's solver: a built-in, incremental CDCL solver.

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

Model enumeration adds a blocking clause after each satisfying assignment,
and the search keeps its trail across it.  ``add_clause`` first drops the
literals false at level 0 and skips a clause that is satisfied at level 0 or
a tautology.  When the current assignment falsifies what is left, as it
does a blocking clause:

- one literal left: cancel to level 0 and assign it for good;
- one literal at the clause's highest level: cancel to its second-highest
  level, watch the clause and assert that literal, as for a learned clause;
- otherwise: cancel to one below the highest level, where the clause's
  literals of that level are unassigned, and watch two of them.

Any other clause added above level 0 cancels the search to level 0 first;
``solve`` then continues from wherever the trail stands.  Learned clauses
stay, since the clause set only grows.  Units at level 0 are assigned for
good, so a level-0 conflict or an empty clause leaves the solver
unsatisfiable from then on.

``solve(assumptions)`` asks for a model in which the given literals are
true, as MiniSat does: assumption k is decided at level k + 1 (an empty
level when it is already true), before any free decision, so learned
clauses stay implied by the clauses alone.  A false assumption, at level 0
or implied by earlier ones, makes ``solve`` return False; the solver stays
usable.  A call with the same assumptions as the last keeps the trail,
re-deciding any assumption a blocking clause cancelled, so enumeration
under fixed assumptions continues where it stopped; a call with other
assumptions cancels to level 0 first.  The reach query of the enumeration
layer asks once per node: the node's source bits as assumptions, its
successors enumerated by blocking clauses.

The class keeps the name ``DpllSolver``: the benchmark's tracer
(``perfbench/tracer.py``) wraps ``DpllSolver.solve`` and
``DpllSolver.add_clause`` by name for its ``sat.*`` spans.
"""

from __future__ import annotations

from typing import Optional, Sequence


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
        self._assumed: tuple[int, ...] = ()  # codes of the last assumptions

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

    def _check_range(self, lits: Sequence[int]):
        n = self.num_vars
        if lits and (0 in lits or min(lits) < -n or max(lits) > n):
            bad = next(l for l in lits if not 1 <= abs(l) <= n)
            raise ValueError(f"literal {bad} out of range")

    def add_clause(self, lits: list[int]):
        self._check_range(lits)
        if not self._ok:
            return
        val, level = self._val, self._level
        clause: list[int] = []
        for l in lits:
            code = l << 1 if l > 0 else -l << 1 | 1
            x = val[code]
            if x and not level[code >> 1]:
                if x == 1:
                    return  # satisfied at level 0
                continue  # false at level 0, for good
            if code not in clause:
                if code ^ 1 in clause:
                    return  # tautology
                clause.append(code)
        if self._lim:
            if len(clause) > 1 and all(val[c] == -1 for c in clause):
                # falsified, as a blocking clause is: order its literals by
                # level, highest first, and jump back only below the highest
                clause.sort(key=lambda c: level[c >> 1], reverse=True)
                top, second = level[clause[0] >> 1], level[clause[1] >> 1]
                self._cancel_until(second if top > second else top - 1)
                self._watches[clause[0] ^ 1].append(clause)
                self._watches[clause[1] ^ 1].append(clause)
                if top > second:
                    self._assign(clause[0], clause)
                return
            self._cancel_until(0)
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
            ws = iter(watches[p])
            # a fresh list, not MiniSat's in-place compaction: in CPython
            # the i/j indexing measured no faster on sat-rank
            watches[p] = keep = []
            for c in ws:
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if val[first] == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != -1:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk ^ 1].append(c)
                        break
                else:
                    keep.append(c)
                    if val[first] == -1:
                        keep.extend(ws)
                        return c
                    val[first] = 1
                    val[first ^ 1] = -1
                    v = first >> 1
                    level[v] = dl
                    reason[v] = c
                    trail.append(first)
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

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Whether the clauses have a model in which every literal of
        ``assumptions`` is true; the model is then ``self.model``.  False
        under assumptions says nothing about the clauses alone."""
        self._check_range(assumptions)
        if not self._ok:
            return False
        assumed = tuple(l << 1 if l > 0 else -l << 1 | 1 for l in assumptions)
        if assumed != self._assumed:
            self._cancel_until(0)
            self._assumed = assumed
        val = self._val
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
            dl = len(self._lim)
            if dl < len(assumed):
                # assumption dl is decision level dl + 1; one already true
                # opens an empty level, one already false has no model
                code = assumed[dl]
                if val[code] == -1:
                    return False
                self._lim.append(len(self._trail))
                if not val[code]:
                    self._assign(code, None)
                continue
            # both codes of an unassigned variable read 0, those of an
            # assigned one read 1 and -1
            try:
                v = val.index(0, 2 * self._next) >> 1
            except ValueError:
                self.model = [x == 1 for x in val[::2]]
                return True
            self._next = v
            self._lim.append(len(self._trail))
            self._assign(2 * v + 1, None)  # try False first
