"""The built-in CDCL solver against a brute-force truth-table oracle.

Random CNFs stay at 10 variables or fewer, so every answer, every model and
every blocking-clause enumeration can be checked against all assignments.
Pigeonhole formulas are the known-UNSAT cases that need learning and
backjumping to finish quickly.
"""

import itertools
import random

import pytest

from wfgraph.sat import DpllSolver


def _holds(model, clause) -> bool:
    return any(model[abs(l)] == (l > 0) for l in clause)


def _models(num_vars, clauses):
    """Every satisfying assignment, as ``[False] + per-var bools``."""
    for bits in itertools.product((False, True), repeat=num_vars):
        model = [False, *bits]
        if all(_holds(model, c) for c in clauses):
            yield model


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    return [[rng.choice((-1, 1)) * rng.randint(1, num_vars)
             for _ in range(rng.randint(1, 4))]
            for _ in range(num_clauses)]


def _solver(num_vars, clauses) -> DpllSolver:
    s = DpllSolver(num_vars)
    for c in clauses:
        s.add_clause(c)
    return s


def _enumerate(solver: DpllSolver, outputs):
    """The loop ``compute_finite_values`` runs: after each model, block its
    output pattern.  Returns the patterns and the full models in order."""
    patterns, models = [], []
    while solver.solve():
        model = solver.model
        models.append(model)
        patterns.append(tuple(model[v] for v in outputs))
        solver.add_clause([-v if model[v] else v for v in outputs])
    return patterns, models


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        num_vars = rng.randint(1, 10)
        num_clauses = rng.randint(0, 5 * num_vars)
        yield num_vars, _random_cnf(rng, num_vars, num_clauses)


def test_answers_and_models_match_truth_table():
    answers = set()
    for num_vars, clauses in _cases(1, 400):
        s = _solver(num_vars, clauses)
        got = s.solve()
        assert got == any(True for _ in _models(num_vars, clauses)), clauses
        answers.add(got)
        if got:
            assert len(s.model) == num_vars + 1 and s.model[0] is False
            assert all(_holds(s.model, c) for c in clauses), clauses
    assert answers == {True, False}


def test_blocking_enumeration_returns_the_projected_set():
    rng = random.Random(2)
    sizes = []
    for num_vars, clauses in _cases(3, 200):
        outputs = sorted(rng.sample(range(1, num_vars + 1),
                                    rng.randint(1, num_vars)))
        want = {tuple(m[v] for v in outputs)
                for m in _models(num_vars, clauses)}
        patterns, models = _enumerate(_solver(num_vars, clauses), outputs)
        assert len(patterns) == len(set(patterns))
        assert set(patterns) == want, (clauses, outputs)
        assert all(_holds(m, c) for m in models for c in clauses)
        sizes.append(len(want))
    assert max(sizes) >= 8


def test_clauses_added_between_solves_match_truth_table():
    # grow one formula clause by clause, solving after each addition
    rng = random.Random(4)
    for _ in range(60):
        num_vars = rng.randint(2, 10)
        s, clauses = DpllSolver(num_vars), []
        for clause in _random_cnf(rng, num_vars, 6 * num_vars):
            s.add_clause(clause)
            clauses.append(clause)
            got = s.solve()
            assert got == any(True for _ in _models(num_vars, clauses))
            if got:
                assert all(_holds(s.model, c) for c in clauses)
            else:
                break


def _attached(solver: DpllSolver) -> dict:
    """The clauses in the solver's watch lists, by identity, as DIMACS
    literals.  Each must be watched through its first two literals."""
    clauses = {id(c): c for ws in solver._watches for c in ws}
    for c in clauses.values():
        for w in c[:2]:
            assert any(x is c for x in solver._watches[w ^ 1])
    return {k: [-(x >> 1) if x & 1 else x >> 1 for x in c]
            for k, c in clauses.items()}


def test_learned_clauses_are_attached_and_implied():
    # random 3-SAT over 10 variables near the threshold ratio of ~4.3
    rng = random.Random(6)
    learned = 0
    for _ in range(100):
        num_vars = 10
        clauses = [[rng.choice((-1, 1)) * v
                    for v in rng.sample(range(1, num_vars + 1), 3)]
                   for _ in range(43)]
        s = _solver(num_vars, clauses)
        before = _attached(s)
        s.solve()
        after = _attached(s)
        assert before.keys() <= after.keys()
        models = list(_models(num_vars, clauses))
        for k in after.keys() - before.keys():
            learned += 1
            assert all(_holds(m, after[k]) for m in models)
    assert learned >= 100


def _pigeonhole(pigeons: int, holes: int):
    """Every pigeon in some hole, no two pigeons in one hole."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p, h), -var(q, h)])
    return pigeons * holes, clauses


@pytest.mark.parametrize("holes", [2, 3, 4, 5])
def test_pigeonhole_is_unsat(holes):
    s = _solver(*_pigeonhole(holes + 1, holes))
    assert not s.solve()
    assert not s.solve()


def test_pigeonhole_placements_enumerate_once_each():
    # 4 pigeons, 4 holes: 4! placements, each with every pigeon in exactly
    # one hole
    num_vars, clauses = _pigeonhole(4, 4)
    patterns, _ = _enumerate(_solver(num_vars, clauses),
                             list(range(1, num_vars + 1)))
    assert len(patterns) == len(set(patterns)) == 24
    assert all(sum(p) == 4 for p in patterns)


def test_empty_clause_is_unsat():
    s = DpllSolver(3)
    s.add_clause([1, 2])
    s.add_clause([])
    assert not s.solve()
    assert DpllSolver(0).solve()


def test_duplicate_literals_and_tautologies():
    s = DpllSolver(3)
    s.add_clause([1, 1, 1])
    s.add_clause([2, -2])           # tautology: no constraint
    s.add_clause([-1, 3, -1, 3])
    assert s.solve()
    assert s.model == [False, True, False, True]
    s.add_clause([-3, -3])
    assert not s.solve()


@pytest.mark.parametrize("lit", [0, 4, -4, 100])
def test_out_of_range_literal_raises(lit):
    s = DpllSolver(3)
    with pytest.raises(ValueError):
        s.add_clause([1, lit])
    # the rejected clause added nothing
    s.add_clause([-1])
    assert s.solve() and s.model == [False, False, False, False]


def test_unit_contradicting_the_model_after_sat():
    s = DpllSolver(4)
    s.add_clause([1, 2, 3])
    s.add_clause([-3, 4])
    assert s.solve()
    first = s.model
    assert first == [False, False, False, True, True]
    s.add_clause([-4])              # the current model sets 4 True
    assert s.solve()
    assert s.model[4] is False and _holds(s.model, [1, 2, 3])
    assert not s.model[3]
    s.add_clause([-1])
    s.add_clause([-2])
    assert not s.solve()


def test_clauses_after_unsat_keep_it_unsat():
    s = DpllSolver(3)
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2])
    assert not s.solve()
    s.add_clause([3])
    s.add_clause([1, 2, 3])
    assert not s.solve()
    with pytest.raises(ValueError):
        s.add_clause([5])


def test_same_clauses_give_the_same_model_sequence():
    for num_vars, clauses in _cases(5, 40):
        outputs = list(range(1, num_vars + 1))
        runs = [_enumerate(_solver(num_vars, clauses), outputs)[1]
                for _ in range(2)]
        assert runs[0] == runs[1]
    # decisions take the lowest unassigned variable, False first
    s = DpllSolver(3)
    assert s.solve() and s.model == [False, False, False, False]
