"""Bounded-list orders and their ordinal embeddings.

The load-bearing fact is that bnl/bnll comparison agrees with o_lt on the
ordinal images, exhaustively at small bounds; everything downstream (measure
synthesis, run monitoring) leans on that embedding.
"""

import itertools
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wfgraph.ordinals import (
    Ordinal,
    OrdinalError,
    bnl_bnd,
    bnl_lt,
    bnl_to_ordinal,
    bnll_lt,
    bnll_to_ordinal,
    checked_bnl,
    checked_ordinal,
    descriptor_length,
    expand_descriptor,
    is_ordinal,
    mk_bnl,
    o_lt,
    ordinal_text,
)


def all_bnls(bound: int, limit: int):
    return list(itertools.product(range(limit), repeat=bound))


def test_bnl_order_is_tuple_order():
    for a, b in itertools.product(all_bnls(2, 3), repeat=2):
        assert bnl_lt(a, b) == (a < b)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_bnl_embedding_exhaustive(bound):
    # every pair of bnls with entries below 4: order must transfer exactly
    vals = all_bnls(bound, 4)
    images = {a: bnl_to_ordinal(a) for a in vals}
    checked = 0
    for a, b in itertools.product(vals, repeat=2):
        assert bnl_lt(a, b) == o_lt(images[a], images[b]), (a, b)
        checked += 1
    assert checked == (4 ** bound) ** 2


def test_bnl_bound_mismatch():
    with pytest.raises(OrdinalError):
        bnl_lt((1, 2), (1,))


def test_bnl_rejects_non_naturals():
    with pytest.raises(OrdinalError):
        bnl_lt((-1,), (0,))
    with pytest.raises(OrdinalError):
        bnl_lt((True,), (1,))
    # checked_bnl refuses the same entries, and a bnl of another length
    assert checked_bnl([2, 0, 1], 3) == (2, 0, 1)
    for bad in ((0, -1, 0), (True, 0, 0), (0, 1.0, 0), (0, 0)):
        with pytest.raises(OrdinalError):
            checked_bnl(bad, 3)


def test_bnll_length_dominance():
    # shorter lists are smaller no matter what the entries say
    small = [(9, 9)]
    big = [(0, 0), (0, 0)]
    assert bnll_lt(small, big)
    assert not bnll_lt(big, small)
    assert bnll_lt([], small)


def test_bnll_order_exhaustive():
    members = all_bnls(2, 2)
    lists = [list(c)
             for n in range(3)
             for c in itertools.product(members, repeat=n)]
    for a, b in itertools.product(lists, repeat=2):
        want = (len(a), tuple(a)) < (len(b), tuple(b))
        assert bnll_lt(a, b) == want, (a, b)


@pytest.mark.parametrize("length", [0, 1, 2])
def test_bnll_embedding_per_length(length):
    members = all_bnls(2, 3)
    lists = [list(c) for c in itertools.product(members, repeat=length)]
    images = {tuple(a): bnll_to_ordinal(length, a, 2) for a in lists}
    for a, b in itertools.product(lists, repeat=2):
        assert bnll_lt(a, b) == o_lt(images[tuple(a)], images[tuple(b)])


@pytest.mark.parametrize("bad", [-1, True])
def test_bnll_validates_every_member(bad):
    # the lists differ at member 0; a bad entry in any member still raises,
    # on either side, and so it does when the lengths alone decide
    a = [(0, 1), (2, 0), (1, 1)]
    b = [(1, 1), (2, 0), (1, 1)]
    for i in range(len(a)):
        tainted = list(a)
        tainted[i] = (bad, 0)
        for x, y in ((tainted, b), (b, tainted)):
            with pytest.raises(OrdinalError):
                bnll_lt(x, y)
    with pytest.raises(OrdinalError):
        bnll_lt([(0, bad)], a)


def test_bnll_inner_bound_mismatch():
    with pytest.raises(OrdinalError):
        bnll_lt([(1, 2)], [(1,)])


def test_bnll_to_ordinal_shape_checks():
    with pytest.raises(OrdinalError):
        bnll_to_ordinal(2, [(1, 0)], 2)  # wrong list length
    with pytest.raises(OrdinalError):
        bnll_to_ordinal(1, [(1, 0, 0)], 2)  # wrong member length


def test_ordinal_text_goldens():
    assert ordinal_text(Ordinal()) == "0"
    assert ordinal_text(Ordinal(((2, 2), (1, 1), (0, 3)))) == "w^2*2 + w*1 + 3"
    assert ordinal_text(Ordinal(((5, 1),))) == "w^5*1"
    assert ordinal_text(Ordinal(((0, 7),))) == "7"


def test_bnl_to_ordinal_drops_zero_entries():
    assert bnl_to_ordinal((0, 0, 0)) == Ordinal()
    assert bnl_to_ordinal((2, 0, 3)) == Ordinal(((2, 2), (0, 3)))
    # checked_ordinal skips the normal-form check; on every small bnl it
    # builds the ordinal the validating constructor builds
    for bound in range(4):
        for a in all_bnls(bound, 4):
            terms = tuple((bound - 1 - i, n) for i, n in enumerate(a) if n)
            o = checked_ordinal(checked_bnl(a, bound))
            assert o == Ordinal(terms) == bnl_to_ordinal(a), a
            assert is_ordinal(o), a


def test_bnll_to_ordinal_golden():
    # member boundary is an omega^bound jump: (1,0) ++ (0,2) reads w^3 + 2
    o = bnll_to_ordinal(2, [(1, 0), (0, 2)], 2)
    assert o == Ordinal(((3, 1), (0, 2)))
    assert ordinal_text(o) == "w^3*1 + 2"


@pytest.mark.parametrize("terms", [
    ((1, 0),),            # zero coefficient
    ((1, 1), (1, 1)),     # equal exponents
    ((1, 1), (2, 1)),     # increasing exponents
    ((-1, 1),),           # negative exponent
    ((True, True),),      # bool exponent and coefficient
    ((1, True),),         # bool coefficient
    ((True, 1),),         # bool exponent
    [(1, 1)],             # a list of terms, not a tuple
])
def test_cnf_validation(terms):
    with pytest.raises(OrdinalError):
        Ordinal(terms)


def test_is_ordinal_on_good_terms():
    assert is_ordinal(Ordinal(((3, 2), (1, 1), (0, 4))))
    assert is_ordinal(Ordinal())


def test_total_order_chain():
    # sorting all length-3 bnls by bnl_lt yields one strictly increasing
    # chain of 64, and the ordinal images sort identically
    vals = all_bnls(3, 4)
    chain = sorted(vals, key=cmp_to_key(lambda a, b: -1 if bnl_lt(a, b) else 1))
    assert len(chain) == 64
    for lo, hi in zip(chain, chain[1:]):
        assert bnl_lt(lo, hi)
        assert o_lt(bnl_to_ordinal(lo), bnl_to_ordinal(hi))


bnl_strategy = st.lists(st.integers(0, 5), min_size=0, max_size=5)


@given(bnl_strategy)
def test_o_lt_irreflexive(a):
    x = bnl_to_ordinal(a)
    assert not o_lt(x, x)


@given(bnl_strategy, bnl_strategy)
def test_o_lt_trichotomy(a, b):
    x, y = bnl_to_ordinal(a), bnl_to_ordinal(b)
    assert (x == y) + o_lt(x, y) + o_lt(y, x) == 1


@given(bnl_strategy, bnl_strategy, bnl_strategy)
def test_o_lt_transitive(a, b, c):
    x, y, z = (bnl_to_ordinal(v) for v in (a, b, c))
    if o_lt(x, y) and o_lt(y, z):
        assert o_lt(x, z)


# -- descriptor expansion --------------------------------------------------

TOY_DESCRIPTORS = {"A": (2, "m"), "B": (1,)}
TOY_WIDTHS = {"m": 2}


def test_expand_descriptor():
    assert expand_descriptor((4, "runs", 11, 0), {"runs": (2,)}) == [4, 2, 11, 0]
    with pytest.raises(OrdinalError):
        expand_descriptor(("nope",), {"runs": (2,)})


def test_descriptor_length_and_bound():
    assert descriptor_length((4, "runs", 11, 0), {"runs": 1}) == 4
    with pytest.raises(OrdinalError):
        descriptor_length(("nope",), {})
    assert bnl_bnd(TOY_DESCRIPTORS.values(), TOY_WIDTHS) == 3
    assert bnl_bnd([], {}) == 0


def test_mk_bnl_pads_to_common_bound():
    def abstract(x):
        return x[0], {"m": x[1]}

    bound = bnl_bnd(TOY_DESCRIPTORS.values(), TOY_WIDTHS)
    args = (TOY_DESCRIPTORS, TOY_WIDTHS, bound, abstract)
    assert mk_bnl(("A", (5, 7)), *args) == (2, 5, 7)
    assert mk_bnl(("B", (0, 0)), *args) == (1, 0, 0)


def test_mk_bnl_rejects_bad_states():
    def abstract(x):
        return x[0], {"m": x[1]}

    bound = bnl_bnd(TOY_DESCRIPTORS.values(), TOY_WIDTHS)
    args = (TOY_DESCRIPTORS, TOY_WIDTHS, bound, abstract)
    with pytest.raises(OrdinalError):
        mk_bnl(("C", (0, 0)), *args)
    with pytest.raises(OrdinalError):
        mk_bnl(("A", (1,)), *args)
