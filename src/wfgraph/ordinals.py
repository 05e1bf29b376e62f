"""Bounded natural lists, their orders, and ordinals below omega^omega.

A bnl is a fixed-length tuple of naturals compared lexicographically
(leftmost entry most significant).  A bnll is a list of bnls sharing one
inner length; bnlls are ordered length-first (a shorter list is smaller),
then position-wise by bnl order.  Both embed order-preservingly into
Cantor-normal-form ordinals, which is what makes them usable as
termination measures: o_lt has no infinite descending chains.

Validation: every public function here checks its inputs (``_check_bnl``
for a bnl's entries, ``is_ordinal`` for an ``Ordinal``'s terms).  A caller
that measures many values and compares them often, such as the run
monitor, checks each value once, when it is measured, with
``checked_bnl``, and builds ordinals from checked values with
``checked_ordinal``, which skips the Cantor-normal-form check their
construction already guarantees.

Measure construction: an omap assigns each abstract node a descriptor
mixing naturals (component ranks) and measure names.  ``mk_bnl`` expands
the descriptor of a concrete state's node, substituting the state's
measure tuples for names, and right-pads with zeros to the common bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

Bnl = tuple[int, ...]
DescEntry = Union[int, str]
Descriptor = tuple[DescEntry, ...]


class OrdinalError(ValueError):
    pass


def _check_bnl(a: Sequence[int]) -> None:
    for n in a:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise OrdinalError(f"bnl entry {n!r} is not a natural")


def checked_bnl(a: Sequence[int], bound: int) -> Bnl:
    """``a`` as a bnl of length ``bound``, its entries checked to be
    naturals: the one check a measured value needs before it is compared
    by tuple order or passed to ``checked_ordinal``."""
    if len(a) != bound:
        raise OrdinalError(f"bnl length {len(a)}, expected {bound}")
    _check_bnl(a)
    return tuple(a)


def bnl_lt(a: Sequence[int], b: Sequence[int]) -> bool:
    _check_bnl(a)
    _check_bnl(b)
    if len(a) != len(b):
        raise OrdinalError(f"bnl bound mismatch: {len(a)} vs {len(b)}")
    return tuple(a) < tuple(b)


def bnll_lt(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Length-first, then position-wise bnl order.  Every member of both
    lists is validated once, before anything is compared, so a bad entry
    raises even in a member past the first difference, or when the lengths
    alone decide."""
    inner = {len(x) for x in a} | {len(x) for x in b}
    if len(inner) > 1:
        raise OrdinalError(f"bnll inner bounds differ: {sorted(inner)}")
    for x in (*a, *b):
        _check_bnl(x)
    if len(a) != len(b):
        return len(a) < len(b)
    return [tuple(x) for x in a] < [tuple(y) for y in b]


@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form below omega^omega: terms (exponent, coefficient)
    with exponents strictly decreasing and coefficients positive.  The
    empty term list is zero."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not is_ordinal(self):
            raise OrdinalError(f"not in Cantor normal form: {self.terms}")


def is_ordinal(a: Ordinal) -> bool:
    if not isinstance(a.terms, tuple):  # a list would leave it unhashable
        return False
    prev = None
    for t in a.terms:
        if not (isinstance(t, tuple) and len(t) == 2):
            return False
        e, c = t
        if not (isinstance(e, int) and isinstance(c, int)) or \
                isinstance(e, bool) or isinstance(c, bool):
            return False
        if e < 0 or c < 1:
            return False
        if prev is not None and e >= prev:
            return False
        prev = e
    return True


def o_lt(a: Ordinal, b: Ordinal) -> bool:
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea != eb:
            return ea < eb
        if ca != cb:
            return ca < cb
    return len(a.terms) < len(b.terms)


def ordinal_text(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append(f"w*{c}")
        else:
            parts.append(f"w^{e}*{c}")
    return " + ".join(parts)


def checked_ordinal(a: Sequence[int]) -> Ordinal:
    """Ordinal image of a bnl whose entries are already checked naturals
    (``checked_bnl``'s result, or a concatenation of such).  Its terms are
    in Cantor normal form by construction, exponents falling with position
    and zero entries dropped, so ``Ordinal``'s check is not run again."""
    k = len(a)
    o = object.__new__(Ordinal)
    object.__setattr__(
        o, "terms", tuple((k - 1 - i, n) for i, n in enumerate(a) if n > 0))
    return o


def bnl_to_ordinal(a: Sequence[int]) -> Ordinal:
    _check_bnl(a)
    return checked_ordinal(a)


def bnll_to_ordinal(length: int, a: Sequence[Sequence[int]], bound: int
                    ) -> Ordinal:
    """Ordinal image of a bnll of ``length`` members, each of length
    ``bound``: the bnl order of the concatenation, so a member boundary is
    an omega^bound jump."""
    if len(a) != length:
        raise OrdinalError(f"bnll length {len(a)} does not match {length}")
    flat: list[int] = []
    for x in a:
        if len(x) != bound:
            raise OrdinalError(f"bnll member length {len(x)}, expected {bound}")
        flat.extend(x)
    return bnl_to_ordinal(flat)


# -- descriptor expansion -------------------------------------------------

def expand_descriptor(desc: Descriptor,
                      measure_values: Mapping[str, Sequence[int]]
                      ) -> list[int]:
    out: list[int] = []
    for entry in desc:
        if isinstance(entry, str):
            if entry not in measure_values:
                raise OrdinalError(f"unknown measure symbol {entry!r}")
            out.extend(measure_values[entry])
        else:
            out.append(entry)
    return out


def descriptor_length(desc: Descriptor, widths: Mapping[str, int]) -> int:
    n = 0
    for entry in desc:
        if isinstance(entry, str):
            if entry not in widths:
                raise OrdinalError(f"unknown measure symbol {entry!r}")
            n += widths[entry]
        else:
            n += 1
    return n


def bnl_bnd(descriptors: Iterable[Descriptor],
            widths: Mapping[str, int]) -> int:
    """Common bnl length: the longest expanded descriptor."""
    return max((descriptor_length(d, widths) for d in descriptors),
               default=0)


def mk_bnl(x, descriptors: Mapping[object, Descriptor],
           widths: Mapping[str, int], bound: int,
           abstract: Callable[[object], tuple[object, Mapping[str, Bnl]]]
           ) -> Bnl:
    """Measure value of concrete state ``x``: its node's descriptor with
    measure names replaced by the state's measure tuples, zero-padded on
    the right to ``bound``, the descriptors' common ``bnl_bnd``.
    ``abstract`` maps a state to its node and its measures' tuples."""
    node, values = abstract(x)
    if node not in descriptors:
        raise OrdinalError(
            f"state maps to a node outside the omap: {node!r}")
    for name, width in widths.items():
        got = len(values.get(name, ()))
        if got != width:
            raise OrdinalError(
                f"measure {name!r} produced width {got}, declared {width}")
    expanded = expand_descriptor(descriptors[node], values)
    return tuple(expanded) + (0,) * (bound - len(expanded))
