"""Minimal hitting sets of a family of sets.

Berge's incremental construction of the minimal transversals (C. Berge,
Hypergraphs, 1989), on integer bitmasks over the sorted union.  The
transversals of the members seen so far start as the empty set alone; each
further member keeps the transversals that already meet it and extends
every other one by one element of the member, dropping the extensions that
contain a kept transversal.  Every step leaves exactly the minimal
transversals of the members seen so far.

The cost follows the intermediate transversal families, not the subsets of
the union.  The worst case is still exponential: the answer itself can be
exponential in the family, and an intermediate family can outgrow both the
input and the answer (Eiter & Gottlob, SIAM J. Comput. 1995).  Members are
taken smallest first, which keeps the intermediate families small on
kernel families.  Empty and repeated members are dropped; a superset of an
earlier member is met by every transversal already, so it passes through
at the cost of one test per transversal, cheaper than a pairwise filter
over the members.

tests/oracles.py holds the references the tests check this against: the
exhaustive size-ascending subset sweep, a branch-and-bound version and
is_hitting_set.
"""

from __future__ import annotations

from typing import Collection, Iterable


def minimal_hitting_sets(family: Iterable[Collection]) -> tuple[frozenset, ...]:
    """All subset-minimal hitting sets, smallest first, ties by their
    sorted elements.  A family with no non-empty member has one: the
    empty set."""
    members = {frozenset(s) for s in family if s}
    union = sorted(frozenset().union(*members))
    bit = {x: 1 << i for i, x in enumerate(union)}
    transversals = [0]
    for m in sorted({sum(bit[x] for x in s) for s in members}, key=int.bit_count):
        hit = [t for t in transversals if t & m]
        extended = set()
        for t in transversals:
            if t & m:
                continue
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                extended.add(t | low)
        # An extension cannot contain another one: both would extend the
        # same transversal, which misses m.  Only the kept ones can be inside.
        transversals = hit + [x for x in extended if not any(h & x == h for h in hit)]
    result = [frozenset(x for i, x in enumerate(union) if t >> i & 1) for t in transversals]
    return tuple(sorted(result, key=lambda s: (len(s), sorted(s))))
