"""Minimal hitting sets of a family of sets.

A size-ascending sweep over subsets of the family's union, whose
correctness is obvious.  tests/oracles.py holds a branch-and-bound version
that the tests check against it.
"""

from __future__ import annotations

import itertools
from typing import Collection, Iterable


def is_hitting_set(candidate: Iterable, family: Iterable[Collection]) -> bool:
    """True when candidate draws only from the family's union and meets
    every non-empty member."""
    cand = set(candidate)
    fam = [set(s) for s in family]
    union: set = set()
    for s in fam:
        union |= s
    if not cand <= union:
        return False
    return all(cand & s for s in fam if s)


def minimal_hitting_sets(family: Iterable[Collection]) -> tuple[frozenset, ...]:
    """All subset-minimal hitting sets, smallest first.

    Exhaustive size-ascending enumeration over subsets of the union; once a
    set is found, its supersets are skipped, so everything kept is minimal.
    """
    fam = [frozenset(s) for s in family if s]
    union = sorted(frozenset().union(*fam)) if fam else []
    found: list[frozenset] = []
    for n in range(len(union) + 1):
        for combo in itertools.combinations(union, n):
            cand = frozenset(combo)
            if any(f <= cand for f in found):
                continue
            if all(cand & s for s in fam):
                found.append(cand)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))

