"""Explanations: which base facts a derivable atom rests on.

A local explanation is the set of stored facts consumed by one proof branch;
it is minimal for that branch but different branches may overlap, so the
family as a whole need not be subset-minimal.  explanations() reduces the
family to its subset-minimal members.  For an underivable atom the same
machinery run with hypothesised facts reports which absent base facts each
almost-proof needs.
"""

from __future__ import annotations

from .lang import Atom, Database, antichain, unique
from .semantics import build_proof_tree


def minimal_members(family) -> tuple[frozenset[Atom], ...]:
    """Subset-minimal members, smallest first, ties broken lexically."""
    return tuple(antichain(sorted(set(family), key=lambda s: (len(s), sorted(s)))))


def local_explanations(db: Database, atom: Atom) -> tuple[frozenset[Atom], ...]:
    """Fact sets of the individual proofs of atom, in proof order."""
    tree = build_proof_tree(db, atom)
    return unique(tree.success_sets())


def explanations(db: Database, atom: Atom) -> tuple[frozenset[Atom], ...]:
    """Subset-minimal sets of stored facts that make atom derivable."""
    return minimal_members(local_explanations(db, atom))


def missing_support(db: Database, atom: Atom) -> tuple[frozenset[Atom], ...]:
    """Assumption sets of branches that would prove atom if the listed
    absent base facts were stored, in proof order."""
    tree = build_proof_tree(db, atom, hypothesize=True)
    return unique(tree.hypothesised_sets())


def support_union(db: Database, atom: Atom) -> frozenset[Atom]:
    """Every stored fact touched by some proof of atom."""
    fam = local_explanations(db, atom)
    return frozenset().union(*fam) if fam else frozenset()


def missing_union(db: Database, atom: Atom) -> frozenset[Atom]:
    """Every absent base fact touched by some almost-proof of atom."""
    fam = missing_support(db, atom)
    return frozenset().union(*fam) if fam else frozenset()
