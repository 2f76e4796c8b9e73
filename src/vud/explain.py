"""Explanations: which base facts a derivable atom rests on.

A local explanation is the set of stored facts consumed by one proof branch;
it is minimal for that branch but different branches may overlap, so the
family as a whole need not be subset-minimal.  explanations() reduces the
family to its subset-minimal members.  For an underivable atom the same
machinery run with hypothesised facts reports which absent base facts each
almost-proof needs.

The unions the postulate audit asks for (support_union, missing_union) take
one visit per view atom the goal reaches, not one per proof branch; only when
such an atom reaches itself do they come from the proof trees.
"""

from __future__ import annotations

from .lang import EQ, Atom, Database, antichain, unique
from .semantics import RuleInstances, build_proof_tree, least_model, literal_holds


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


def _branch_union(db: Database, goal: Atom, hypothesize: bool) -> frozenset[Atom] | None:
    """The base facts that the successful branches of goal's proof tree use
    (or, with hypothesize, assume), from one post-order visit per view atom
    the goal reaches; None when one of those reaches itself, where the
    tree's loop check makes a subgoal's branches depend on its path."""
    view = db.view_predicates - {EQ}
    if goal.pred not in view:
        return frozenset([goal]) if goal.pred != EQ and (goal in db.edb) != hypothesize else frozenset()
    model = least_model(db)
    instances = RuleInstances(db.idb, db.universe() | set(goal.args))

    def subgoals(a: Atom):
        return (l.atom for r in instances[a] for l in r.body if not l.negated and l.atom.pred in view)

    # None for a view atom none of whose instances succeeds; an explicit
    # stack, since deep chains go deeper than the recursion limit
    unions: dict[Atom, set[Atom] | None] = {}
    path = {goal}
    stack = [(goal, subgoals(goal))]
    while stack:
        atom, todo = stack[-1]
        for b in todo:
            if b in path:
                return None
            if b not in unions:
                path.add(b)
                stack.append((b, subgoals(b)))
                break
        else:
            stack.pop()
            path.discard(atom)
            found = None
            for r in instances[atom]:
                got: set[Atom] = set()
                for lit in r.body:
                    b = lit.atom
                    if b.pred == EQ or lit.negated:
                        below = () if literal_holds(lit, model) else None
                    elif b.pred in view:
                        below = unions[b]
                    else:  # a stored fact is used, an absent one assumed
                        below = (b,) if (b in db.edb) != hypothesize else () if hypothesize else None
                    if below is None:
                        break
                    got.update(below)
                else:
                    found = got.union(found or ())
            unions[atom] = found
    return frozenset(unions[goal] or ())


def support_union(db: Database, atom: Atom) -> frozenset[Atom]:
    """Every stored fact touched by some proof of atom: one visit per view
    atom, or local_explanations when a view atom reaches itself."""
    union = _branch_union(db, atom, False)
    return frozenset().union(*local_explanations(db, atom)) if union is None else union


def missing_union(db: Database, atom: Atom) -> frozenset[Atom]:
    """Every absent base fact touched by some almost-proof of atom: one
    visit per view atom, or missing_support when a view atom reaches itself."""
    union = _branch_union(db, atom, True)
    return frozenset().union(*missing_support(db, atom)) if union is None else union
