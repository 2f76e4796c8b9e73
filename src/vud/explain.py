"""Explanations: which base facts a derivable atom rests on.

A local explanation is the set of stored facts consumed by one proof branch;
it is minimal for that branch but different branches may overlap, so the
family as a whole need not be subset-minimal.  explanations() reduces the
family to its subset-minimal members.  For an underivable atom the same
machinery run with hypothesised facts reports which absent base facts each
almost-proof needs.

The unions the postulate audit asks for (support_union, missing_union) and
the missing-support family revision stores from (missing_support) take one
visit per view atom the goal's proof tree expands, not one per proof
branch; only when such an atom reaches itself, where the tree has a loop
leaf, do they come from the proof trees.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .lang import EQ, Atom, Database, Literal, antichain, unique
from .semantics import RuleInstances, build_proof_tree, least_model, literal_holds

V = TypeVar("V")
Family = tuple[frozenset[Atom], ...]


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
    absent base facts were stored, in proof order, each once, the sets
    that need no assumption left out: one visit per view atom, or the
    hypothesising proof tree when a view atom reaches itself."""
    family = _tabled(db, atom, True, _FAMILIES)
    if family is None:
        return unique(build_proof_tree(db, atom, hypothesize=True).hypothesised_sets())
    return tuple(s for s in family if s)


def _union(sets: Iterable[frozenset[Atom]]) -> frozenset[Atom]:
    return frozenset().union(*sets)


# the family of a literal that holds with nothing assumed, which _product
# passes over
_NOTHING_ASSUMED: Family = (frozenset(),)


def _product(families: Sequence[Family]) -> Family:
    """The union of one member of each family, for every choice, the first
    family's member varying slowest, each set once: the assumption sets of
    a conjunction's branches in proof order, since a duplicate never comes
    before its first occurrence."""
    out = _NOTHING_ASSUMED
    for family in families:
        if out is _NOTHING_ASSUMED:
            out = family
        elif family is not _NOTHING_ASSUMED:
            out = unique(a | b for a in out for b in family)
    return out


def _concat(families: Sequence[Family]) -> Family:
    return families[0] if len(families) == 1 else unique(s for family in families for s in family)


# How _tabled folds a goal's branches: (unit, times, plus), where unit(b)
# is the value of one base fact, times that of a conjunction and plus that
# of an atom's alternatives.  The union of the facts the branches touch,
# or the family of their assumption sets (every value here holds each set
# once, so _concat may return a lone family as it is).
_Fold = tuple[Callable[[Atom], V], Callable[[Sequence[V]], V], Callable[[Sequence[V]], V]]
_UNIONS: _Fold = (lambda b: frozenset([b]), _union, _union)
_FAMILIES: _Fold = (lambda b: (frozenset([b]),), _product, _concat)


def _tabled(db: Database, goal: Atom, hypothesize: bool, fold: _Fold) -> V | None:
    """goal's successful proof branches folded from one post-order visit
    per view atom the goal's tree expands; None when one of those reaches
    itself, where the tree's loop check makes a subgoal's branches depend
    on its path.  Such a goal is kept on the database with the mode, so
    later calls in that mode go to the trees without a walk.

    A base fact is unit(b) when the branch uses it (stored) or, with
    hypothesize, assumes it (absent); a stored fact with hypothesize and a
    negated or eq literal that holds are times(()); any other literal
    fails its branch.  An instance's value is times of its body literals'
    values, folded left to right: a view subgoal is visited when the fold
    reaches it, where the tree expands it, and without hypothesize a view
    atom outside the model fails unvisited.  A view atom's value is plus
    of its succeeding instances' values in order.
    """
    if not goal.is_ground:
        raise ValueError("explanations require a ground goal, got %s" % goal)
    kept = vars(db)
    if (goal, hypothesize) in kept.get("_self_reaching", ()):
        return None
    unit, times, plus = fold
    model = least_model(db)
    view = db.view_predicates - {EQ}
    # None for a literal that fails and a view atom none of whose
    # instances succeeds
    values: dict[Atom, V | None] = {}

    def visited(b: Atom) -> bool:
        return b.pred in view and (hypothesize or b in model)

    def value(lit: Literal) -> V | None:
        b = lit.atom
        if b.pred == EQ or lit.negated:
            return times(()) if literal_holds(lit, model) else None
        if b.pred in view:
            return values[b] if visited(b) else None
        if (b in db.edb) != hypothesize:
            return unit(b)
        return times(()) if hypothesize else None

    def fold_instances(atom: Atom) -> Iterator[Atom]:
        """Yields each view subgoal the fold reaches unvalued, which must be
        valued before the fold resumes; values atom at the end."""
        branches = []
        for r in instances[atom]:
            got = []
            for lit in r.body:
                if not lit.negated and visited(lit.atom) and lit.atom not in values:
                    yield lit.atom
                v = value(lit)
                if v is None:
                    break
                got.append(v)
            else:
                branches.append(times(got))
        values[atom] = plus(branches) if branches else None

    if visited(goal):
        instances = RuleInstances(db.idb, db.universe() | set(goal.args))
        # an explicit stack, since deep chains go deeper than the recursion
        # limit
        path = {goal}
        stack = [(goal, fold_instances(goal))]
        while stack:
            atom, folding = stack[-1]
            b = next(folding, None)
            if b is None:
                stack.pop()
                path.discard(atom)
            elif b in path:
                kept.setdefault("_self_reaching", set()).add((goal, hypothesize))
                return None
            else:
                path.add(b)
                stack.append((b, fold_instances(b)))
    found = value(Literal(goal))
    return plus(()) if found is None else found


def support_union(db: Database, atom: Atom) -> frozenset[Atom]:
    """Every stored fact touched by some proof of atom: one visit per view
    atom, or local_explanations when a view atom reaches itself."""
    union = _tabled(db, atom, False, _UNIONS)
    return _union(local_explanations(db, atom)) if union is None else union


def missing_union(db: Database, atom: Atom) -> frozenset[Atom]:
    """Every absent base fact touched by some almost-proof of atom: one
    visit per view atom, or missing_support when a view atom reaches itself
    (which then goes to the tree without a second walk)."""
    union = _tabled(db, atom, True, _UNIONS)
    return _union(missing_support(db, atom)) if union is None else union
