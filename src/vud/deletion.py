"""View deletion through contrapositive clauses and a splitting tableau.

To delete a derivable view atom, every proof of it must lose a stored fact.
The ground rules that actually fire are turned into contrapositives: from
``p :- a, e`` comes ``del(a) or del(e) :- del(p)``, written here with negated
literals standing for the deletions.  A tableau over these clauses, seeded
with the deletion request, splits on each disjunction; every open saturated
branch collects one complete way of cutting all proofs, and its stored-fact
part is a candidate deletion.

A second transformation pivots on the current model instead of deleting
everything: atoms true in the model move across the arrow negated, atoms
false in it stay in place.  It keeps every rule instance, but from a delete
request only the clauses of firing instances and violated denials ever
apply (every other clause has a positive body literal, and no clause puts
one on a branch), so its branches hold deletions only; what it changes is
that every branch cut is offered, with no minimality filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .lang import EQ, Atom, Database, Literal, Rule, SearchLog, Transaction, antichain, unique
from .semantics import firing_instances, least_model, reduct


@dataclass(frozen=True)
class Clause:
    """Disjunctive clause: body conjunction implies head disjunction."""

    head: tuple[Literal, ...]
    body: tuple[Literal, ...] = ()

    def __str__(self) -> str:
        head = " ; ".join(str(l) for l in self.head)
        if not self.body:
            return head or ":-"
        body = ", ".join(str(l) for l in self.body)
        return "%s :- %s" % (head, body) if head else ":- " + body


def transform_rules(rules: Iterable[Rule], pivot: frozenset[Atom]) -> tuple[Clause, ...]:
    """Move every atom of each ground rule that lies in the pivot across the
    arrow, negated.  Rules must be ground and free of negation."""
    out: list[Clause] = []
    for r in rules:
        head: list[Literal] = []
        body: list[Literal] = []
        if r.head is not None:
            if r.head in pivot:
                body_tail = [Literal(r.head, negated=True)]
            else:
                head.append(Literal(r.head))
                body_tail = []
        else:
            body_tail = []
        for lit in r.body:
            if lit.negated:
                raise ValueError("transformation expects negation-free rules, got %s" % r)
            if lit.atom in pivot:
                head.append(Literal(lit.atom, negated=True))
            else:
                body.append(Literal(lit.atom))
        out.append(Clause(tuple(head), tuple(body + body_tail)))
    return tuple(out)


def deletion_program(db: Database) -> tuple[Clause, ...]:
    """Contrapositives of exactly the ground rules that fire in the model.

    Rules whose body fails in the model contribute nothing to any proof, so
    they are dropped rather than translated; keeping them would send the
    tableau chasing deletions of facts that are not even stored.
    """
    model = least_model(db)
    fired = [
        Rule(r.head, tuple(l for l in r.body if not l.negated and l.atom.pred != EQ))
        for r in firing_instances(db.idb, model, db.universe())
    ]
    return transform_rules(fired, model)


def materialized_program(db: Database) -> tuple[Clause, ...]:
    """Every ground rule and constraint pivoted on the current model.

    Unlike deletion_program this keeps non-firing rules and carries the
    denial constraints along; a tableau seeded with a delete request
    applies only the firing instances and the violated denials.
    """
    model = least_model(db)
    universe = db.universe()
    clauses = list(transform_rules(reduct(db.idb, model, universe), model))
    clauses.extend(transform_rules(reduct(db.ic, model, universe), model))
    return tuple(clauses)


def delete_request(atom: Atom) -> Clause:
    return Clause((Literal(atom, negated=True),))


@dataclass(frozen=True)
class Branch:
    """A finished branch: its literals in the order they were added."""

    order: tuple[Literal, ...]
    closed: bool

    @property
    def literals(self) -> frozenset[Literal]:
        return frozenset(self.order)


@dataclass(frozen=True)
class Tableau:
    """Finished branches plus search effort counters.

    peak_live is the largest number of branches simultaneously pending
    during the depth-first construction; it stays small even when the
    number of finished branches explodes.
    """

    branches: tuple[Branch, ...]
    peak_live: int
    expansions: int

    def open(self) -> tuple[Branch, ...]:
        return tuple(b for b in self.branches if not b.closed)


def build_tableau(clauses: Sequence[Clause], request: Clause) -> Tableau:
    """Depth-first saturation, always applying the first applicable clause.

    A clause applies to a branch when its body is contained in the branch
    and none of its head literals is already there.  Applying it splits the
    branch per head literal; a literal whose complement is on the branch
    closes its child, an empty head closes the branch itself.  Termination:
    every child strictly grows the branch within a fixed literal universe.

    Each atom of the program gets two bits, one per sign, so a pending
    branch is its literal order plus an integer mask, and each clause a
    body mask, a head mask and its head literals with their own and their
    complement's bit.  The selection rule is unchanged: clauses are tried
    in program order, so the branches, their order, peak_live and
    expansions are those of a scan over literal sets.
    """
    program = (request,) + tuple(clauses)
    index: dict[Atom, int] = {}  # atom k: bit 2k positive, bit 2k+1 negated
    compiled: list[tuple[int, int, tuple[tuple[Literal, int, int], ...]]] = []
    for c in program:
        body = head = 0
        for lit in c.body:
            body |= 1 << (2 * index.setdefault(lit.atom, len(index)) + lit.negated)
        disjuncts = []
        for lit in c.head:
            k = 2 * index.setdefault(lit.atom, len(index))
            own = 1 << (k + lit.negated)
            head |= own
            disjuncts.append((lit, own, 1 << (k + (not lit.negated))))
        compiled.append((body, head, tuple(disjuncts)))
    stack: list[tuple[tuple[Literal, ...], int]] = [((), 0)]
    branches: list[Branch] = []
    peak = 0
    expansions = 0
    while stack:
        peak = max(peak, len(stack))
        order, held = stack.pop()
        absent = ~held
        for body, head, disjuncts in compiled:
            if not body & absent and not head & held:
                break
        else:
            branches.append(Branch(order, closed=False))
            continue
        expansions += 1
        if not disjuncts:
            branches.append(Branch(order, closed=True))
            continue
        children: list[tuple[tuple[Literal, ...], int]] = []
        for disjunct, own, complement in disjuncts:
            if complement & held:
                branches.append(Branch(order + (disjunct,), closed=True))
            else:
                children.append((order + (disjunct,), held | own))
        stack.extend(reversed(children))
    return Tableau(tuple(branches), peak, expansions)


def branch_deletions(branch: Branch, edb: frozenset[Atom]) -> frozenset[Atom]:
    """The stored facts a branch wants gone."""
    return frozenset(l.atom for l in branch.order if l.negated and l.atom in edb)


def strongly_minimal(db: Database, atom: Atom, candidate: frozenset[Atom], log: SearchLog | None = None) -> bool:
    """True when removing the candidate's stored facts makes atom
    underivable and putting any single one back restores a proof of it.
    The changed databases are applied on the request's log, if given."""
    cut = Transaction(frozenset(), candidate)
    return atom not in least_model(cut.apply(db, log)) and all(
        atom in least_model(back) for back in cut.undo_each(db, candidate, log)
    )


def deletion_candidates(db: Database, atom: Atom, log: SearchLog | None = None) -> tuple[frozenset[Atom], ...]:
    """Sets of stored facts whose removal makes atom underivable, in
    tableau branch order.

    Each open branch's deletions are a candidate; those that delete more
    than needed are dropped.  An atom that is not derivable to begin with
    needs no deletion and yields the single empty candidate.

    On a monotone database (Database.monotone) removing facts only removes
    proofs: every open branch is a cut, the branches hold every minimal cut,
    and the put-one-back test holds for a cut exactly when no other branch
    cut is a strict subset of it.  So antichain keeps the subset-minimal
    cuts, with no model computed.  A negated literal, even over a base
    predicate, lets a removal create a proof, so any other database puts
    each candidate through strongly_minimal, on the request's log.
    """
    if atom not in least_model(db):
        return (frozenset(),)
    tableau = build_tableau(deletion_program(db), delete_request(atom))
    candidates = unique(branch_deletions(b, db.edb) for b in tableau.open())
    if not db.monotone:
        return tuple(c for c in candidates if strongly_minimal(db, atom, c, log))
    return tuple(antichain(candidates))
