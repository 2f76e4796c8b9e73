"""View deletion through contrapositive clauses and a splitting tableau.

To delete a derivable view atom, every proof of it must lose a stored fact.
The ground rules that actually fire are turned into contrapositives: from
``p :- a, e`` comes ``del(a) or del(e) :- del(p)``, written here with negated
literals standing for the deletions.  A tableau over these clauses, seeded
with the deletion request, splits on each disjunction; every open saturated
branch collects one complete way of cutting all proofs, and its stored-fact
part is a candidate deletion.

Splitting alone builds every such way: 2^n open branches on a chain of n
links with two supports each.  Given the stored facts, the tableau splits
with complements, so a child that deletes a stored fact keeps the derived
atom it could have deleted instead; on a database without negation its
open branches still reach every minimal cut, and contraction
(revision.kernel_change) takes its cuts from there too.  The raw tableau
stays for rules with negated literals, whose cuts go through the
put-one-back test, and for the materialized variant below.

The materialized variant offers every branch cut, with no minimality
filter.  Its program is the same contrapositives plus those of the violated
denials.  Moving the true atoms of every ground rule and denial across the
arrow, negated, and leaving the false ones in place gives the same tableau
from a delete request: every other clause keeps a false atom as a positive
body literal, and no clause puts one on a branch.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .lang import EQ, Atom, Database, Literal, Rule, SearchLog, Transaction, antichain, unique
from .semantics import check_ic, firing_instances, least_model, reduct


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


def transform_rules(rules: Iterable[Rule]) -> tuple[Clause, ...]:
    """The contrapositive ``not b1 ; ... ; not bk :- not h`` of each ground
    rule ``h :- b1, ..., bk``; a denial's has an empty body.  Rules must be
    ground and free of negation."""
    out: list[Clause] = []
    for r in rules:
        head: list[Literal] = []
        for lit in r.body:
            if lit.negated:
                raise ValueError("transformation expects negation-free rules, got %s" % r)
            head.append(Literal(lit.atom, negated=True))
        body = () if r.head is None else (Literal(r.head, negated=True),)
        out.append(Clause(tuple(head), body))
    return tuple(out)


def deletion_program(db: Database) -> tuple[Clause, ...]:
    """Contrapositives of exactly the ground rules that fire in the model.

    Rules whose body fails in the model contribute nothing to any proof, so
    they are dropped rather than translated; keeping them would send the
    tableau chasing deletions of facts that are not even stored.
    """
    return transform_rules(
        Rule(r.head, tuple(l for l in r.body if not l.negated and l.atom.pred != EQ))
        for r in firing_instances(db.idb, least_model(db), db.universe())
    )


def materialized_program(db: Database) -> tuple[Clause, ...]:
    """deletion_program plus the contrapositives of the violated denials,
    whose negated and eq literals reduct settles against the model: the
    only clauses a delete request can apply (see the module docstring)."""
    return deletion_program(db) + transform_rules(reduct(check_ic(db), least_model(db), db.universe()))


def delete_request(atom: Atom) -> Clause:
    return Clause((Literal(atom, negated=True),))


@dataclass(frozen=True)
class Branch:
    """A finished branch: its literals in the order they were added.

    held is the branch as a literal mask over Tableau.atoms.  Under
    complement splitting it also has the complements the branch assumed,
    which order leaves out.  It takes no part in comparisons.
    """

    order: tuple[Literal, ...]
    closed: bool
    held: int = field(default=0, compare=False, repr=False)

    @property
    def literals(self) -> frozenset[Literal]:
        return frozenset(self.order)


@dataclass(frozen=True)
class Tableau:
    """Finished branches plus search effort counters.

    peak_live is the largest number of branches simultaneously pending
    during the depth-first construction; it stays small even when the
    number of finished branches explodes.  atoms[k] owns bits 2k
    (positive) and 2k+1 (negated) of each Branch.held; like held, it
    takes no part in comparisons.
    """

    branches: tuple[Branch, ...]
    peak_live: int
    expansions: int
    atoms: tuple[Atom, ...] = field(default=(), compare=False, repr=False)

    def open(self) -> tuple[Branch, ...]:
        return tuple(b for b in self.branches if not b.closed)


def build_tableau(
    clauses: Sequence[Clause], request: Clause, stored: frozenset[Atom] | None = None
) -> Tableau:
    """Depth-first saturation, always applying the first applicable clause.

    A clause applies to a branch when its body is contained in the branch
    and none of its head literals is already there.  Applying it splits the
    branch per head literal; a literal whose complement is on the branch
    closes its child, an empty head closes the branch itself.  Termination:
    every child strictly grows the branch within a fixed literal universe.

    Each atom of the program gets two bits, one per sign, so a branch is
    an integer mask.  Each body bit watches the clauses it occurs in, and
    each pending branch carries a heap of the clauses whose body it holds:
    a child pushes the clauses its new literals complete, and a clause
    whose head the branch holds is popped for good, since a branch only
    grows.  The heap minimum is then the first applicable clause in
    program order, so without stored facts the branches, their order,
    peak_live and expansions are those of a scan over literal sets.

    Given the stored facts, the tableau splits with complements (Aravindan
    & Baumgartner, J. Symb. Comp. 2000; Niemelä, TABLEAUX 1996): the head
    literals are ranked, those over derived (non-stored) atoms first, then
    in head order, and child j also holds the complement of every head
    literal ranked ahead of it.  A model of the clauses that makes several
    head literals true is kept by the child of the first-ranked one, so
    every model is still compatible with an open branch, while branches
    that delete a stored fact where a derived atom could go instead close.
    Children are still explored in head order.
    """
    program = (request,) + tuple(clauses)
    index: dict[Atom, int] = {}  # atom k: bit 2k positive, bit 2k+1 negated
    # bit position -> the clauses with it in their body
    watch: defaultdict[int, list[int]] = defaultdict(list)
    bodies: list[int] = []
    heads: list[int] = []
    # per clause, per head literal: the literal, the bits its child adds
    # and their complements, which close the child when held
    splits: list[tuple[tuple[Literal, int, int], ...]] = []
    for i, c in enumerate(program):
        body = 0
        for lit in c.body:
            k = 2 * index.setdefault(lit.atom, len(index)) + lit.negated
            if not body & 1 << k:
                watch[k].append(i)
                body |= 1 << k
        head = 0
        split = []
        for lit in c.head:
            k = 2 * index.setdefault(lit.atom, len(index)) + lit.negated
            head |= 1 << k
            split.append((lit, 1 << k, 1 << (k ^ 1)))
        if stored is not None:  # derived atoms ranked ahead of stored ones
            kept = ahead = 0
            for j in sorted(range(len(split)), key=lambda j: (c.head[j].atom in stored, j)):
                lit, own, complement = split[j]
                split[j] = (lit, own | kept, complement | ahead)
                kept |= complement
                ahead |= own
        bodies.append(body)
        heads.append(head)
        splits.append(tuple(split))
    ready = [i for i, body in enumerate(bodies) if not body]  # sorted, so a heap
    stack: list[tuple[tuple[Literal, ...], int, list[int]]] = [((), 0, ready)]
    branches: list[Branch] = []
    peak = 0
    expansions = 0
    while stack:
        peak = max(peak, len(stack))
        order, held, heap = stack.pop()
        while heap and heads[heap[0]] & held:
            heapq.heappop(heap)
        if not heap:
            branches.append(Branch(order, False, held))
            continue
        expansions += 1
        split = splits[heapq.heappop(heap)]  # every child holds one of its head literals
        if not split:
            branches.append(Branch(order, True, held))
            continue
        children: list[tuple[tuple[Literal, ...], int, list[int]]] = []
        for disjunct, adds, clashes in split:
            grown = held | adds
            if clashes & grown:
                branches.append(Branch(order + (disjunct,), True, grown))
                continue
            # Push the clauses the new bits complete.  A complement-split
            # child adds several bits, so a clause may go in twice; the
            # copy left after the first is applied has its head held.
            child = heap.copy()
            missing = ~grown
            new = adds & ~held
            while new:
                low = new & -new
                new ^= low
                for c in watch.get(low.bit_length() - 1, ()):
                    if not bodies[c] & missing:
                        heapq.heappush(child, c)
            children.append((order + (disjunct,), grown, child))
        stack.extend(reversed(children))
    return Tableau(tuple(branches), peak, expansions, tuple(index))


def _positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def branch_deletions(tableau: Tableau, stored: frozenset[Atom]) -> tuple[frozenset[Atom], ...]:
    """The stored facts each open branch wants gone, in branch order: its
    negated stored atoms.  Each atom negated on some open branch is looked
    up in stored once, and each branch's cut is read off its mask."""
    atoms = tableau.atoms
    branches = tableau.open()
    held = 0
    for b in branches:
        held |= b.held
    mask = 0  # the negated bits of the stored atoms
    for k in _positions(held):
        if k & 1 and atoms[k >> 1] in stored:
            mask |= 1 << k
    return tuple(frozenset(atoms[k >> 1] for k in _positions(b.held & mask)) for b in branches)


def strongly_minimal(db: Database, atom: Atom, candidate: frozenset[Atom], log: SearchLog | None = None) -> bool:
    """True when removing the candidate's stored facts makes atom
    underivable and putting any single one back restores a proof of it.
    The changed databases are applied on the request's log, if given."""
    cut = Transaction(frozenset(), candidate)
    return atom not in least_model(cut.apply(db, log)) and all(
        atom in least_model(back) for back in cut.undo_each(db, candidate, log)
    )


def deletion_candidates(db: Database, atom: Atom, log: SearchLog | None = None) -> tuple[frozenset[Atom], ...]:
    """Sets of stored facts whose removal makes atom underivable.

    An atom that is not derivable to begin with needs no deletion and
    yields the single empty candidate.

    On a monotone database (Database.monotone) removing facts only removes
    proofs, and the minimal cuts are the subset-minimal stored-fact parts
    of the complement-split tableau's open branches: every open branch is
    a cut, and every minimal cut is the cut of some open branch.  They come
    in the order of the branch that first reaches each, with no model
    computed.  A negated literal, even over a base predicate, lets a
    removal create a proof, so on any other database the tableau splits
    without complements, and each distinct branch cut, in branch order,
    goes through strongly_minimal on the request's log.
    """
    if atom not in least_model(db):
        return (frozenset(),)
    stored = db.edb if db.monotone else None
    tableau = build_tableau(deletion_program(db), delete_request(atom), stored)
    candidates = unique(branch_deletions(tableau, db.edb))
    if stored is None:
        return tuple(c for c in candidates if strongly_minimal(db, atom, c, log))
    return tuple(antichain(candidates))
