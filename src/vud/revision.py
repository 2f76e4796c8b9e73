"""Belief change over the stored facts.

Rules and constraints are the immutable part of the knowledge base; the
stored facts are up for revision.  Contraction retracts an atom by removing
facts, revision accepts an atom by adding (and, when a constraint forces
it, removing) facts.  Candidates come from the atom's explanations: every
minimal stored support is a kernel, and a change is rational when it cuts
or completes kernels and nothing else.  On a database without negation
the minimal cuts of the kernels are those of the complement-split
deletion tableau, so contraction takes them from there, with no proof
tree or hitting-set family built.  Constraint repair, and the single
repair round that contraction and revision grant a candidate, run on
lang.breadth_first with one SearchLog per operation, which also keeps
the changed databases and the constants (the database's and the atom's)
its checks and repairs use.  rationality_report states the postulates
operationally so a result can be audited; closure holds by construction,
since a changed database's belief set is the perfect model of the
unchanged rules.  The equivalence and preservation checks, which only
tests call, are in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .deletion import deletion_candidates
from .explain import (
    local_explanations,
    minimal_members,
    missing_support,
    missing_union,
    support_union,
)
from .hitting import minimal_hitting_sets
from .insertion import disarm_steps, insertion_candidates
from .lang import Atom, Database, SearchLog, Transaction, antichain, breadth_first, check_goal
from .semantics import check_ic, fixpoint_model, least_model, removals_settled


def kernel_change(db: Database, atom: Atom, operation: str) -> tuple[Transaction, ...]:
    """Raw kernel-level candidates, smallest first, before any goal or
    constraint check.

    Deleting: every kernel (minimal stored support of atom) must lose a
    member, so candidates are the minimal hitting sets of the kernel
    family.  On a monotone database (Database.monotone) those are the
    minimal cuts, taken from deletion_candidates' complement-split
    tableau and put in the hitting sets' order.  An atom the rules derive
    with no fact stored has an empty kernel and no cut, with negation or
    without.

    Inserting: one missing support set must be stored whole, so each
    minimal member is a candidate, even one that misses the goal once
    stored because a negated subgoal turns false; revise checks it.  The
    family comes from one visit per view atom (explain.missing_support),
    so no proof tree is built unless a view atom reaches itself.
    """
    model = least_model(db)
    if operation == "delete":
        if atom not in model:
            return (Transaction(),)
        if db.monotone:
            cuts = minimal_members(deletion_candidates(db, atom))
        else:
            kernels = local_explanations(db, atom)
            cuts = () if frozenset() in kernels else minimal_hitting_sets(kernels)
        return tuple(Transaction(frozenset(), cut) for cut in cuts)
    if operation == "insert":
        if atom in model:
            return (Transaction(),)
        family = minimal_members(missing_support(db, atom))
        txs = [Transaction(adds, frozenset()) for adds in family]
        return tuple(sorted(txs, key=Transaction.rank_key))
    raise ValueError("operation must be 'insert' or 'delete', got %r" % operation)


# --- constraint repair -------------------------------------------------------


@dataclass(frozen=True)
class RepairOutcome:
    """Repairs found for a constraint-violating database.

    exhausted means the search, or one it started, stopped at a limit, so
    an empty transaction list is inconclusive rather than a proof of
    impossibility.
    """

    transactions: tuple[Transaction, ...]
    exhausted: bool


def repair_constraints(
    db: Database,
    protect_present: frozenset[Atom] = frozenset(),
    protect_absent: frozenset[Atom] = frozenset(),
    log: SearchLog | None = None,
) -> RepairOutcome:
    """Smallest fact changes that make every constraint hold again.

    Breadth first over transactions, one round per disarmed denial: a
    violated denial instance is disarmed by retracting one of its true body
    atoms (through the deletion machinery when the atom is a view) or by
    storing the atom under one of its negated literals.  protect_present
    facts may not be removed, protect_absent atoms may not be added.
    """
    if log is None:
        log = SearchLog.for_request(db, ())
    stops = log.stops

    def step(tx: Transaction, depth: int) -> Callable[[], list[Transaction]] | None:
        after = tx.apply(db, log)
        violated = check_ic(after)
        if not violated:
            return None
        steps = disarm_steps(after, violated[0], lambda a: insertion_candidates(after, a, log=log), log)
        return lambda: tx.grow(steps, protect_present, protect_absent)

    found = breadth_first([Transaction()], step, log)
    keep = sorted(antichain(found), key=Transaction.rank_key)
    return RepairOutcome(tuple(keep), log.stops > stops)


# --- the two change operations ----------------------------------------------


def _finalize(
    db: Database,
    atom: Atom,
    raw: tuple[Transaction, ...],
    want_derivable: bool,
) -> tuple[Transaction, ...]:
    """The raw candidates that reach the goal without breaking a constraint
    (proved where semantics.removals_settled holds), plus one round of
    repairs on the same SearchLog for those that break one, which must
    still reach the goal, its constants db's and atom's."""
    protect_goal = frozenset() if want_derivable else frozenset({atom})
    settled = not want_derivable and removals_settled(db)
    log = SearchLog.for_request(db, (atom,))

    def step(tx: Transaction, depth: int) -> Callable[[], list[Transaction]] | None:
        after = tx.apply(db, log)
        if (atom in least_model(after)) != want_derivable:
            return list  # a dead end: no children
        if not check_ic(after):
            return None
        if depth > 0:
            return list
        outcome = repair_constraints(after, tx.additions, tx.removals | protect_goal, log)
        return lambda: tx.grow(outcome.transactions)

    found = breadth_first(raw, (lambda *_: None) if settled else step, log)
    return tuple(sorted(antichain(found), key=Transaction.rank_key))


def contract(db: Database, atom: Atom) -> tuple[Transaction, ...]:
    """Fact removals after which atom is no longer derivable, smallest
    first.  Constraint violations caused by a removal are repaired on the
    spot; repairs may not resurrect the atom.  Raises ValueError for an
    atom that is no update goal of db (see lang.check_goal)."""
    check_goal(db, atom)
    if atom not in least_model(db):
        return (Transaction(),)
    return _finalize(db, atom, kernel_change(db, atom, "delete"), False)


def revise(db: Database, atom: Atom) -> tuple[Transaction, ...]:
    """Fact changes after which atom is derivable and the constraints
    hold, smallest first.  Raises ValueError for an atom that is no
    update goal of db (see lang.check_goal)."""
    check_goal(db, atom)
    if atom in least_model(db) and not check_ic(db):
        return (Transaction(),)
    return _finalize(db, atom, kernel_change(db, atom, "insert"), True)


# --- rationality postulates --------------------------------------------------


def derivable_without_facts(db: Database, atom: Atom) -> bool:
    """Does the atom follow from the rules alone, with nothing stored?"""
    return atom in fixpoint_model(db.idb, frozenset(), db.universe() | set(atom.args))


def rationality_report(
    db: Database, atom: Atom, tx: Transaction, operation: str, log: SearchLog | None = None
) -> dict[str, bool]:
    """Audit one candidate change against the rationality postulates.

    The changed databases are applied on log when one is given: the
    request's log already holds the result and, for a candidate its search
    put through the put-one-back test, each database with one change
    undone, with their models.

    Keys and their operational readings, for deleting / inserting:

      closure              the result's belief set is closed under the rules;
                           true by construction, it is the result's model
      weak-success         the atom is gone (resp. present), unless it holds
                           with no facts stored at all (resp. no consistent
                           way to accept it exists)
      inclusion            nothing was added (resp. additions licensed by
                           some missing support set of the atom)
      immutable-inclusion  rules and constraints survive untouched
      vacuity              an already-absent (resp. already-present and
                           consistent) atom changes nothing
      consistency          the result satisfies the constraints
      weak-relevance       removals confined to the atom's stored support
                           (resp. additions to its missing support)
      strong-relevance     every single change is pivotal for the atom
    """
    if operation not in ("delete", "insert"):
        raise ValueError("operation must be 'insert' or 'delete', got %r" % operation)
    before = least_model(db)
    after_db = tx.apply(db, log)
    after = least_model(after_db)
    report: dict[str, bool] = {}
    # after is least_model(after_db), which _Joins.saturate derives to fixpoint component by component
    report["closure"] = True
    report["immutable-inclusion"] = (
        after_db.idb == db.idb and after_db.ic == db.ic
    )
    report["consistency"] = not check_ic(after_db)
    if operation == "delete":
        report["weak-success"] = atom not in after or derivable_without_facts(db, atom)
        report["inclusion"] = not tx.additions
        report["vacuity"] = atom in before or tx.is_empty
        license_ = support_union(db, atom)
        report["weak-relevance"] = tx.removals <= license_
        cut = Transaction(frozenset(), tx.removals)
        report["strong-relevance"] = (atom not in after or not tx.removals) and all(
            atom in least_model(back) for back in cut.undo_each(db, tx.removals, log)
        )
    else:
        report["weak-success"] = atom in after
        report["inclusion"] = tx.additions <= missing_union(db, atom)
        report["vacuity"] = atom not in before or bool(check_ic(db)) or tx.is_empty
        report["weak-relevance"] = report["inclusion"]
        report["strong-relevance"] = not any(
            atom in least_model(slim) for slim in tx.undo_each(db, tx.additions, log)
        )
    return report


CONTRACTION_GUARANTEES = (
    "closure",
    "weak-success",
    "inclusion",
    "immutable-inclusion",
    "vacuity",
    "consistency",
    "weak-relevance",
    "strong-relevance",
)

REVISION_GUARANTEES = (
    "closure",
    "weak-success",
    "immutable-inclusion",
    "vacuity",
    "consistency",
)
