"""The update engine: turn a view-level request into fact-level changes.

A request names atoms to insert and atoms to delete.  Each goal first gets
its own candidate family (the world search for insertions, the tableau for
deletions; base atoms are changed directly), the families are combined, and
every combination is verified against the whole request and the constraints,
unless that is proved (deletions alone on a monotone, consistent database).
A combination that fails is re-expanded against its own result state, so
goals that interact (one goal's change breaking another) are still solved;
constraint violations go through the repair search.

All of these searches run on lang.breadth_first and draw on the request's
one SearchLog: MAX_STATES states for the whole request, the one limit.
Every insertion search ranges over the log's constants, db's and the goals',
so each ends by itself or there, returning what it has and marking the log,
which ends up as the exhausted flag on the result or the error.  If nothing
survives, the request is unrealizable; the error traces what was tried.
The same log keeps the changed databases the request reaches, so each is
built, and its model computed, once per request, whether a search, the
verifying step or the postulate audit asks for it.

Two variants: "minimal" filters each family and the final alternatives
down to an antichain of smallest changes; "materialized" runs deletions on
the transformed program for the whole database and reports the deletions
of every verified branch.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .deletion import (
    branch_deletions,
    build_tableau,
    delete_request,
    deletion_candidates,
    materialized_program,
)
from .insertion import insertion_candidates
from .lang import (
    MAX_STATES, Atom, Database, SearchLog, Transaction, antichain,
    breadth_first, check_goal, unique,
)
from .revision import rationality_report, repair_constraints
from .semantics import check_ic, least_model, removals_settled


# longest trace an UnrealizableError carries
MAX_TRACE = 40


class UnrealizableError(Exception):
    """No fact-level change realises the request.

    exhausted means some search stopped at its limit, so the verdict is
    inconclusive rather than a proof that no change exists.
    """

    def __init__(self, message: str, trace: tuple[str, ...] = (), exhausted: bool = False):
        super().__init__(message)
        self.trace = trace
        self.exhausted = exhausted

    def __str__(self) -> str:
        base = super().__str__()
        if not self.trace:
            return base
        return base + "\n  " + "\n  ".join(self.trace)


@dataclass(frozen=True)
class UpdateRequest:
    inserts: tuple[Atom, ...] = ()
    deletes: tuple[Atom, ...] = ()

    def __str__(self) -> str:
        parts = ["+%s" % a for a in self.inserts] + ["-%s" % a for a in self.deletes]
        return ", ".join(parts) if parts else "no change"

    @property
    def goals(self) -> tuple[tuple[str, Atom], ...]:
        return tuple(("insert", a) for a in self.inserts) + tuple(
            ("delete", a) for a in self.deletes
        )


@dataclass(frozen=True)
class PostulateReport:
    """Rationality audit of the chosen transaction for one goal."""

    goal: Atom
    operation: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(v for _, v in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(k for k, v in self.checks if not v)


@dataclass(frozen=True)
class UpdateResult:
    request: UpdateRequest
    variant: str
    alternatives: tuple[Transaction, ...]
    chosen: Transaction
    database: Database
    postulates: tuple[PostulateReport, ...] = ()
    # some search stopped at its limit: alternatives may be missing
    exhausted: bool = False


def _insert_family(
    db: Database, goal: Atom, minimality: bool, log: SearchLog
) -> tuple[Transaction, ...]:
    if goal.pred in db.view_predicates:
        return insertion_candidates(db, goal, minimality=minimality, log=log)
    if goal in db.edb:
        return (Transaction(),)
    return (Transaction(frozenset({goal}), frozenset()),)


def _delete_family(db: Database, goal: Atom, variant: str, log: SearchLog) -> tuple[Transaction, ...]:
    if goal.pred in db.view_predicates:
        if variant == "materialized":
            tableau = build_tableau(materialized_program(db), delete_request(goal))
            return unique(Transaction(frozenset(), cut) for cut in branch_deletions(tableau, db.edb))
        return tuple(
            Transaction(frozenset(), cut) for cut in deletion_candidates(db, goal, log)
        )
    if goal not in db.edb:
        return (Transaction(),)
    return (Transaction(frozenset(), frozenset({goal})),)


def view_update(
    db: Database,
    request: UpdateRequest,
    variant: str = "minimal",
) -> UpdateResult:
    """Realise the request, smallest verified change first.

    Combinations of the goals' candidate families are searched breadth
    first; one that misses a goal or breaks a constraint (deletions alone
    cannot where semantics.removals_settled holds) is merged with the goal's
    family or the repairs of its own result.  Every search the request
    starts shares one SearchLog, so MAX_STATES bounds the request as a
    whole; the log's constants are db's plus every goal's.  Every change the
    request applies goes through the same log, so a changed database the
    request reaches again (in a search, the verifying step or the audit) is
    the same instance, with its model; the result's database is the
    verified instance, its model computed, and the log is dropped on return.  Raises
    UnrealizableError when nothing survives, with a trace of the failed
    attempts, and ValueError for a goal that lang.check_goal rejects.
    """
    if variant not in ("minimal", "materialized"):
        raise ValueError("variant must be 'minimal' or 'materialized', got %r" % variant)
    for atom in request.inserts + request.deletes:
        check_goal(db, atom)
    contradictory = set(request.inserts) & set(request.deletes)
    if contradictory:
        raise UnrealizableError(
            "request is contradictory: %s both inserted and deleted"
            % ", ".join(sorted(map(str, contradictory)))
        )

    minimality = variant == "minimal"
    log = SearchLog.for_request(db, (goal for _, goal in request.goals))
    trace: list[str] = []

    def note(line: str) -> None:
        if len(trace) < MAX_TRACE:
            trace.append(line)

    def family(after: Database, kind: str, goal: Atom) -> tuple[Transaction, ...]:
        if kind == "insert":
            return _insert_family(after, goal, minimality, log)
        return _delete_family(after, goal, variant, log)

    families: list[tuple[Transaction, ...]] = []
    for kind, goal in request.goals:
        stops = log.stops
        fam = family(db, kind, goal)
        if fam:
            note("%s %s: %d candidate change(s)" % (kind, goal, len(fam)))
        elif log.stops > stops:
            note("%s %s: no candidate change, the search budget ran out" % (kind, goal))
        else:
            note("%s %s: no candidate change" % (kind, goal))
        families.append(fam)

    def combinations() -> Iterator[Transaction]:
        for combo in itertools.product(*families):
            merged = functools.reduce(Transaction.merge, combo, Transaction())
            if merged.consistent:
                yield merged

    protect_present = frozenset(a for a in request.inserts if a.pred not in db.view_predicates)
    protect_absent = frozenset(a for a in request.deletes if a.pred not in db.view_predicates)
    settled = not request.inserts and removals_settled(db)

    def extend(tx: Transaction, extras: Iterable[Transaction], failure: str) -> list[Transaction]:
        grown = tx.grow(extras, protect_present, protect_absent)
        if not grown:
            note("%s: %s" % (tx, failure))
        return grown

    def repairs(tx: Transaction, after: Database) -> tuple[Transaction, ...]:
        outcome = repair_constraints(after, tx.additions | protect_present, tx.removals | protect_absent, log)
        if outcome.exhausted:
            note("%s: constraint repair exhausted" % tx)
        return outcome.transactions

    def step(tx: Transaction, depth: int) -> Callable[[], list[Transaction]] | None:
        after = tx.apply(db, log)
        model = least_model(after)
        for kind, goal in request.goals:
            if (goal in model) != (kind == "insert"):
                failure = "%s %s not achieved" % (kind, goal)
                return lambda: extend(tx, family(after, kind, goal), failure)
        violated = check_ic(after)
        if violated:
            return lambda: extend(tx, repairs(tx, after), "violates '%s'" % violated[0])
        return None

    verified = breadth_first(combinations(), (lambda *_: None) if settled else step, log)
    if not verified:
        if log.exhausted:
            note("the search budget ran out: %d states per request" % MAX_STATES)
        if all(families) and next(combinations(), None) is None:
            note("all combined candidates were self-contradictory")
        message = "cannot realise %s" % request
        if log.exhausted:
            message += " within the search budget"
        raise UnrealizableError(message, tuple(trace), exhausted=log.exhausted)

    if minimality:
        verified = antichain(verified)
    alternatives = tuple(sorted(verified, key=Transaction.rank_key))
    chosen = alternatives[0]
    # the instance the search verified, which keeps its model and violations
    after = chosen.apply(db, log)
    least_model(after)

    postulates: tuple[PostulateReport, ...] = ()
    if len(request.goals) == 1:
        (kind, goal), = request.goals
        if goal.pred in db.view_predicates:
            report = rationality_report(db, goal, chosen, kind, log)
            postulates = (PostulateReport(goal, kind, tuple(report.items())),)

    return UpdateResult(
        request=request,
        variant=variant,
        alternatives=alternatives,
        chosen=chosen,
        database=after,
        postulates=postulates,
        exhausted=log.exhausted,
    )
