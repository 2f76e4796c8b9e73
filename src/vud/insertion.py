"""View insertion by pushing changes down to the stored facts.

A request to insert a view atom starts a change that adds that atom.  Rules
are first normalised: every predicate defined by several rules gets a
canonical distinct-variable head X.1, X.2, ... and single-atom alternatives
(helper predicates _v.1, _v.2, ... absorb conjunctive bodies), and long
bodies are folded to two literals.  The parser reads no dot inside a name,
so no program's predicate or variable can take one of these names.  An
added view atom then propagates case by case:

  adding p for an alternative-defined predicate splits into one child per
  alternative; adding p for a conjunctive rule adds every subgoal not
  already true, with body variables outside the head instantiated jointly
  over the request's constants (SearchLog.for_request), or over one
  witness per alternative, named past them, when no stored source can bind
  them; a subgoal that must become false is removed, by the deletion
  machinery when it is a view atom.  A witness is thus the same constant in
  every search of the request, and the searches draw from one finite set.

The search explores these choices breadth first over worlds: transactions
over view and base atoms, each kept only while consistent, and known
without the alternative helpers they record, so worlds that chose the same
base changes by different alternatives are one.  A finished world's base
part is a candidate transaction, which is then verified, checked against
the constraints, and minimised.  Both the world search and the
verify-and-re-expand search over candidate transactions run on
lang.breadth_first and draw on the request's SearchLog.

The normalised rules depend on the rules alone, so their helper rules,
definitions and alternative helpers are built once per rule set and kept
with its compiled program (semantics.kept_form), where a changed database
finds them again.  The world search reads stored and view atoms from the
database's kept model, and decides a helper atom only when it asks for it:
an alternative helper is false while its view atom is absent, and any
other by a join of its helper rule seeded with the atom's arguments over
that model (semantics.SeededModel), whose compiled plans the form keeps.

Derivability (derivable, behind the minimality filter and vud query) reads
the database's model when the database already holds it or has a negated
literal.  Only a monotone database with no model yet is evaluated on a
goal-guarded rewriting of the rules (magic_query), so only atoms relevant
to the goal are derived; guards (@p, again a name no program can spell)
stand over the predicates some rule defines.  The rewriting too is kept
per rule set.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .deletion import deletion_candidates
from .lang import (
    EQ, Atom, Database, Literal, Rule, SearchLog, Transaction, antichain, breadth_first,
    is_variable, unique,
)
from .semantics import (
    SeededModel, SeededRules, check_ic, eq_holds, fixpoint_model, kept_form, least_model, match_atom, model_kept,
)

ADD = "+"
REMOVE = "-"


# --- normalisation --------------------------------------------------------


def _binarize(rule: Rule, names: Iterator[str]) -> list[Rule]:
    """rule split into rules of at most two subgoals: the first subgoal and
    a helper atom standing for the rest, which the next rule defines.  The
    helper carries the variables the rest shares with the head or the first
    subgoal; each variable's count of remaining subgoals tells which, so the
    split is linear in the body."""
    body = rule.body
    if len(body) <= 2:
        return [rule]
    literal_vars = [l.atom.variables() for l in body]
    remaining = Counter(v for vs in literal_vars for v in vs)
    head = rule.head
    head_vars = head.variables() if head is not None else frozenset()
    out: list[Rule] = []
    for n in range(len(body) - 2):
        remaining.subtract(literal_vars[n])
        carried = sorted(v for v in head_vars | literal_vars[n] if remaining[v] > 0)
        helper = Atom(next(names), tuple(carried))
        out.append(Rule(head, (body[n], Literal(helper))))
        head, head_vars = helper, frozenset(carried)
    out.append(Rule(head, body[-2:]))
    return out


def normalize_rules(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Propagation form: canonical heads X.1, X.2, ... for alternative-defined
    predicates, single-atom alternatives, at most two subgoals per rule.
    Helper predicates are named _v.1, _v.2, ...  No program can spell these
    names (lang._TOKEN_RE reads no dot inside a name), so they never meet a
    predicate or variable of the rules, and they sort where _v1 and X1 would."""
    order: list[str] = []
    groups: dict[str, list[Rule]] = {}
    for r in rules:
        if r.head is None or not r.body:
            continue
        if r.head.pred not in groups:
            order.append(r.head.pred)
        groups.setdefault(r.head.pred, []).append(r)
    names = ("_v.%d" % k for k in itertools.count(1))
    out: list[Rule] = []
    for pred in order:
        rs = groups[pred]
        if len(rs) == 1:
            out.extend(_binarize(rs[0], names))
            continue
        arity = len(rs[0].head.args)
        canon = tuple("X.%d" % i for i in range(1, arity + 1))
        canon_head = Atom(pred, canon)
        for r in rs:
            # constants and repeated variables in the head become equality
            # subgoals on the canonical head variables
            theta: dict[str, str] = {}
            eqs: list[Literal] = []
            for slot, a in zip(canon, r.head.args):
                if is_variable(a) and a not in theta:
                    theta[a] = slot
                else:
                    eqs.append(Literal(Atom(EQ, (slot, theta.get(a, a)))))
            body = tuple(eqs) + tuple(l.substitute(theta) for l in r.body)
            if len(body) == 1 and not body[0].negated and body[0].atom.pred != EQ:
                out.append(Rule(canon_head, body))
            else:
                helper = Atom(next(names), canon)
                out.append(Rule(canon_head, (Literal(helper),)))
                out.extend(_binarize(Rule(helper, body), names))
    return tuple(out)


@dataclass(frozen=True)
class ViewDefinition:
    """One predicate's normalised definition: a shared head pattern and one
    body per way of deriving it."""

    head: Atom
    alternatives: tuple[tuple[Literal, ...], ...]


def view_definitions(rules: Sequence[Rule]) -> dict[str, ViewDefinition]:
    defs: dict[str, ViewDefinition] = {}
    for r in rules:
        if r.head is None or not r.body:
            continue
        seen = defs.get(r.head.pred)
        if seen is None:
            defs[r.head.pred] = ViewDefinition(r.head, (r.body,))
        else:
            defs[r.head.pred] = ViewDefinition(seen.head, seen.alternatives + (r.body,))
    return defs


class _Form(NamedTuple):
    """The propagation form of a rule set: the helper rules of the
    normalised rules (those whose head predicate no rule of the set
    defines), compiled for head-seeded joins on first use, the definitions
    of every predicate, views and helpers alike, and the alternative
    helpers, the _v.k in p(X̄) :- _v.k(X̄) that stand for one rule of a
    predicate several rules define, each with its view p."""

    helpers: tuple[Rule, ...]
    seeded: SeededRules
    definitions: dict[str, ViewDefinition]
    alternative_helpers: dict[str, str]


def _propagation_form(idb: tuple[Rule, ...]) -> _Form:
    """The propagation form of idb.  Kept per rule set by
    semantics.kept_form, so it holds no rule of idb: helper rules are new,
    definitions hold literals."""
    normalized = normalize_rules(idb)
    views = {r.head.pred for r in idb if r.head is not None}
    helpers = tuple(r for r in normalized if r.head is not None and r.head.pred not in views)
    seeded = SeededRules(helpers)
    # a view's single-subgoal rule over a helper is one of its alternatives:
    # folding a long body never leaves a view rule with one subgoal
    alternative_helpers = {
        r.body[0].atom.pred: r.head.pred for r in normalized
        if r.head is not None and r.head.pred in views and len(r.body) == 1
        and r.body[0].atom.pred in seeded.predicates
    }
    return _Form(helpers, seeded, view_definitions(normalized), alternative_helpers)


def _form(db: Database) -> _Form:
    """The propagation form of db's rules, kept per rule set."""
    return kept_form(db.idb, _propagation_form)


def _membership(db: Database, form: _Form) -> Callable[[Atom], bool]:
    """Membership in the model of the normalised rules over db's facts, as
    the world search asks it.  Stored and view atoms are read from db's
    kept model.  An alternative helper _v.k(c̄) is false while its view atom
    p(c̄) is absent, since p(X̄) :- _v.k(X̄) is a rule; the search asks only
    then, as it lists options only for absent view atoms.  Other helper
    atoms are decided by head-seeded joins over the model
    (semantics.SeededModel), each once per search."""
    model = least_model(db)
    helper_preds, views = form.seeded.predicates, form.alternative_helpers
    derived = SeededModel(form.seeded, model, db.universe())

    def holds(atom: Atom) -> bool:
        pred = atom.pred
        if pred not in helper_preds:
            return atom in model
        view = views.get(pred)
        if view is not None and Atom(view, atom.args) not in model:
            return False
        return atom in derived

    return holds


# --- world search ----------------------------------------------------------


def _unused(pattern: str, used: Collection[str]) -> Iterator[str]:
    """pattern % 1, pattern % 2, ..., skipping the used names."""
    return (name for name in (pattern % k for k in itertools.count(1)) if name not in used)


def _options_for_add(
    defn: ViewDefinition,
    goal: Atom,
    holds: Callable[[Atom], bool],
    universe: tuple[str, ...],
    fresh: Sequence[str],
) -> list[Transaction]:
    """Joint changes, one per (alternative, instantiation) that could make
    goal derivable.  Variables outside the head range over the constants and
    the alternative's fresh witness; a constant-valued extra variable must be
    bound by some subgoal already true (holds)."""
    theta = match_atom(defn.head, goal)
    if theta is None:
        return []
    options: list[Transaction] = []
    for idx, body in enumerate(defn.alternatives):
        extra = sorted(frozenset().union(*(l.atom.variables() for l in body)) - set(theta))
        witness = fresh[idx]
        for combo in itertools.product(universe + (witness,), repeat=len(extra)):
            sigma = dict(theta)
            sigma.update(zip(extra, combo))
            ground = [l.substitute(sigma) for l in body]
            if any(l.atom.pred == EQ and not eq_holds(l) for l in ground):
                continue
            present = [g.atom.pred != EQ and holds(g.atom) for g in ground]
            sourced: set[str] = set()
            for orig, g, there in zip(body, ground, present):
                if there and not g.negated:
                    sourced.update(v for v in orig.atom.variables() if v in extra)
            if any(value != witness and v not in sourced for v, value in zip(extra, combo)):
                continue
            # subgoals not yet as the body needs them: absent positives are
            # added, present negated ones removed
            changes = [g for g, there in zip(ground, present) if g.atom.pred != EQ and there == g.negated]
            options.append(Transaction(frozenset(g.atom for g in changes if not g.negated),
                                       frozenset(g.atom for g in changes if g.negated)))
    return list(unique(options))


def insertion_worlds(db: Database, goal: Atom, log: SearchLog | None = None) -> tuple[Transaction, ...]:
    """Finished worlds for inserting goal, breadth first.

    A world is a consistent change to view and base atoms with every view
    change expanded away; its base part is a candidate transaction.  Body
    variables range over the request's constants (log's, or db's and
    goal's without a log), never over a witness an earlier search stored:
    joining on it would list one change under two witness names.  A stop
    at the state budget is marked on the log; the worlds found are returned.

    A world is known by its transaction without alternative-helper atoms
    (_Form.alternative_helpers) and by its pending view changes, and the
    search drops a world known before.  This loses no world that differs
    only in those atoms: helpers occur only positively, and removals are
    negated subgoals or stored-fact cuts, so a helper atom is never
    removed; and _v.k(c̄) is added only by expanding p(c̄), which a world
    expands at most once.  So two worlds with the same key have the same
    descendants up to those atoms, and a chain of n two-way links keeps one
    world per base part instead of 2^n.  Adding a view atom has the same
    options wherever the search meets it, so they are listed once per atom.

    Definitions come from _form, kept per rule set, not on the Database,
    where every live copy would cost more memory than a rebuild saves.
    """
    if log is None:
        log = SearchLog.for_request(db, (goal,))
    form = _form(db)
    defs, alternative_helpers = form.definitions, form.alternative_helpers
    holds = _membership(db, form)
    universe = tuple(sorted(log.constants))
    names = _unused("new_%d", log.constants)
    fresh = {pred: [next(names) for _ in defn.alternatives] for pred, defn in defs.items()}
    adds: dict[Atom, list[Transaction]] = {}
    # the alternative-helper atoms of the options listed so far: every one
    # a world holds came from such an option, so subtracting these strips them
    helper_atoms: set[Atom] = set()

    Pending = tuple[tuple[str, Atom], ...]  # view changes still to expand
    World = tuple[Transaction, Pending]

    def views(additions: frozenset[Atom], removals: frozenset[Atom]) -> Pending:
        """The view changes among these, in expansion order."""
        pairs = [(ADD, a) for a in additions] + [(REMOVE, a) for a in removals]
        return tuple(sorted(p for p in pairs if p[1].pred in defs))

    def key(world: World) -> tuple:
        tx, pending = world
        return tx.additions - helper_atoms, tx.removals, frozenset(pending)

    def step(world: World, depth: int) -> Callable[[], Iterator[World]] | None:
        tx, pending = world
        return (lambda: expand(tx, pending)) if pending else None

    def expand(tx: Transaction, pending: Pending) -> Iterator[World]:
        (sign, atom), rest = pending[0], pending[1:]
        if sign == ADD:
            options = adds.get(atom)
            if options is None:
                options = adds[atom] = _options_for_add(defs[atom.pred], atom, holds, universe, fresh[atom.pred])
                helper_atoms.update(a for o in options for a in o.additions if a.pred in alternative_helpers)
        else:
            options = [Transaction(frozenset(), cut) for cut in deletion_candidates(db, atom, log)]
        for option in options:
            child = tx.merge(option)
            if child.consistent:
                yield child, rest + views(option.additions - tx.additions, option.removals - tx.removals)

    seed = Transaction(frozenset({goal}))
    finished = breadth_first([(seed, views(seed.additions, seed.removals))], step, log, key=key)
    return tuple(tx for tx, _ in finished)


# --- candidate transactions -------------------------------------------------


def derivable(db: Database, atom: Atom) -> bool:
    """Is atom in db's model?  Read from the model when db already holds it
    (semantics.model_kept) or has a negated literal; otherwise answered by
    goal-guarded evaluation, which derives only what a proof of atom could
    touch and keeps nothing on db."""
    if db.monotone and not model_kept(db):
        return magic_query(db, atom)
    return atom in least_model(db)


def _world_transactions(db: Database, atom: Atom, log: SearchLog) -> tuple[Transaction, ...]:
    """Base parts of the worlds for one insertion, unverified."""
    base = db.base_predicates
    return unique(
        Transaction(frozenset(a for a in w.additions if a.pred in base),
                    frozenset(a for a in w.removals if a.pred in base))
        for w in insertion_worlds(db, atom, log)
    )


def disarm_steps(
    db: Database,
    instance: Rule,
    insert_view: Callable[[Atom], Iterable[Transaction]],
    log: SearchLog | None = None,
) -> Iterator[Transaction]:
    """Single-purpose changes that break one violated denial instance:
    retract a true positive subgoal (views through deletion_candidates, on
    the request's log), or make a negated one true (views through
    insert_view)."""
    for lit in instance.body:
        a = lit.atom
        if a.pred == EQ:
            continue
        if lit.negated:
            if a.pred in db.view_predicates:
                yield from insert_view(a)
            else:
                yield Transaction(frozenset({a}), frozenset())
        elif a.pred in db.view_predicates:
            for cut in deletion_candidates(db, a, log):
                yield Transaction(frozenset(), cut)
        elif a in db.edb:
            yield Transaction(frozenset(), frozenset({a}))


def insertion_candidates(
    db: Database,
    atom: Atom,
    minimality: bool = True,
    log: SearchLog | None = None,
) -> tuple[Transaction, ...]:
    """Verified transactions that make atom derivable without breaking any
    constraint, smallest first.

    Delta worlds are computed against the model as it stood, so one
    subgoal's change can knock out support another subgoal leaned on
    (through negation) or trip a constraint.  Candidates that come back
    from verification short are therefore rerun against the database they
    produced, on the request's constants and witnesses, and merged with the
    outcome in the shared breadth-first search before the survivors rank.

    Transactions confined to the request's constants are preferred: witness
    constants (new_1, ...) survive only when nothing else works.  With
    minimality on, a transaction any single change of which could be undone
    is dropped as padded.
    """
    if atom in least_model(db):
        return (Transaction(),)
    if log is None:
        log = SearchLog.for_request(db, (atom,))

    def step(tx: Transaction, depth: int) -> Callable[[], list[Transaction]] | None:
        after = tx.apply(db, log)
        if atom not in least_model(after):
            return lambda: tx.grow(_world_transactions(after, atom, log))
        violated = check_ic(after)
        if violated:
            return lambda: tx.grow(disarm_steps(after, violated[0], lambda a: _world_transactions(after, a, log), log))
        return None

    txs = breadth_first(_world_transactions(db, atom, log), step, log)
    grounded = [t for t in txs if all(log.constants.issuperset(a.args) for a in t.additions)]
    if grounded:
        txs = grounded
    txs = antichain(txs)
    if minimality:
        txs = [t for t in txs if _necessary(db, atom, t, log)]
    return tuple(sorted(txs, key=Transaction.rank_key))


def _necessary(db: Database, atom: Atom, tx: Transaction, log: SearchLog | None = None) -> bool:
    """Every single change pulls its weight: undoing any one of them either
    loses the goal or breaks a constraint."""
    slims = itertools.chain(tx.undo_each(db, tx.additions, log), tx.undo_each(db, tx.removals, log))
    return not any(derivable(slim, atom) and not check_ic(slim) for slim in slims)


# --- goal-guarded evaluation ------------------------------------------------

GUARD = "@"


def guard_atom(atom: Atom) -> Atom:
    return Atom(GUARD + atom.pred, atom.args)


def magic_program(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Guarded rewriting for goal-directed bottom-up evaluation.

    Each rule waits for its head guard; guards flow left to right through
    the body to the subgoals some rule defines, so evaluation only derives
    atoms a proof of the seeded goal could touch.  No rule waits on a guard
    over a base predicate, so none is made (Bancilhon, Maier, Sagiv &
    Ullman, PODS 1986).  Negation-free rules only.
    """
    rules = [r for r in rules if r.head is not None and r.body]
    defined = {r.head.pred for r in rules}  # type: ignore[union-attr]
    out: list[Rule] = []
    for r in rules:
        if any(l.negated for l in r.body):
            raise ValueError("goal-guarded evaluation expects negation-free rules")
        guard = Literal(guard_atom(r.head))  # type: ignore[arg-type]
        out.append(Rule(r.head, (guard,) + r.body))
        prefix: list[Literal] = []
        for lit in r.body:
            if lit.atom.pred in defined:
                out.append(Rule(guard_atom(lit.atom), (guard,) + tuple(prefix)))
            prefix.append(lit)
    return tuple(out)


def magic_query(db: Database, goal: Atom) -> bool:
    """Is the ground goal derivable, computing only goal-relevant atoms?
    The guarded rules are made once per rule set (semantics.kept_form), so
    their compiled program is found again by the next query."""
    program = kept_form(db.idb, magic_program)
    seeded = frozenset(db.edb) | {guard_atom(goal)}
    model = fixpoint_model(program, seeded, db.universe() | set(goal.args))
    return goal in model
