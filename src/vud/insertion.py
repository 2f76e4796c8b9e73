"""View insertion by pushing delta atoms down to the stored facts.

A request to insert a view atom becomes the delta atom +atom.  Rules are
first normalised: every predicate defined by several rules gets a canonical
distinct-variable head and single-atom alternatives (helper predicates _v1,
_v2, ... absorb conjunctive bodies), and long bodies are folded to two
literals.  A delta then propagates case by case:

  +p for an alternative-defined predicate splits into one child per
  alternative; +p for a conjunctive rule adds a delta for every subgoal not
  already true, with body variables outside the head instantiated jointly
  over the known constants, or over one fresh witness constant per rule
  when no stored source can bind them; a subgoal that must become false
  turns into a removal delta, handled by the deletion machinery.

The search explores these choices breadth first over worlds (sets of delta
atoms); a finished world's base-level deltas form a candidate transaction,
which is then verified, checked against the constraints, and minimised.
Both the world search and the verify-and-re-expand search over candidate
transactions run on lang.breadth_first and share its limits.
Derivability checks run on a goal-guarded rewriting of the rules so only
atoms relevant to the goal are derived.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .deletion import Clause, deletion_candidates
from .lang import (
    EQ, Atom, Database, Literal, Rule, SearchLog, Transaction, antichain, breadth_first,
    is_variable, unique,
)
from .semantics import check_ic, eq_holds, fixpoint_model, least_model

ADD = "+"
REMOVE = "-"


def delta_add(atom: Atom) -> Atom:
    return Atom(ADD + atom.pred, atom.args)


def delta_remove(atom: Atom) -> Atom:
    return Atom(REMOVE + atom.pred, atom.args)


def split_delta(atom: Atom) -> tuple[str, Atom]:
    assert atom.pred[0] in (ADD, REMOVE), atom
    return atom.pred[0], Atom(atom.pred[1:], atom.args)


def delta_seeds(inserts: Iterable[Atom] = (), deletes: Iterable[Atom] = ()) -> frozenset[Atom]:
    """The delta atoms an update request starts from."""
    return frozenset(delta_add(a) for a in inserts) | frozenset(delta_remove(a) for a in deletes)


# --- normalisation --------------------------------------------------------


def _binarize(rule: Rule, counter: Iterator[int]) -> list[Rule]:
    body = rule.body
    if len(body) <= 2:
        return [rule]
    first, rest = body[0], body[1:]
    rest_vars = frozenset().union(*(l.atom.variables() for l in rest))
    head_vars = rule.head.variables() if rule.head is not None else frozenset()
    carried = sorted(rest_vars & (head_vars | first.atom.variables()))
    helper = Atom("_v%d" % next(counter), tuple(carried))
    return [Rule(rule.head, (first, Literal(helper)))] + _binarize(Rule(helper, rest), counter)


def normalize_rules(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Propagation form: canonical heads for alternative-defined predicates,
    single-atom alternatives, at most two subgoals per rule."""
    order: list[str] = []
    groups: dict[str, list[Rule]] = {}
    for r in rules:
        if r.head is None or not r.body:
            continue
        if r.head.pred not in groups:
            order.append(r.head.pred)
        groups.setdefault(r.head.pred, []).append(r)
    counter = itertools.count(1)
    out: list[Rule] = []
    for pred in order:
        rs = groups[pred]
        if len(rs) == 1:
            out.extend(_binarize(rs[0], counter))
            continue
        arity = len(rs[0].head.args)
        canon = tuple("X%d" % i for i in range(1, arity + 1))
        canon_head = Atom(pred, canon)
        for r in rs:
            args = r.head.args
            # constants and repeated variables in the head become equality
            # subgoals on the canonical head variables
            theta: dict[str, str] = {}
            eqs: list[Literal] = []
            for slot, a in zip(canon, args):
                if is_variable(a) and a not in theta:
                    theta[a] = slot
                else:
                    eqs.append(Literal(Atom(EQ, (slot, theta.get(a, a)))))
            spare = itertools.count(1)
            for v in sorted(r.variables() - set(theta)):
                if v in canon:
                    while True:
                        name = "Y%d" % next(spare)
                        if name not in canon and name not in theta.values():
                            break
                    theta[v] = name
            body = tuple(eqs) + tuple(l.substitute(theta) for l in r.body)
            if len(body) == 1 and not body[0].negated and body[0].atom.pred != EQ:
                out.append(Rule(canon_head, body))
            else:
                helper = Atom("_v%d" % next(counter), canon)
                out.append(Rule(canon_head, (Literal(helper),)))
                out.extend(_binarize(Rule(helper, body), counter))
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


def _match(pattern: Atom, ground: Atom) -> dict[str, str] | None:
    if pattern.pred != ground.pred or len(pattern.args) != len(ground.args):
        return None
    theta: dict[str, str] = {}
    for p, g in zip(pattern.args, ground.args):
        if is_variable(p):
            if theta.setdefault(p, g) != g:
                return None
        elif p != g:
            return None
    return theta


# --- the schematic delta program ------------------------------------------


def propagation_rules(db: Database) -> tuple[Clause, ...]:
    """The delta program read off the normalised rules, for inspection.

    Heads are alternatives (disjunctive), bodies mix the triggering delta,
    already-stored source atoms, and companion deltas.  The world search in
    insertion_worlds applies exactly these cases, instantiating variables
    outside the rule head jointly over the constants plus a fresh witness.
    """
    out: list[Clause] = []
    for pred, defn in view_definitions(normalize_rules(db.idb)).items():
        trigger = Literal(delta_add(defn.head))
        if len(defn.alternatives) > 1:
            head = tuple(Literal(delta_add(b[0].atom)) for b in defn.alternatives)
            out.append(Clause(head, (trigger,)))
            continue
        body = defn.alternatives[0]
        positives = [l for l in body if not l.negated and l.atom.pred != EQ]
        for lit in body:
            if lit.atom.pred == EQ:
                continue
            others = tuple(o for o in positives if o is not lit)
            if lit.negated:
                out.append(Clause((Literal(delta_remove(lit.atom)),), (trigger, lit.complement())))
            else:
                out.append(Clause((Literal(delta_add(lit.atom)),), (trigger,) + others))
                for other in others:
                    # companion case: both subgoals absent, inserted together
                    out.append(
                        Clause(
                            (Literal(delta_add(lit.atom)),),
                            (trigger, Literal(delta_add(other.atom))),
                        )
                    )
    return tuple(out)


# --- world search ----------------------------------------------------------


def _fresh_names(taken: frozenset[str], count: int) -> tuple[str, ...]:
    names = []
    k = 1
    while len(names) < count:
        name = "new_%d" % k
        if name not in taken:
            names.append(name)
        k += 1
    return tuple(names)


def _options_for_add(
    defn: ViewDefinition,
    goal: Atom,
    model: frozenset[Atom],
    universe: tuple[str, ...],
    fresh: Mapping[int, str],
) -> list[frozenset[Atom]]:
    """Joint delta sets, one per (alternative, instantiation) that could make
    goal derivable.  Variables outside the head range over the constants and
    the alternative's fresh witness; a constant-valued extra variable must be
    bound by some subgoal already true in the model."""
    options: list[frozenset[Atom]] = []
    for idx, body in enumerate(defn.alternatives):
        theta = _match(defn.head, goal)
        if theta is None:
            continue
        extra = sorted(frozenset().union(*(l.atom.variables() for l in body)) - set(theta))
        witness = fresh[idx]
        for combo in itertools.product(universe + (witness,), repeat=len(extra)):
            sigma = dict(theta)
            sigma.update(zip(extra, combo))
            ground = [l.substitute(sigma) for l in body]
            if any(l.atom.pred == EQ and not eq_holds(l) for l in ground):
                continue
            sourced: set[str] = set()
            for orig, g in zip(body, ground):
                if not g.negated and g.atom.pred != EQ and g.atom in model:
                    sourced.update(v for v in orig.atom.variables() if v in extra)
            if any(value != witness and v not in sourced for v, value in zip(extra, combo)):
                continue
            deltas: set[Atom] = set()
            for g in ground:
                if g.atom.pred == EQ:
                    continue
                if g.negated:
                    if g.atom in model:
                        deltas.add(delta_remove(g.atom))
                elif g.atom not in model:
                    deltas.add(delta_add(g.atom))
            options.append(frozenset(deltas))
    return list(unique(options))


def insertion_worlds(
    db: Database,
    inserts: Iterable[Atom] = (),
    deletes: Iterable[Atom] = (),
    log: SearchLog | None = None,
) -> tuple[frozenset[Atom], ...]:
    """Finished delta worlds for the request, breadth first.

    Every world is a consistent set of delta atoms with all view-level
    deltas expanded away; its base-level part is a candidate transaction.
    A world search has no round limit, only the state limit: a stop there
    is marked on the log and the worlds finished so far are returned.
    """
    if log is None:
        log = SearchLog()
    normalized = normalize_rules(db.idb)
    defs = view_definitions(normalized)
    norm_model = fixpoint_model(normalized, db.edb, db.universe())
    universe = tuple(sorted(db.universe()))
    seeds = delta_seeds(inserts, deletes)
    # witnesses avoid the request's constants too, or a goal constant
    # could pass for a fresh one
    taken = db.universe().union(*(d.args for d in seeds))
    fresh_pool = _fresh_names(taken, sum(len(d.alternatives) for d in defs.values()))
    fresh: dict[str, dict[int, str]] = {}
    i = 0
    for pred, defn in defs.items():
        fresh[pred] = {}
        for idx in range(len(defn.alternatives)):
            fresh[pred][idx] = fresh_pool[i]
            i += 1

    World = tuple[frozenset[Atom], tuple[Atom, ...]]  # deltas, view deltas to expand

    def step(world: World, depth: int) -> Callable[[], Iterator[World]] | None:
        deltas, pending = world
        return (lambda: expand(deltas, pending)) if pending else None

    def expand(deltas: frozenset[Atom], pending: tuple[Atom, ...]) -> Iterator[World]:
        current, rest = pending[0], pending[1:]
        sign, atom = split_delta(current)
        if sign == ADD:
            options = _options_for_add(defs[atom.pred], atom, norm_model, universe, fresh[atom.pred])
        else:
            options = [
                frozenset(delta_remove(d) for d in cand)
                for cand in deletion_candidates(db, atom)
            ]
        for option in options:
            new_deltas = deltas | option
            if any(Atom(ADD + a.pred[1:], a.args) in new_deltas for a in option if a.pred[0] == REMOVE):
                continue
            if any(Atom(REMOVE + a.pred[1:], a.args) in new_deltas for a in option if a.pred[0] == ADD):
                continue
            yield new_deltas, rest + tuple(
                sorted(d for d in option - deltas if split_delta(d)[1].pred in defs)
            )

    pending0 = tuple(sorted(d for d in seeds if split_delta(d)[1].pred in defs))
    finished = breadth_first(
        [(seeds, pending0)], step, log, key=lambda w: (w[0], frozenset(w[1])), rounds=None
    )
    return tuple(deltas for deltas, _ in finished)


# --- candidate transactions -------------------------------------------------


def derivable(db: Database, atom: Atom) -> bool:
    """Goal-directed derivability: magic-guarded evaluation when the rules
    are negation-free, full model computation otherwise."""
    if any(l.negated for r in db.idb for l in r.body):
        return atom in least_model(db)
    return magic_query(db, atom)


def _transaction_of(world: frozenset[Atom], base_preds: frozenset[str]) -> Transaction:
    adds, dels = set(), set()
    for d in world:
        sign, atom = split_delta(d)
        if atom.pred not in base_preds:
            continue
        (adds if sign == ADD else dels).add(atom)
    return Transaction(frozenset(adds), frozenset(dels))


def _world_transactions(db: Database, atom: Atom, log: SearchLog) -> tuple[Transaction, ...]:
    """Base transactions of the delta worlds for one insertion, unverified."""
    worlds = insertion_worlds(db, [atom], log=log)
    txs = (_transaction_of(world, db.base_predicates) for world in worlds)
    return unique(tx for tx in txs if tx.consistent)


def disarm_steps(
    db: Database,
    instance: Rule,
    insert_view: Callable[[Atom], Iterable[Transaction]],
) -> Iterator[Transaction]:
    """Single-purpose changes that break one violated denial instance:
    retract a true positive subgoal, or make a negated one true (views
    through insert_view)."""
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
            for cut in deletion_candidates(db, a):
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
    produced and merged with the outcome, for up to MAX_ROUNDS rounds of
    the shared breadth-first search, before the survivors are ranked.

    Transactions confined to the known constants are preferred: witness
    constants (new_1, ...) survive only when nothing else works.  With
    minimality on, a transaction any single change of which could be undone
    is dropped as padded.
    """
    if atom in least_model(db):
        return (Transaction(),)
    if log is None:
        log = SearchLog()

    def grow(tx: Transaction, extras: Iterable[Transaction]) -> list[Transaction]:
        return [m for m in map(tx.merge, extras) if m.consistent]

    def step(tx: Transaction, depth: int) -> Callable[[], list[Transaction]] | None:
        after = tx.apply(db)
        if atom not in least_model(after):
            return lambda: grow(tx, _world_transactions(after, atom, log))
        violated = check_ic(after)
        if violated:
            return lambda: grow(tx, disarm_steps(after, violated[0], lambda a: _world_transactions(after, a, log)))
        return None

    txs = breadth_first(_world_transactions(db, atom, log), step, log)
    known = db.universe() | set(atom.args)
    grounded = [t for t in txs if all(set(a.args) <= known for a in t.additions)]
    if grounded:
        txs = grounded
    txs = antichain(txs)
    if minimality:
        txs = [t for t in txs if _necessary(db, atom, t)]
    return tuple(sorted(txs, key=Transaction.rank_key))


def _necessary(db: Database, atom: Atom, tx: Transaction) -> bool:
    """Every single change pulls its weight: undoing any one of them either
    loses the goal or breaks a constraint."""
    slims = itertools.chain(tx.undo_each(db, tx.additions), tx.undo_each(db, tx.removals))
    return not any(derivable(slim, atom) and not check_ic(slim) for slim in slims)


# --- goal-guarded evaluation ------------------------------------------------

GUARD = "@"


def guard_atom(atom: Atom) -> Atom:
    return Atom(GUARD + atom.pred, atom.args)


def magic_program(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Guarded rewriting for goal-directed bottom-up evaluation.

    Each rule waits for its head guard; guards flow left to right through
    the body, so evaluation only derives atoms a proof of the seeded goal
    could touch.  Negation-free rules only.
    """
    out: list[Rule] = []
    for r in rules:
        if r.head is None or not r.body:
            continue
        if any(l.negated for l in r.body):
            raise ValueError("goal-guarded evaluation expects negation-free rules")
        guard = Literal(guard_atom(r.head))
        out.append(Rule(r.head, (guard,) + r.body))
        prefix: list[Literal] = []
        for lit in r.body:
            if lit.atom.pred != EQ:
                out.append(Rule(guard_atom(lit.atom), (guard,) + tuple(prefix)))
            prefix.append(lit)
    return tuple(out)


def magic_query(db: Database, goal: Atom) -> bool:
    """Is the ground goal derivable, computing only goal-relevant atoms?"""
    program = magic_program(db.idb)
    seeded = frozenset(db.edb) | {guard_atom(goal)}
    model = fixpoint_model(program, seeded, db.universe() | set(goal.args))
    return goal in model
