"""Model computation, constraint checks and goal-directed proof trees.

The model of a database is the perfect model of its stratified rules: strata
are evaluated bottom up, each by semi-naive iteration, with negative literals
looked up in the finished lower strata.  Rules are evaluated as joins, not
grounded: a rule body's positive literals are joined left to right through
hash indexes on their bound argument positions, negated and eq literals are
tested once every variable is bound, and a variable no positive literal
binds ranges over the universe.  Every evaluation is given its universe,
a set that holds every constant of its rules and atoms: the database's
own (Database.universe()), or more.  After a stratum's first round, only
rules with a subgoal whose predicate gained atoms are joined again,
reading that subgoal from the new atoms.  Compiled rule sets are kept for
the few rule sets in use, keyed by the identities of their rules: the
parser hands every database parsed from the same rule text the same Rule
objects (lang._STATEMENTS), so those databases share one program.

A database's model and its constraint violations are computed once, on
first use, and kept on the Database instance; every layer that needs them
calls least_model(db) and check_ic(db), a changed database
least_model(tx.apply(db, log)).  A changed database shares db's rule and
constraint tuples (Database.with_edb), so their compiled programs are
found again.  The request's SearchLog keeps each changed database the
request reaches, so a fact set that comes up again in the search, the
verifying step or the audit is the same instance, whose model and
violations are already there; the log, and with it every changed database
it keeps, goes when the request returns.  Only derivable_without_facts
(another universe) and magic_query (its guarded rules, run by
insertion.derivable on a monotone database with no model kept, see
model_kept) call fixpoint_model themselves.  What other layers
derive from a rule set alone (the propagation form of insertion, the
guarded rules of magic_query, the rules by head predicate) is kept beside
the rules' compiled program by kept_form.

The insertion world search asks about a few atoms of its helper rules over
the kept model, not for their whole fixpoint.  SeededModel answers those:
each atom by a join of its rule seeded with the atom's arguments (the
first step of a _Plan reads them as a one-row delta), nested helper atoms
on an explicit stack, each answer kept for the search.

Constraint checks, the rules that fire in a model (deletion_program) and
the model itself come out of the same evaluator.
Instances are listed in the order grounding over the universe would list
them, so a constraint check's first violation does not depend on how the
model was computed.  Two places still range rule variables over every
constant instead of joining: RuleInstances (the instances proof trees and
explain's walk unfold) and insertion._options_for_add (the values of a
variable outside the head).  The reduct grounds over the universe too, but
in production it sees only ground denial instances, the violations
deletion.materialized_program settles.

Proof search is resolution over the ground program with leftmost literal
selection; view atoms unfold through every matching rule in program order,
base atoms resolve against the stored facts, and negative literals are
settled against the model.  RuleInstances grounds only the rules whose head
matches an atom the search selects, when the search first selects it.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence, TypeVar

from .lang import (
    EQ,
    Atom,
    Database,
    Literal,
    Rule,
    ground_program,
    is_variable,
    stratify,
)


def eq_holds(lit: Literal) -> bool:
    same = lit.atom.args[0] == lit.atom.args[1]
    return same != lit.negated


def literal_holds(lit: Literal, model: frozenset[Atom] | set[Atom]) -> bool:
    if lit.atom.pred == EQ:
        return eq_holds(lit)
    return (lit.atom in model) != lit.negated


# A term compiled against a rule's variable slots: (slot, variable) for a
# variable, (-1, constant) for a constant.
_Term = tuple[int, str]
_Key = tuple[str, int]  # predicate and arity
_Rows = set[tuple[str, ...]]


def _values(binding: tuple[str, ...], terms: tuple[_Term, ...]) -> tuple[str, ...]:
    return tuple([binding[s] if s >= 0 else c for s, c in terms])


# Index keys are what operator.itemgetter returns for the key positions: a
# bare value for one position, a tuple for several.


def _getter(positions: list[int]) -> Callable[[tuple[str, ...]], object] | None:
    return itemgetter(*positions) if positions else None


def _probe(binding: tuple[str, ...], terms: tuple[_Term, ...]) -> object:
    if len(terms) == 1:
        s, c = terms[0]
        return binding[s] if s >= 0 else c
    return _values(binding, terms)


def _picker(positions: list[int]) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """A function from an argument tuple to its values at the positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return lambda args: (args[p],)
    return _nothing


def _nothing(args: tuple[str, ...]) -> tuple[str, ...]:
    return ()


class _Plan:
    """One rule compiled for joining.

    The positive ordinary body literals are joined left to right, except
    that the literal at position first (when given) is read from the delta
    and joined before the others.  Each join step binds the variables it
    meets first; variables no step binds are enumerated over the universe.
    Negated and eq literals are tested once every variable is bound.
    """

    __slots__ = ("first", "steps", "free", "tests", "head", "order")

    def __init__(self, rule: Rule, first: int | None = None):
        slots: dict[str, int] = {}
        steps = []
        tested = []
        body = list(rule.body)
        if first is not None:
            body.insert(0, body.pop(first))
        for lit in body:
            atom = lit.atom
            if lit.negated or atom.pred == EQ:
                tested.append(lit)
                continue
            key = (atom.pred, len(atom.args))
            if not atom.args:
                steps.append((key, (), (), None, _nothing, ()))
                continue
            positions, terms, outs, repeats = [], [], [], []
            seen: dict[str, int] = {}
            for p, t in enumerate(atom.args):
                if t in slots:
                    positions.append(p)
                    terms.append((slots[t], t))
                elif not is_variable(t):
                    positions.append(p)
                    terms.append((-1, t))
                elif t in seen:
                    repeats.append((p, seen[t]))
                else:
                    seen[t] = p
                    outs.append(p)
            for t in seen:
                slots[t] = len(slots)
            steps.append((key, tuple(terms), tuple(positions), _getter(positions), _picker(outs), tuple(repeats)))
        rest = [l.atom for l in tested]
        if rule.head is not None:
            rest.append(rule.head)
        free = sorted({t for a in rest for t in a.args if t not in slots and is_variable(t)})
        for t in free:
            slots[t] = len(slots)
        self.first = first
        self.steps = tuple(steps)
        self.free = len(free)
        self.tests = tuple(
            ((l.atom.pred, len(l.atom.args)), l.negated, tuple([(slots.get(t, -1), t) for t in l.atom.args]))
            for l in tested
        )
        head = rule.head
        self.head = None if head is None else ((head.pred, len(head.args)), tuple([(slots.get(t, -1), t) for t in head.args]))
        self.order = tuple([slots[t] for t in sorted(slots)])


class _Program:
    """A rule sequence prepared for joining.

    Up front it records each rule's positive ordinary subgoals (body
    position, predicate and arity); plans and the strata are built on
    first use, and so are the forms other layers derive from the rules
    alone (kept_form).  It holds no reference to the rules, which callers
    pass in again, so it goes when they do.
    """

    __slots__ = ("uses", "refs", "forms", "_plans", "_delta", "_strata")

    def __init__(self, rules: tuple[Rule, ...]):
        self.uses = tuple([
            tuple([(i, (l.atom.pred, len(l.atom.args))) for i, l in enumerate(r.body) if not l.negated and l.atom.pred != EQ])
            for r in rules
        ])
        self.refs: list[weakref.ref[Rule]] = []
        self.forms: dict[Callable[..., object], object] = {}
        self._plans: list[_Plan | None] = [None] * len(rules)
        self._delta: dict[tuple[int, int], _Plan] = {}
        self._strata: list[tuple[list[int], dict[_Key, list[tuple[int, int]]]]] | None = None

    def plan(self, rules: tuple[Rule, ...], n: int, position: int | None = None) -> _Plan:
        """Rule n's plan, reading the literal at position from the delta
        when one is given.  A rule without variables has a single instance,
        so joining it against the whole model does the same work."""
        plan = self._plans[n]
        if plan is None:
            plan = self._plans[n] = _Plan(rules[n])
        if position is None or not plan.order:
            return plan
        delta = self._delta.get((n, position))
        if delta is None:
            delta = self._delta[n, position] = _Plan(rules[n], position)
        return delta

    def strata(self, rules: tuple[Rule, ...]) -> list[tuple[list[int], dict[_Key, list[tuple[int, int]]]]]:
        """Per stratum, lowest first: its rules, and for each predicate the
        (rule, body position) pairs where one of those rules uses it
        positively.  A program that negates no predicate it defines is a
        single stratum."""
        if self._strata is None:
            heads = {r.head.pred for r in rules}  # type: ignore[union-attr]
            if any(l.negated and l.atom.pred in heads for r in rules for l in r.body):
                level = {p: i for i, stratum in enumerate(stratify(rules)) for p in stratum}
            else:
                level = dict.fromkeys(heads, 0)
            self._strata = [([], {}) for _ in range(max(level.values(), default=-1) + 1)]
            for n, rule in enumerate(rules):
                s_idx = level[rule.head.pred]  # type: ignore[union-attr]
                members, feeds = self._strata[s_idx]
                members.append(n)
                for i, key in self.uses[n]:
                    if level.get(key[0]) == s_idx:
                        feeds.setdefault(key, []).append((n, i))
        return self._strata


# Prepared programs keyed by the identities of their rules, least recently
# used first.  An entry is dropped as soon as one of its rules is, so no
# identity in a live key can belong to another object, and a program goes
# with the last database holding its rules: databases parsed from the same
# rule text hold the same Rule objects, so they share one entry.  A request
# reuses a handful of programs (its database's rules and constraints, and
# the forms kept with them) across every candidate it checks.
_COMPILED: OrderedDict[tuple[int, ...], _Program] = OrderedDict()
_COMPILED_MAX = 16


def _compiled(rules: tuple[Rule, ...]) -> _Program:
    key = tuple(map(id, rules))
    program = _COMPILED.get(key)
    if program is not None:
        _COMPILED.move_to_end(key)
        return program
    program = _COMPILED[key] = _Program(rules)

    # the closure holds the dict: at interpreter exit the module global is
    # set to None while rules kept past the module's teardown may still go
    compiled = _COMPILED

    def forget(_: weakref.ref[Rule]) -> None:
        compiled.pop(key, None)

    program.refs = [weakref.ref(r, forget) for r in rules]
    if len(_COMPILED) > _COMPILED_MAX:
        _COMPILED.popitem(last=False)
    return program


_F = TypeVar("_F")


def kept_form(rules: tuple[Rule, ...], build: Callable[[tuple[Rule, ...]], _F]) -> _F:
    """build(rules), made once per rule set and kept with the rules'
    compiled program.  Databases derived by Transaction.apply share their
    parent's rules, so they find it again; it goes when the rules do, or
    when their program leaves the cache.  What build returns must hold no
    reference to the rules, or they could never go.

    Forms are kept here and not on each Database: the few rule sets in use
    hold them, not every database a workload keeps alive.
    """
    forms = _compiled(rules).forms
    form = forms.get(build)
    if form is None:
        form = forms[build] = build(rules)
    return form  # type: ignore[return-value]


class _Joins:
    """Atoms stored as argument tuples per predicate and arity, joined
    through hash indexes on bound argument positions.

    An index is built the first time a join step asks for its positions and
    kept up to date as atoms are added; everything lives for one call.
    Variables no stored atom binds range over the universe, a set that
    holds every constant of the atoms and of the rules joined against them.
    """

    def __init__(self, atoms: Iterable[Atom], universe: Collection[str]):
        self.rows: dict[_Key, _Rows] = {}
        self._indexes: dict[_Key, dict[tuple[int, ...], tuple[Callable, dict[object, list[tuple[str, ...]]]]]] = {}
        for a in atoms:
            args = a.args
            key = (a.pred, len(args))
            rows = self.rows.get(key)
            if rows is None:
                self.rows[key] = {args}
            else:
                rows.add(args)
        self._universe = universe

    def empty(self, uses: tuple[tuple[int, _Key], ...]) -> bool:
        """Does some positive subgoal have no atoms to join with?"""
        rows = self.rows
        return any(not rows.get(key) for _, key in uses)

    def add(self, key: _Key, args: tuple[str, ...]) -> None:
        self.rows.setdefault(key, set()).add(args)
        for keyof, index in self._indexes.get(key, {}).values():
            index.setdefault(keyof(args), []).append(args)

    def _index(self, key: _Key, positions: tuple[int, ...], keyof: Callable) -> dict[object, list[tuple[str, ...]]]:
        by_positions = self._indexes.setdefault(key, {})
        known = by_positions.get(positions)
        if known is not None:
            return known[1]
        index: dict[object, list[tuple[str, ...]]] = {}
        for args in self.rows.get(key, ()):
            index.setdefault(keyof(args), []).append(args)
        by_positions[positions] = (keyof, index)
        return index

    def bindings(self, plan: _Plan, delta: dict[_Key, _Rows] | None = None) -> list[tuple[str, ...]]:
        """Every binding of the plan's variables, in slot order, under which
        its body holds; a delta plan's first step reads the delta."""
        found: list[tuple[str, ...]] = [()]
        for n, (key, terms, positions, keyof, pick, repeats) in enumerate(plan.steps):
            index = None
            if n == 0:
                # nothing is bound yet, so every key term is a constant and
                # one scan beats building an index for a single probe
                rows = self.rows if plan.first is None else delta
                source: Iterable[tuple[str, ...]] = rows.get(key, ())  # type: ignore[union-attr]
                if keyof is not None:
                    want = _probe((), terms)
                    source = [args for args in source if keyof(args) == want]
            elif keyof is not None:
                index = self._index(key, positions, keyof)
            else:
                source = self.rows.get(key, ())
            grown = []
            for b in found:
                if index is not None:
                    source = index.get(_probe(b, terms), ())
                for args in source:
                    if repeats and any(args[p] != args[q] for p, q in repeats):
                        continue
                    grown.append(b + pick(args))
            found = grown
            if not found:
                return found
        if plan.free:
            combos = list(itertools.product(self._universe, repeat=plan.free))
            found = [b + combo for b in found for combo in combos]
        for key, negated, terms in plan.tests:
            if key[0] == EQ:
                (s, c), (t, d) = terms
                found = [b for b in found if ((b[s] if s >= 0 else c) == (b[t] if t >= 0 else d)) != negated]
            else:
                rows = self.rows.get(key, set())
                found = [b for b in found if (_values(b, terms) in rows) != negated]
        return found

    def instances(self, program: _Program, rules: tuple[Rule, ...]) -> list[Rule]:
        """Ground instances whose body holds, rule by rule, each rule's in
        the order grounding lists them: by value tuple over its sorted
        variables."""
        out: list[Rule] = []
        for n, rule in enumerate(rules):
            if self.empty(program.uses[n]):
                continue
            plan = program.plan(rules, n)
            found = self.bindings(plan)
            if not found:
                continue
            if not plan.order:  # no variables: the rule is its one instance
                out.append(rule)
                continue
            names = sorted(rule.variables())
            for values in sorted(tuple([b[s] for s in plan.order]) for b in found):
                out.append(rule.substitute(dict(zip(names, values))))
        return out

    def saturate(self, program: _Program, rules: tuple[Rule, ...]) -> list[Atom]:
        """Derive to fixpoint, stratum by stratum; the new atoms.

        The first round of a stratum joins each of its rules against
        everything stored, later rounds only the rules fed by the atoms the
        round before derived, reading the feeding subgoal from those.  A
        rule with a subgoal that has no atoms is skipped: it cannot fire.
        """
        derived: list[Atom] = []
        for members, feeds in program.strata(rules):
            todo = [(n, None) for n in members]
            delta: dict[_Key, _Rows] | None = None
            while todo:
                new: dict[_Key, _Rows] = {}
                for n, position in todo:
                    if self.empty(program.uses[n]):
                        continue
                    plan = program.plan(rules, n, position)
                    key, terms = plan.head  # type: ignore[misc]
                    known = self.rows.get(key, ())
                    for b in self.bindings(plan, delta):
                        args = _values(b, terms)
                        if args not in known:
                            new.setdefault(key, set()).add(args)
                for key, rows in new.items():
                    for args in rows:
                        self.add(key, args)
                        derived.append(Atom(key[0], args))
                delta = new
                todo = [fed for key in new for fed in feeds.get(key, ())]
        return derived


# The predicate of a seeded plan's first step, which reads the ground head's
# arguments as a one-row delta.  The parser reads no space inside a name.
_HEAD = "head "


class _Seeded:
    """One rule compiled to join its body under a ground head atom: a _Plan
    whose first step reads the head's arguments, so every later step probes
    an index with them bound.  A subgoal over a deferred predicate, at most
    one, is left out of the join; each binding gives its ground atom, with
    variables no step binds ranging over the universe."""

    __slots__ = ("plan", "rest")

    def __init__(self, rule: Rule, deferred: Collection[str]):
        now = [l for l in rule.body if l.atom.pred not in deferred]
        (rest,) = [l.atom for l in rule.body if l.atom.pred in deferred] or [None]
        seed = Literal(Atom(_HEAD, rule.head.args))  # type: ignore[union-attr]
        self.plan = _Plan(Rule(Atom(_HEAD, () if rest is None else rest.args), (seed, *now)), 0)
        self.rest = None if rest is None else rest.pred

    def premises(self, joins: _Joins, head: Atom) -> Iterator[Atom | None]:
        """Per binding of the body under head, the deferred subgoal's atom,
        None when there is none: then the body holds."""
        plan, rest = self.plan, self.rest
        terms = plan.head[1]  # type: ignore[index]
        for b in joins.bindings(plan, {plan.steps[0][0]: {head.args}}):
            yield None if rest is None else Atom(rest, _values(b, terms))


class SeededRules:
    """Rules, one per head predicate, compiled for head-seeded joins on
    their predicate's first lookup.  Their head predicates are the deferred
    ones: a body holds at most one subgoal over them, positive, and they
    never reach themselves.  Holds the rules it is given, so a form kept per
    rule set (kept_form) may hold it only when those are new rules."""

    __slots__ = ("_rules", "_compiled")

    def __init__(self, rules: Iterable[Rule]):
        self._rules = {r.head.pred: r for r in rules}  # type: ignore[union-attr]
        self._compiled: dict[str, _Seeded] = {}

    @property
    def predicates(self) -> Collection[str]:
        return self._rules.keys()

    def __getitem__(self, pred: str) -> _Seeded:
        found = self._compiled.get(pred)
        if found is None:
            found = self._compiled[pred] = _Seeded(self._rules[pred], self._rules)
        return found


class SeededModel:
    """A model and, decided on demand, the atoms seeded rules derive over it.

    An atom of a rule's head predicate holds when, for one binding under
    which the rest of the rule's body holds in the model, the deferred
    subgoal, if any, holds in turn; an atom with a constant outside the
    universe holds in no model over it.  This is membership in
    fixpoint_model(rules, model, universe), found top-down from the atom
    instead of bottom-up from every rule.  The model's join indexes are
    built on the first atom that needs them, answers are kept for the
    object's life, and nested subgoals go on an explicit stack: a folded
    body of n literals nests n deep.
    """

    def __init__(self, rules: SeededRules, model: frozenset[Atom], universe: frozenset[str]):
        self._rules = rules
        self._model = model
        self._universe = universe
        self._joins: _Joins | None = None
        self._known: dict[Atom, bool] = {}

    def _premises(self, atom: Atom) -> Iterator[Atom | None]:
        if not self._universe.issuperset(atom.args):
            return iter(())
        if self._joins is None:
            self._joins = _Joins(self._model, self._universe)
        return self._rules[atom.pred].premises(self._joins, atom)

    def __contains__(self, atom: Atom) -> bool:
        known = self._known
        verdict = known.get(atom)
        if verdict is not None:
            return verdict
        # a frame: an atom, its premises not read yet, and the premise it
        # went under for, undecided then
        stack: list[list] = [[atom, self._premises(atom), None]]
        while stack:
            frame = stack[-1]
            goal, premises, waiting = frame
            verdict = waiting is not None and known[waiting]
            if not verdict:
                for premise in premises:
                    if premise is None:
                        verdict = True
                        break
                    verdict = known.get(premise)
                    if verdict is None:
                        frame[2] = premise
                        stack.append([premise, self._premises(premise), None])
                        break
                    if verdict:
                        break
                else:
                    verdict = False
            if verdict is not None:
                known[goal] = verdict
                stack.pop()
        return known[atom]


def firing_instances(
    rules: Iterable[Rule], model: frozenset[Atom], universe: Collection[str]
) -> tuple[Rule, ...]:
    """Ground instances of the rules over the universe whose body holds in
    the model, rule by rule, each rule's in the order ground_program lists
    them.  The universe holds every constant of the rules and the model."""
    rules = tuple(rules)
    return tuple(_Joins(model, universe).instances(_compiled(rules), rules))


def fixpoint_model(rules: Sequence[Rule], facts: Iterable[Atom], universe: Collection[str]) -> frozenset[Atom]:
    """Perfect model of the given rules over the given facts.

    Variables range over the universe, which holds every constant of the
    rules and facts (a database's own, Database.universe(), or more).
    Strata are evaluated bottom up, each semi-naively: the first round
    joins every rule of the stratum against the model, and each later
    round joins only the rules with a same-stratum positive subgoal whose
    predicate gained atoms in the round before, reading that subgoal from
    those new atoms.
    """
    rules = tuple(r for r in rules if r.head is not None and r.body)
    program = _compiled(rules)
    facts = frozenset(facts)
    return facts.union(_Joins(facts, universe).saturate(program, rules))


def least_model(db: Database) -> frozenset[Atom]:
    """The perfect model of the database's rules over its stored facts.

    Computed on first use and kept on the instance, like the derivations
    Database keeps itself, so equality and hashing ignore it.
    """
    kept = vars(db)
    model = kept.get("_model")
    if model is None:
        model = kept["_model"] = fixpoint_model(db.idb, db.edb, db.universe())
    return model


def model_kept(db: Database) -> bool:
    """Does db already hold its model, so least_model(db) costs nothing?"""
    return "_model" in vars(db)


def check_ic(db: Database) -> tuple[Rule, ...]:
    """Ground instances of denial constraints whose body holds in the model.

    Variables range over the database's constants (Database.universe()),
    and instances come denial by denial in the order ground_program lists
    them, so the first violation is the same however the model was
    computed.  Empty result means every constraint is satisfied.  Computed on first
    use and kept on the instance, as least_model keeps the model: a request
    checks the same changed database in its search, its verifying step and
    its audit.
    """
    if not db.ic:
        return ()
    kept = vars(db)
    violated = kept.get("_violations")
    if violated is None:
        violated = kept["_violations"] = tuple(
            _Joins(least_model(db), db.universe()).instances(_compiled(db.ic), db.ic))
    return violated


def removals_settled(db: Database) -> bool:
    """True when a candidate made of cuts is verified with no model: on a
    monotone database (Database.monotone) removing facts only removes
    proofs, so a cut stays a cut when more facts go, and constraints that
    hold keep holding."""
    return db.monotone and not check_ic(db)


def reduct(rules: Sequence[Rule], model: frozenset[Atom], universe: Iterable[str]) -> tuple[Rule, ...]:
    """Ground positive rules left after settling negation against the model.

    A ground instance survives when none of its negative literals clash with
    the model; surviving instances keep only their positive ordinary
    subgoals.  Equality literals are settled on the spot.  Denials pass
    through the same treatment, facts are skipped.
    """
    out: list[Rule] = []
    for r in ground_program([r for r in rules if r.body], universe):
        keep: list[Literal] = []
        ok = True
        for lit in r.body:
            if lit.atom.pred == EQ:
                if not eq_holds(lit):
                    ok = False
                    break
            elif lit.negated:
                if lit.atom in model:
                    ok = False
                    break
            else:
                keep.append(lit)
        if ok:
            out.append(Rule(r.head, tuple(keep)))
    return tuple(out)


# --- resolution trees -----------------------------------------------------


def _by_head(rules: tuple[Rule, ...]) -> dict[str, list[tuple[int, list[str]]]]:
    """Per head predicate, its rules' positions in program order, each
    with the rule's sorted variables."""
    index: dict[str, list[tuple[int, list[str]]]] = {}
    for n, r in enumerate(rules):
        index.setdefault(r.head.pred, []).append((n, sorted(r.variables())))  # type: ignore[union-attr]
    return index


def match_atom(pattern: Atom, ground: Atom) -> dict[str, str] | None:
    """The substitution that makes pattern the ground atom, or None."""
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


class RuleInstances(dict):
    """Ground instances of rules over constants by head atom, listed on an
    atom's first lookup in the order ground_program lists them: the rules
    of its predicate in program order, each head unified with the atom and
    the other variables ranged, sorted, over the sorted constants.  The
    rules by head predicate are indexed once per rule set (kept_form)."""

    def __init__(self, rules: tuple[Rule, ...], consts: Iterable[str]):
        super().__init__()
        self._consts = sorted(set(consts))
        self._rules = rules
        self._by_head = kept_form(rules, _by_head)

    def __missing__(self, atom: Atom) -> list[Rule]:
        found = self[atom] = []
        for n, names in self._by_head.get(atom.pred, ()):
            rule = self._rules[n]
            if not names:
                if rule.head.args == atom.args:  # type: ignore[union-attr]
                    found.append(rule)
                continue
            theta = match_atom(rule.head, atom)  # type: ignore[arg-type]
            if theta is None:
                continue
            rest = [v for v in names if v not in theta]
            for combo in itertools.product(self._consts, repeat=len(rest)):
                theta.update(zip(rest, combo))
                found.append(rule.substitute(theta))
        return found


@dataclass(frozen=True)
class ProofLeaf:
    """Terminal branch of a proof tree.

    kind is one of success, failure, loop.  used holds the stored facts the
    branch consumed; assumed holds absent base facts the branch hypothesised
    (only when the tree was built with hypothesize=True).
    """

    kind: str
    used: frozenset[Atom]
    assumed: frozenset[Atom]
    failed_on: Literal | None = None

    @property
    def support(self) -> frozenset[Atom]:
        return self.used | self.assumed


@dataclass(frozen=True)
class ProofNode:
    """One resolution step: the pending goal, the literal selected from it
    and the node's depth below the root; a terminal node carries its leaf."""

    goal: tuple[Literal, ...]
    selected: Literal | None
    depth: int
    leaf: ProofLeaf | None = None


@dataclass(frozen=True)
class ProofTree:
    """A resolution tree as its nodes in preorder, each with its depth: a
    node's subtree is the run of deeper nodes that follows it."""

    goal: Atom
    nodes: tuple[ProofNode, ...]

    def leaves(self) -> tuple[ProofLeaf, ...]:
        return tuple(n.leaf for n in self.nodes if n.leaf is not None)

    def success_sets(self) -> tuple[frozenset[Atom], ...]:
        """Fact sets consumed by proofs that needed no hypothesised facts,
        left to right, duplicates kept."""
        return tuple(l.used for l in self.leaves() if l.kind == "success" and not l.assumed)

    def hypothesised_sets(self) -> tuple[frozenset[Atom], ...]:
        """Assumption sets of branches that succeed once absent base facts
        are taken on faith."""
        return tuple(l.assumed for l in self.leaves() if l.kind == "success" and l.assumed)

    def proved(self) -> bool:
        return bool(self.success_sets())


def build_proof_tree(
    db: Database,
    goal: Atom,
    hypothesize: bool = False,
) -> ProofTree:
    """Resolution tree for a ground goal atom.

    View subgoals unfold through RuleInstances, grounding only the rules
    the tree selects.  Negative subgoals are settled against the model, so
    the tree is only meaningful for stratified databases.  With
    hypothesize=True an absent base subgoal is assumed true and recorded
    instead of failing the branch, which turns failed branches into
    descriptions of what is missing.
    """
    if not goal.is_ground:
        raise ValueError("proof trees require a ground goal, got %s" % goal)
    model = least_model(db)
    view = db.view_predicates
    rules_for = RuleInstances(db.idb, db.universe() | set(goal.args))

    # each pending literal carries the chain of view atoms it descends from,
    # so a repeated subgoal is a loop only on its own derivation path and a
    # second occurrence elsewhere in the conjunction still gets expanded.
    # Depth first with an explicit stack, since a proof nests one level per
    # subgoal and long chains go deeper than Python's recursion limit; nodes
    # are recorded in preorder.
    start: tuple[tuple[Literal, frozenset[Atom]], ...] = ((Literal(goal), frozenset()),)
    stack = [(start, frozenset(), frozenset(), 0)]
    nodes: list[ProofNode] = []
    while stack:
        pending, used, assumed, depth = stack.pop()
        lit, kind, below = None, None, []
        if not pending:
            kind = "success"
        else:
            (lit, chain), rest = pending[0], pending[1:]
            a = lit.atom
            if a.pred == EQ or lit.negated:
                holds = eq_holds(lit) if a.pred == EQ else a not in model
                below = [(rest, used, assumed)] if holds else []
            elif a.pred in view and a in chain:
                kind = "loop"
            elif a.pred in view:
                deeper = chain | {a}
                below = [
                    (tuple((b, deeper) for b in r.body) + rest, used, assumed)
                    for r in rules_for[a]
                ]
            elif a in db.edb:
                below = [(rest, used | {a}, assumed)]
            elif a in assumed or hypothesize:
                below = [(rest, used, assumed | {a})]
            if kind is None and not below:
                kind = "failure"
        leaf = None if kind is None else ProofLeaf(kind, used, assumed, failed_on=lit)
        stack.extend((*b, depth + 1) for b in reversed(below))
        nodes.append(ProofNode(tuple(l for l, _ in pending), lit, depth, leaf))
    return ProofTree(goal, tuple(nodes))


def render_proof_tree(tree: ProofTree) -> str:
    """Indented text rendering, one node per line."""
    lines: list[str] = []
    for node in tree.nodes:
        goal = ", ".join(str(l) for l in node.goal) if node.goal else "[]"
        tag = ""
        if node.leaf is not None:
            tag = " (%s)" % node.leaf.kind
            if node.leaf.kind == "success" and node.leaf.assumed:
                tag = " (success, assuming %s)" % ", ".join(str(a) for a in sorted(node.leaf.assumed))
        lines.append("  " * node.depth + goal + tag)
    return "\n".join(lines)
