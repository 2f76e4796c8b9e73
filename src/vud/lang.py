"""Core language of the deductive database: atoms, rules, parsing, grounding.

A database is a finite ordered list of clauses of three kinds: ground facts
(``p(a).``), rules (``p(X) :- q(X), not r(X).``) and denial constraints
(``:- p(X), q(X).``).  Predicates appearing in some rule head are view
predicates; all others hold base data.  The built-in predicate ``eq`` tests
syntactic equality of terms and may only occur in rule bodies; a rule with
an ``eq`` head is folded into an equivalent denial at parse time.

Terms are plain strings.  A term starting with an uppercase letter or an
underscore is a variable, anything else is a constant.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

EQ = "eq"

T = TypeVar("T")
S = TypeVar("S", frozenset, "Transaction")


def is_variable(term: str) -> bool:
    return term[0].isupper() or term[0] == "_"


@dataclass(frozen=True, order=True, slots=True)
class Atom:
    """A predicate applied to a tuple of terms.  Slotted, as are literals:
    loaded programs hold many of both."""

    pred: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ",".join(self.args))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def variables(self) -> frozenset[str]:
        return frozenset(a for a in self.args if is_variable(a))

    def substitute(self, theta: Mapping[str, str]) -> "Atom":
        if not self.args:
            return self
        return Atom(self.pred, tuple(theta.get(a, a) for a in self.args))


@dataclass(frozen=True, order=True, slots=True)
class Literal:
    """An atom or its negation, as it occurs in a rule body."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("not " if self.negated else "") + str(self.atom)

    def substitute(self, theta: Mapping[str, str]) -> "Literal":
        return Literal(self.atom.substitute(theta), self.negated)

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)


@dataclass(frozen=True)
class Rule:
    """A clause ``head :- body``.  head None encodes a denial constraint."""

    head: Atom | None
    body: tuple[Literal, ...] = ()

    def __str__(self) -> str:
        if self.head is None:
            return ":- " + ", ".join(str(l) for l in self.body)
        if not self.body:
            return str(self.head)
        return "%s :- %s" % (self.head, ", ".join(str(l) for l in self.body))

    @property
    def is_fact(self) -> bool:
        return self.head is not None and not self.body

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        if self.head is not None:
            out |= self.head.variables()
        for lit in self.body:
            out |= lit.atom.variables()
        return frozenset(out)

    def substitute(self, theta: Mapping[str, str]) -> "Rule":
        head = None if self.head is None else self.head.substitute(theta)
        return Rule(head, tuple(l.substitute(theta) for l in self.body))


def fact(pred: str, *args: str) -> Rule:
    return Rule(Atom(pred, args))


@dataclass(frozen=True)
class Transaction:
    """A net change to the stored facts: additions in, removals out."""

    additions: frozenset[Atom] = frozenset()
    removals: frozenset[Atom] = frozenset()

    def __str__(self) -> str:
        parts = ["+%s" % a for a in sorted(self.additions)]
        parts += ["-%s" % a for a in sorted(self.removals)]
        return ", ".join(parts) if parts else "no change"

    @property
    def is_empty(self) -> bool:
        return not self.additions and not self.removals

    @property
    def size(self) -> int:
        return len(self.additions) + len(self.removals)

    def __len__(self) -> int:
        return self.size

    def __le__(self, other: "Transaction") -> bool:
        """True when this changes nothing other does not also change: the
        subset order of sets, which antichain filters by."""
        return self.additions <= other.additions and self.removals <= other.removals

    def merge(self, other: "Transaction") -> "Transaction":
        return Transaction(self.additions | other.additions, self.removals | other.removals)

    def grow(self, extras: Iterable["Transaction"], protect_present: frozenset[Atom] = frozenset(),
             protect_absent: frozenset[Atom] = frozenset()) -> list["Transaction"]:
        """A candidate's children in every update search: its consistent
        merges with extras that remove no protect_present atom and add no
        protect_absent one."""
        return [m for m in map(self.merge, extras) if m.consistent
                and m.removals.isdisjoint(protect_present) and m.additions.isdisjoint(protect_absent)]

    @property
    def consistent(self) -> bool:
        return not self.additions & self.removals

    def apply(self, db: "Database", log: "SearchLog | None" = None) -> "Database":
        """The changed database: db itself when the stored facts stay as they
        are, so the model kept on db is reused, else db.with_edb of the
        changed facts, which shares db's rules and constraints.  Given the
        request's log, a fact set the request reached before comes back as
        the same instance, with what it keeps (SearchLog.changed)."""
        edb = db.edb
        if self.removals.isdisjoint(edb) and self.additions - self.removals <= edb:
            return db
        facts = (edb | self.additions) - self.removals
        return db.with_edb(facts) if log is None else log.changed(db, facts)

    def undo_each(self, db: "Database", changes: Iterable[Atom],
                  log: "SearchLog | None" = None) -> Iterator["Database"]:
        """For each of the given changes in sorted order, the database after
        this change with that one change undone, applied on the log."""
        for x in sorted(changes):
            yield Transaction(self.additions - {x}, self.removals - {x}).apply(db, log)

    def rank_key(self) -> tuple[int, list[str], list[str]]:
        """Ranking order: fewer changes first, ties broken lexically."""
        return (self.size, sorted(map(str, self.additions)), sorted(map(str, self.removals)))


def antichain(family: Sequence[S]) -> list[S]:
    """The subset-minimal members of a family of distinct sets or
    transactions, in their given order.

    Smallest first, each member is compared only with the minimal members
    kept so far that are strictly smaller: a member with a strict subset in
    the family has a minimal one below it, and the members are distinct, so
    no kept member of its own size is a subset of it.
    """
    minimal: list[S] = []
    size = below = 0  # below: how many kept members are smaller than size
    for m in sorted(family, key=len):
        if len(m) != size:
            size, below = len(m), len(minimal)
        if not any(k <= m for k in itertools.islice(minimal, below)):
            minimal.append(m)
    kept = set(minimal)
    return [m for m in family if m in kept]


def unique(items: Iterable[T]) -> tuple[T, ...]:
    """Distinct items in order of first occurrence."""
    return tuple(dict.fromkeys(items))


# --- breadth-first search -----------------------------------------------------

# The one limit of the update searches: states per request, all its searches.
MAX_STATES = 20000


@dataclass
class SearchLog:
    """What one request keeps while it runs: its search budget (the states
    its searches have visited, and how many of them the limit stopped with
    work left), its constants (for_request) and the changed databases.
    A stopped search's answer may be incomplete, an empty one proves nothing.

    The log goes when the request returns; no result, error or Database
    refers to it, so nothing it keeps outlives the request.
    """

    states: int = 0
    stops: int = 0
    constants: frozenset[str] | None = field(default=None, repr=False, compare=False)
    databases: dict[frozenset[Atom], "Database"] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def for_request(cls, db: "Database", goals: Iterable[Atom]) -> "SearchLog":
        """The log of a request on db: db's constants plus the goals'."""
        return cls(constants=frozenset(db.universe().union(*(g.args for g in goals))))

    @property
    def exhausted(self) -> bool:
        return self.stops > 0

    def changed(self, db: "Database", facts: frozenset[Atom]) -> "Database":
        """db.with_edb(facts), made once per fact set: the request checks
        the same changed database in its search, its verifying step and its
        audit, and each check reads the model and the violations the
        instance keeps.  An instance is reused only when it shares db's
        rules and constraints."""
        kept = self.databases.get(facts)
        if kept is None or kept.idb is not db.idb or kept.ic is not db.ic:
            kept = self.databases[facts] = db.with_edb(facts)
        return kept


def breadth_first(
    seeds: Iterable[T],
    step: Callable[[T, int], Callable[[], Iterable[T]] | None],
    log: SearchLog,
    key: Callable[[T], Hashable] = lambda state: state,
) -> list[T]:
    """Finished states of a breadth-first search, in the order reached.

    step(state, depth) returns None for a finished state, else a function
    listing its children; depth counts the expansions from the seed.
    States whose key was seen before are dropped.  Each visited state
    counts on log.states, which every search of the request shares, and
    the search stops once that count reaches MAX_STATES.
    """
    queue: deque[tuple[T, int]] = deque()
    visited: set[Hashable] = set()

    def push(state: T, depth: int) -> None:
        k = key(state)
        if k not in visited:
            visited.add(k)
            queue.append((state, depth))

    for seed in seeds:
        push(seed, 0)
        if log.states + len(queue) > MAX_STATES:
            break  # the loop below stops at MAX_STATES
    found: list[T] = []
    while queue:
        state, depth = queue.popleft()
        if log.states >= MAX_STATES:
            log.stops += 1
            break
        log.states += 1
        children = step(state, depth)
        if children is None:
            found.append(state)
        else:
            for child in children():
                push(child, depth + 1)
    return found


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class NotStratifiableError(ValueError):
    """Raised when negation cycles through a predicate's own definition."""


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>:-)
      | (?P<punct>[(),.])
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*|\d+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, bol = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, pos - bol + 1)
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "name":
            # one string object per distinct name: a loaded program repeats
            # its predicates, variables and constants many times over
            value = sys.intern(value)
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, pos - bol + 1))
        nl = value.count("\n")
        if nl:
            line += nl
            bol = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, len(text) - bol + 1))
    return tokens


# Rule statements parsed so far, keyed by their token values up to and
# including the closing ".", so every database parsed from the same rule
# text holds the same Rule objects while one of them lives, and semantics
# finds their compiled program and kept forms again (hash-consing).  Only
# statements with ":-" are kept: rules, denials and folded eq heads, the
# clauses a program is compiled from; facts change from database to
# database.  A value goes when the last database holding it does.
_STATEMENTS: weakref.WeakValueDictionary[tuple[str, ...], Rule] = weakref.WeakValueDictionary()


class _Parser:
    """Recursive descent over the token list.  parse_program returns the
    kept Rule of a rule statement parsed before (_STATEMENTS): a statement
    that parses ends at its first "." token, and the tokens decide the
    rule, so a statement with the same token values is the same rule.  A
    statement that fails to parse is never kept, so it fails again, at its
    own line and column."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int, int]:
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok[1] or "end of input"), tok[2], tok[3])
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok[0] == "punct" and tok[1] == value

    def parse_atom(self) -> Atom:
        tok = self.expect("name")
        if tok[1] == "not":
            raise ParseError("'not' is not a predicate name", tok[2], tok[3])
        args: list[str] = []
        if self.at_punct("("):
            self.take()
            args.append(self.expect("name")[1])
            while self.at_punct(","):
                self.take()
                args.append(self.expect("name")[1])
            self.expect("punct", ")")
        return Atom(tok[1], tuple(args))

    def parse_literal(self) -> Literal:
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "not":
            self.take()
            return Literal(self.parse_atom(), negated=True)
        return Literal(self.parse_atom())

    def parse_body(self) -> tuple[Literal, ...]:
        lits = [self.parse_literal()]
        while self.at_punct(","):
            self.take()
            lits.append(self.parse_literal())
        return tuple(lits)

    def parse_statement(self) -> Rule:
        if self.peek()[0] == "arrow":
            self.take()
            body = self.parse_body()
            self.expect("punct", ".")
            return Rule(None, body)
        head = self.parse_atom()
        if self.at_punct("."):
            self.take()
            return Rule(head)
        self.expect("arrow")
        body = self.parse_body()
        self.expect("punct", ".")
        if head.pred == EQ:
            # an equality head states a functional constraint; fold it into
            # the denial that rejects any instance violating the equality
            return Rule(None, body + (Literal(head, negated=True),))
        return Rule(head, body)

    def parse_program(self) -> tuple[Rule, ...]:
        tokens = self.tokens
        ends = iter([j for j, tok in enumerate(tokens) if tok[1] == "."])
        rules = []
        while self.peek()[0] != "eof":
            end = next(ends, None)
            key = () if end is None else tuple([tok[1] for tok in tokens[self.i:end + 1]])
            if ":-" not in key:
                # a fact, or a statement with no "." left, which fails
                rules.append(self.parse_statement())
                continue
            rule = _STATEMENTS.get(key)
            if rule is None:
                rule = _STATEMENTS[key] = self.parse_statement()
            else:
                self.i = end + 1
            rules.append(rule)
        return tuple(rules)


def parse_program(text: str) -> tuple[Rule, ...]:
    return _Parser(text).parse_program()


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return "%s: %s" % (self.kind, self.message)


class Database:
    """An ordered clause list partitioned into view rules, facts and denials.

    Clause order is preserved because proof search and the update procedures
    scan clauses first to last, so two databases with the same clauses in a
    different order are different objects.  Equality and hashing go by the
    clause list.  A database is immutable.

    with_edb derives a database from another: it shares the other's rules,
    constraints and what depends on them alone, and holds no reference to
    the other.  Its clause list is built only when something asks for it.
    """

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        clauses = tuple(r for r in rules if not r.is_fact)
        vars(self).update(
            rules=rules,
            _clauses=clauses,
            idb=tuple(r for r in clauses if r.head is not None),
            ic=tuple(r for r in clauses if r.head is None),
            edb=frozenset(r.head for r in rules if r.is_fact and r.head is not None),
        )

    idb: tuple[Rule, ...]
    ic: tuple[Rule, ...]
    edb: frozenset[Atom]
    _clauses: tuple[Rule, ...]  # the rules and constraints, in clause order

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a Database is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("a Database is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self is other or self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return "Database(rules=%r)" % (self.rules,)

    @classmethod
    def parse(cls, text: str) -> "Database":
        return cls(parse_program(text))

    @classmethod
    def load(cls, path: str) -> "Database":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())

    # The derivations below are computed on first use and kept on the
    # instance; equality and hashing ignore them.  semantics.least_model
    # and semantics.check_ic keep the model and the violations on the
    # instance the same way, explain the goals whose view atoms reach
    # themselves, and nothing else is kept on it.

    @functools.cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The clause list.  A derived database builds it on first use: the
        rules and constraints in their order, then the facts sorted."""
        return self._clauses + tuple(Rule(a) for a in sorted(self.edb))

    @functools.cached_property
    def view_predicates(self) -> frozenset[str]:
        return frozenset(r.head.pred for r in self.idb if r.head is not None)

    @functools.cached_property
    def base_predicates(self) -> frozenset[str]:
        preds: set[str] = {a.pred for a in self.edb}
        for r in self._clauses:
            for lit in r.body:
                preds.add(lit.atom.pred)
        return frozenset(preds - self.view_predicates - {EQ})

    @functools.cached_property
    def monotone(self) -> bool:
        """No rule or denial body has a negated literal."""
        return not any(l.negated for r in self._clauses for l in r.body)

    @functools.cached_property
    def arities(self) -> Mapping[str, int]:
        """Each predicate's arity, as the clauses first use it."""
        arity: dict[str, int] = {}
        for r in self.rules:
            for a in ([] if r.head is None else [r.head]) + [l.atom for l in r.body]:
                arity.setdefault(a.pred, len(a.args))
        return arity

    def universe(self) -> frozenset[str]:
        """The constants of the clauses: those of the rules and constraints
        and those of the facts, so a changed fact set gets its own."""
        return self._universe

    @functools.cached_property
    def _universe(self) -> frozenset[str]:
        terms = {t for a in self.edb for t in a.args}
        return self._rule_constants.union(t for t in terms if not is_variable(t))

    @functools.cached_property
    def _rule_constants(self) -> frozenset[str]:
        terms: set[str] = set()
        for r in self._clauses:
            if r.head is not None:
                terms.update(r.head.args)
            for lit in r.body:
                terms.update(lit.atom.args)
        return frozenset(t for t in terms if not is_variable(t))

    def with_edb(self, facts: Iterable[Atom]) -> "Database":
        """Same rules and constraints over a replaced set of base facts.

        The result shares this database's rules, constraints, view
        predicates and rule constants; its clause list, once asked for, is
        the rules and constraints in their order, then the facts sorted.
        """
        derived = object.__new__(Database)
        vars(derived).update(
            _clauses=self._clauses,
            idb=self.idb,
            ic=self.ic,
            edb=frozenset(facts),
            view_predicates=self.view_predicates,
            monotone=self.monotone,
            _rule_constants=self._rule_constants,
        )
        return derived


def format_database(db: Database) -> str:
    return "".join(str(r) + ".\n" for r in db.rules)


def ground_rule(rule: Rule, universe: Iterable[str]) -> Iterator[Rule]:
    """All ground instances of rule over the given constants."""
    varnames = sorted(rule.variables())
    if not varnames:
        yield rule
        return
    consts = sorted(set(universe))
    for combo in itertools.product(consts, repeat=len(varnames)):
        yield rule.substitute(dict(zip(varnames, combo)))


def ground_program(rules: Iterable[Rule], universe: Iterable[str]) -> tuple[Rule, ...]:
    consts = sorted(set(universe))
    out: list[Rule] = []
    for rule in rules:
        out.extend(ground_rule(rule, consts))
    return tuple(out)


def stratify(rules: Iterable[Rule]) -> tuple[frozenset[str], ...]:
    """Predicate strata, lowest first.

    Raises NotStratifiableError when some predicate depends on itself
    through negation.  Denials impose no ordering; they are checked against
    the finished model, not used to compute it.
    """
    rules = tuple(rules)
    preds: set[str] = set()
    for r in rules:
        if r.head is not None:
            preds.add(r.head.pred)
        for lit in r.body:
            if lit.atom.pred != EQ:
                preds.add(lit.atom.pred)
    level = {p: 0 for p in preds}
    # classic iterate-to-fixpoint bound: levels can only rise len(preds)
    # times before a negative cycle is the only explanation
    for _ in range(len(preds) + 1):
        changed = False
        for r in rules:
            if r.head is None:
                continue
            h = r.head.pred
            for lit in r.body:
                if lit.atom.pred == EQ:
                    continue
                need = level[lit.atom.pred] + (1 if lit.negated else 0)
                if level[h] < need:
                    level[h] = need
                    changed = True
        if not changed:
            break
    else:
        raise NotStratifiableError("negation cycles through a view definition")
    if not preds:
        return (frozenset(),)
    strata = []
    for i in range(max(level.values()) + 1):
        strata.append(frozenset(p for p in preds if level[p] == i))
    return tuple(strata)


def check_arity(db: Database, atom: Atom) -> None:
    """Raise ValueError unless atom has the arity db uses for its predicate."""
    arity = db.arities.get(atom.pred, len(atom.args))
    if arity != len(atom.args):
        raise ValueError("%s takes %d arguments, got %s" % (atom.pred, arity, atom))


def check_goal(db: Database, atom: Atom) -> None:
    """Raise ValueError unless atom is a goal an update of db may have: a
    ground atom that could be stored without validate rejecting the result,
    so not eq and of the arity db uses for its predicate."""
    if not atom.is_ground:
        raise ValueError("update goals must be ground, got %s" % atom)
    if atom.pred == EQ:
        raise ValueError("eq is built in and cannot be an update goal")
    check_arity(db, atom)


def validate(db: Database) -> tuple[Violation, ...]:
    """Structural problems with a database.  Empty result means well formed."""
    out: list[Violation] = []
    view = db.view_predicates
    arities = db.arities
    for r in db.rules:
        for a in ([] if r.head is None else [r.head]) + [l.atom for l in r.body]:
            seen = arities[a.pred]
            if seen != len(a.args):
                out.append(Violation("arity-mismatch",
                                     "%s used with %d and %d arguments" % (a.pred, seen, len(a.args))))
        if r.is_fact:
            assert r.head is not None
            if not r.head.is_ground:
                out.append(Violation("non-ground-fact", "fact %s contains variables" % r.head))
            if r.head.pred in view:
                out.append(Violation("view-fact", "%s is defined by rules, facts for it are not allowed" % r.head.pred))
            if r.head.pred == EQ:
                out.append(Violation("eq-misuse", "eq is built in and cannot be asserted"))
            continue
        if r.head is not None and r.head.pred == EQ:
            out.append(Violation("eq-misuse", "eq cannot appear in a rule head"))
        # safety: every variable must be bound by a positive body atom
        # of an ordinary predicate
        bound: set[str] = set()
        for lit in r.body:
            if not lit.negated and lit.atom.pred != EQ:
                bound |= lit.atom.variables()
        if not r.variables() <= bound:
            loose = ", ".join(sorted(r.variables() - bound))
            out.append(Violation("unsafe-rule", "variables %s in '%s' are not bound by a positive body atom" % (loose, r)))
        for lit in r.body:
            if lit.atom.pred == EQ and len(lit.atom.args) != 2:
                out.append(Violation("eq-misuse", "eq takes exactly two arguments"))
    return tuple(out)
