"""Seeded random databases, valid and stratifiable by construction.

Used to fuzz the evaluator and the update engine: a fixed seed always
yields the same database, so a failing case can be replayed.  View
predicates are ordered and a rule may negate only base predicates or views
that come strictly earlier, which rules out negative cycles before
stratification ever runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .lang import Atom, Database, Literal, Rule, fact, is_variable, stratify, validate


@dataclass(frozen=True)
class GeneratorConfig:
    view_count: int = 3
    base_count: int = 4
    constant_count: int = 3
    max_arity: int = 2
    rules_per_view: int = 2
    max_body: int = 3
    # body-only variables beyond the head's; each one an existential that
    # insertion must witness
    extra_body_vars: int = 2
    negation: bool = False
    constraints: bool = False
    fact_density: float = 0.5
    # forbid positive dependency cycles between views, self-loops included
    acyclic: bool = False


def random_database(seed: int, config: GeneratorConfig | None = None) -> Database:
    cfg = config or GeneratorConfig()
    rng = random.Random(seed)
    views = ["v%d" % i for i in range(1, cfg.view_count + 1)]
    bases = ["e%d" % i for i in range(1, cfg.base_count + 1)]
    consts = [chr(ord("a") + i) for i in range(cfg.constant_count)]
    arity = {p: rng.randint(0, cfg.max_arity) for p in views + bases}

    rules: list[Rule] = []
    for index, view in enumerate(views):
        for _ in range(rng.randint(1, cfg.rules_per_view)):
            head_vars = tuple("X%d" % k for k in range(1, arity[view] + 1))
            body: list[Literal] = []
            bound: set[str] = set()
            var_pool = list(head_vars) + ["Y%d" % k for k in range(1, cfg.extra_body_vars + 1)]
            # with negation in play, positive references must not climb the
            # view order, or a negative edge could close a cycle; acyclic
            # mode tightens that to strictly earlier views, self excluded
            if cfg.acyclic:
                positive_pool = bases + views[:index]
            elif cfg.negation:
                positive_pool = bases + views[: index + 1]
            else:
                positive_pool = bases + views
            for _ in range(rng.randint(1, cfg.max_body)):
                pred = rng.choice(positive_pool)
                args = tuple(
                    rng.choice(var_pool + consts) for _ in range(arity[pred])
                )
                body.append(Literal(Atom(pred, args)))
                bound.update(a for a in args if is_variable(a))
            if cfg.negation and index > 0 and rng.random() < 0.5:
                pred = rng.choice(bases + views[:index])
                choices = sorted(bound) + consts
                args = tuple(rng.choice(choices) for _ in range(arity[pred]))
                body.append(Literal(Atom(pred, args), negated=True))
            # head variables the body never bound become constants
            missing = {v: rng.choice(consts) for v in head_vars if v not in bound}
            head = Atom(view, head_vars).substitute(missing)
            rules.append(Rule(head, tuple(body)))

    facts: list[Rule] = []
    for pred in bases:
        for combo in itertools.product(consts, repeat=arity[pred]):
            if rng.random() < cfg.fact_density:
                facts.append(fact(pred, *combo))

    denials: list[Rule] = []
    if cfg.constraints:
        for _ in range(rng.randint(1, 2)):
            pred = rng.choice(bases + views)
            args = tuple(rng.choice(consts) for _ in range(arity[pred]))
            denials.append(Rule(None, (Literal(Atom(pred, args)),)))

    db = Database(tuple(rules) + tuple(facts) + tuple(denials))
    problems = validate(db)
    if problems:
        raise RuntimeError("generator bug, invalid database: %s" % problems[0].message)
    stratify(db.rules)
    return db


def random_ground_atom(db: Database, seed: int, view: bool = True) -> Atom:
    """A ground atom over the database's own predicates and constants."""
    rng = random.Random(seed)
    preds = sorted(db.view_predicates if view else db.base_predicates)
    if not preds:
        raise ValueError("database has no %s predicates" % ("view" if view else "base"))
    pred = rng.choice(preds)
    consts = sorted(db.universe()) or ["a"]
    return Atom(pred, tuple(rng.choice(consts) for _ in range(db.arities.get(pred, 0))))


def chain_database(n: int) -> Database:
    """Chain of view predicates where every link has two supports.

    p1 depends on p2 depends on ... depends on pn, and each pi can be
    established through ai or through bi.  Deleting p1 admits only n
    minimal cuts, but the raw branch family of the deletion tableau
    grows exponentially with n while the search itself stays narrow.
    """
    if n < 1:
        raise ValueError("chain length must be positive")
    rules: list[Rule] = []
    for i in range(1, n):
        rules.append(Rule(Atom("p%d" % i), (Literal(Atom("a%d" % i)), Literal(Atom("p%d" % (i + 1))))))
        rules.append(Rule(Atom("p%d" % i), (Literal(Atom("b%d" % i)), Literal(Atom("p%d" % (i + 1))))))
    rules.append(Rule(Atom("p%d" % n), (Literal(Atom("a%d" % n)),)))
    rules.append(Rule(Atom("p%d" % n), (Literal(Atom("b%d" % n)),)))
    facts = [Rule(Atom(x % i)) for i in range(1, n + 1) for x in ("a%d", "b%d")]
    return Database(tuple(rules) + tuple(facts))
