"""The join evaluator against the grounding evaluation it replaced.

Models, constraint violations, fired deletion clauses and firing instances
must match the grounded references in oracles.py exactly, order included,
on seeded random corpora with negation, eq literals, body-only variables,
unsafe variables and view cycles.
"""

import random

import pytest

from vud.deletion import deletion_program
from vud.insertion import magic_query
from vud.lang import EQ, Atom, Database, Literal, Rule, ground_program, is_variable, parse_program
from vud.randgen import GeneratorConfig, random_database
from vud.semantics import check_ic, firing_instances, fixpoint_model, least_model

from oracles import (
    grounded_check_ic,
    grounded_deletion_program,
    grounded_fixpoint_model,
    naive_model,
)

SEEDS = range(60)

CONFIGS = {
    "cyclic": GeneratorConfig(),
    "negation": GeneratorConfig(negation=True, constraints=True),
    "acyclic": GeneratorConfig(negation=True, acyclic=True, max_arity=3, extra_body_vars=3),
}


def _term(rng: random.Random, rule: Rule, consts: list[str]) -> str:
    names = sorted(rule.variables())
    return rng.choice(names + consts[:1]) if names else rng.choice(consts)


def _with_extras(db: Database, seed: int) -> Database:
    """The database plus eq literals, an unsafe variable per view rule now
    and then, and denials copied from rule bodies (so their variables are
    free), all chosen by the seed."""
    rng = random.Random(seed)
    consts = sorted(db.universe()) or ["a"]
    rules: list[Rule] = []
    denials: list[Rule] = list(db.ic)
    for r in db.idb:
        body = list(r.body)
        if rng.random() < 0.4:
            body.append(Literal(Atom(EQ, (_term(rng, r, consts), _term(rng, r, consts))), rng.random() < 0.5))
        if rng.random() < 0.2:
            # a variable that only a negated literal mentions, which grounding
            # ranges over the whole universe
            negated = next((l for l in body if l.negated and l.atom.args), None)
            if negated is not None:
                args = ("U1",) + negated.atom.args[1:]
                body.append(Literal(Atom(negated.atom.pred, args), negated=True))
        rules.append(Rule(r.head, tuple(body)))
        if rng.random() < 0.3:
            denials.append(Rule(None, tuple(body)))
    facts = tuple(Rule(a) for a in sorted(db.edb))
    return Database(tuple(rules) + facts + tuple(denials))


def corpus(name: str) -> list[Database]:
    return [_with_extras(random_database(seed, CONFIGS[name]), seed) for seed in SEEDS]


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def databases(request) -> list[Database]:
    return corpus(request.param)


def test_corpora_exercise_every_feature():
    dbs = [db for name in CONFIGS for db in corpus(name)]
    lits = [l for db in dbs for r in db.rules for l in r.body]
    assert any(l.atom.pred == EQ for l in lits)
    assert any(l.negated and l.atom.pred != EQ for l in lits)
    assert any("U1" in r.variables() for db in dbs for r in db.idb)
    assert any(r.variables() for db in dbs for r in db.ic)
    # a view that depends on itself positively
    assert any(
        r.head is not None and any(l.atom.pred == r.head.pred for l in r.body)
        for db in dbs
        for r in db.idb
    )


def test_models_match_grounding_and_naive(databases):
    for db in databases:
        model = least_model(db)
        assert model == grounded_fixpoint_model(db.idb, db.edb, db.universe())
        assert fixpoint_model(db.idb, db.edb) == naive_model(db.idb, db.edb)


def test_constraint_violations_match_in_order(databases):
    violated = 0
    for db in databases:
        got = check_ic(db)
        assert got == grounded_check_ic(db, least_model(db))
        violated += bool(got)
    assert violated


def test_deletion_program_matches_in_order(databases):
    for db in databases:
        assert deletion_program(db) == grounded_deletion_program(db, least_model(db))


def _grounded_firing(rules, model, universe):
    return tuple(
        r for r in ground_program(rules, universe)
        if all(
            (l.atom.args[0] == l.atom.args[1]) != l.negated if l.atom.pred == EQ else (l.atom in model) != l.negated
            for l in r.body
        )
    )


@pytest.mark.parametrize("shape", ["smaller", "larger"])
def test_explicit_universe(databases, shape):
    for seed, db in enumerate(databases):
        consts = sorted(db.universe())
        if shape == "smaller":
            universe = set(random.Random(seed).sample(consts, len(consts) // 2))
        else:
            universe = set(consts) | {"z1", "z2"}
        model = fixpoint_model(db.idb, db.edb, universe)
        assert model == grounded_fixpoint_model(db.idb, db.edb, universe)
        assert firing_instances(db.rules, model, universe) == _grounded_firing(db.rules, model, universe)


def test_universe_drops_bindings_outside_it():
    rules = parse_program("p(X) :- q(X). r(c) :- q(a). s(X) :- r(X). t :- r(c).")
    facts = [Atom("q", ("a",)), Atom("q", ("z",))]
    model = fixpoint_model(rules, facts, {"a"})
    assert model == grounded_fixpoint_model(rules, facts, {"a"})
    # z and c lie outside the universe: stored and derived atoms may carry
    # them, but no variable takes them; a constant in a rule still matches
    assert Atom("p", ("z",)) not in model
    assert Atom("s", ("c",)) not in model
    assert {Atom("r", ("c",)), Atom("t"), Atom("p", ("a",))} <= model


def test_unbound_variables_range_over_universe():
    rules = parse_program("p(X) :- not q(X). r(X, Y) :- q(X), eq(Y, b).")
    facts = [Atom("q", ("a",))]
    for universe in ({"a", "b"}, {"a", "b", "c"}):
        model = fixpoint_model(rules, facts, universe)
        assert model == grounded_fixpoint_model(rules, facts, universe)
    assert Atom("p", ("c",)) in model and Atom("r", ("a", "b")) in model


def test_magic_query_agrees_with_least_model():
    derivable = underivable = 0
    for seed in SEEDS:
        db = random_database(seed, GeneratorConfig())
        model = least_model(db)
        rng = random.Random(seed)
        consts = sorted(db.universe())
        for r in db.idb:
            assert r.head is not None
            for _ in range(3):
                goal = Atom(r.head.pred, tuple(a if not is_variable(a) else rng.choice(consts) for a in r.head.args))
                assert magic_query(db, goal) == (goal in model)
                derivable += goal in model
                underivable += goal not in model
    assert derivable and underivable
