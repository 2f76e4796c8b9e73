"""The join evaluator against the grounding evaluation it replaced.

Models, constraint violations, fired deletion clauses and firing instances
must match the grounded references in oracles.py exactly, order included,
on seeded random corpora with negation, eq literals, body-only variables,
unsafe variables and view cycles.  Models, and the models of the databases
updates produce, must be closed under every grounded rule instance.
"""

import functools
import random

import pytest

from vud.deletion import deletion_program
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.insertion import magic_query
from vud.lang import EQ, Atom, Database, Literal, Rule, ground_program, is_variable, parse_program
from vud.randgen import GeneratorConfig, random_database, random_ground_atom
from vud.revision import contract, revise
from vud.semantics import check_ic, firing_instances, fixpoint_model, least_model

from oracles import (
    grounded_check_ic,
    grounded_closed,
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
        assert fixpoint_model(db.idb, db.edb, db.universe()) == naive_model(db.idb, db.edb)
        assert grounded_closed(db, model)


def test_updated_models_are_naive_and_closed(databases):
    # the result database of an update keeps its rules, so its model must
    # still be the naive one and closed under them (rationality_report
    # takes closure from construction)
    updated = 0
    for seed, db in enumerate(databases):
        # a derivable view atom to delete, or a random one to insert
        present = sorted(a for a in least_model(db) if a.pred in db.view_predicates)
        if present:
            request = UpdateRequest(deletes=(random.Random(seed).choice(present),))
        else:
            request = UpdateRequest(inserts=(random_ground_atom(db, seed),))
        try:
            after = view_update(db, request).database
        except UnrealizableError:
            continue
        updated += after.edb != db.edb
        model = least_model(after)
        assert model == naive_model(after.idb, after.edb)
        assert grounded_closed(after, model)
    assert updated >= len(databases) // 3


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


@pytest.mark.parametrize("extra", [{"z1", "z2"}], ids=["larger"])
def test_explicit_universe(databases, extra):
    # a universe may hold constants beyond the database's own
    for db in databases:
        universe = db.universe() | extra
        model = fixpoint_model(db.idb, db.edb, universe)
        assert model == grounded_fixpoint_model(db.idb, db.edb, universe)
        assert firing_instances(db.rules, model, universe) == _grounded_firing(db.rules, model, universe)


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


TRAFFIC_CONFIGS = (
    GeneratorConfig(),
    GeneratorConfig(negation=True, constraints=True),
    GeneratorConfig(negation=True, constraints=True, extra_body_vars=1),
    GeneratorConfig(acyclic=True, extra_body_vars=1, constant_count=2),
)


def _requests(db: Database, seed: int):
    """An insert of a random view atom, a delete of a derivable one (or of
    the same atom when none is), under both variants, and contract and
    revise of each goal."""
    inserted = random_ground_atom(db, seed)
    present = sorted(a for a in least_model(db) if a.pred in db.view_predicates)
    deleted = random.Random(seed).choice(present) if present else inserted
    for variant in ("minimal", "materialized"):
        yield functools.partial(view_update, db, UpdateRequest(inserts=(inserted,)), variant=variant)
        yield functools.partial(view_update, db, UpdateRequest(deletes=(deleted,)), variant=variant)
    yield functools.partial(revise, db, inserted)
    yield functools.partial(contract, db, deleted)


def test_every_evaluation_ranges_over_its_constants(model_computations, firing_computations):
    # the evaluator takes a universe that holds every constant of the rules
    # and atoms it joins; check the engine's own calls keep to that
    for cfg in TRAFFIC_CONFIGS:
        for seed in range(60):
            db = random_database(seed, cfg)
            for request in _requests(db, seed):
                try:
                    request()
                except UnrealizableError:
                    pass
    assert len(model_computations) > 1000 and len(firing_computations) > 100
    for rules, atoms, universe in model_computations + firing_computations:
        used = {t for a in atoms for t in a.args}
        used.update(t for r in rules for a in (r.head, *[l.atom for l in r.body]) if a is not None for t in a.args)
        assert {t for t in used if not is_variable(t)} <= universe, (rules, atoms)
