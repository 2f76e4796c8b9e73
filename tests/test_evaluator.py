"""The join evaluator against the grounding evaluation it replaced.

Models, constraint violations, fired deletion clauses and firing instances
must match the grounded references in oracles.py exactly, order included,
on seeded random corpora with negation, eq literals, body-only variables,
unsafe variables and view cycles.  Models, and the models of the databases
updates produce, must be closed under every grounded rule instance.  The
strata read off the dependency components must be the iterated ones, and
a family of variable-free programs, with a recursive one beside them, puts
each way a component is evaluated against the naive and grounded models.
"""

import functools
import random
from pathlib import Path

import pytest

from vud.deletion import deletion_program
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.insertion import magic_query
from vud.lang import (
    EQ, Atom, Database, Literal, NotStratifiableError, Rule, dependency_components, ground_program, is_variable,
    parse_program, stratify,
)
from vud.randgen import GeneratorConfig, chain_database, random_database, random_ground_atom
from vud.revision import contract, revise
from vud.semantics import check_ic, firing_instances, fixpoint_model, least_model

from oracles import (
    grounded_check_ic,
    grounded_closed,
    grounded_deletion_program,
    grounded_fixpoint_model,
    iterated_strata,
    naive_model,
)

DATA = Path(__file__).resolve().parents[1] / "data"

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


def test_strata_match_the_iterated_ones():
    dbs = [db for name in CONFIGS for db in corpus(name)]
    dbs += [Database.load(str(path)) for path in sorted(DATA.glob("*.dl"))]
    layered = 0
    for db in dbs:
        strata = stratify(db.rules)
        assert strata == iterated_strata(db.rules)
        layered += len(strata) > 1
    assert layered


@pytest.mark.parametrize("text", [
    "", ":- not eq(a,b).", "p :- not eq(a,b).", ":- a, not b.", "p :- not b.", "p :- a, not eq(a,b). :- not c.",
])
def test_strata_of_edge_programs_match_the_iterated_ones(text):
    # negated eq literals and denials raise no level; a negated stored
    # predicate does
    rules = parse_program(text)
    assert stratify(rules) == iterated_strata(rules)


@pytest.mark.parametrize("text", ["p :- not q. q :- not p.", "p(X) :- e(X), not p(X)."])
def test_negative_cycles_are_rejected_both_ways(text):
    rules = parse_program(text)
    with pytest.raises(NotStratifiableError):
        stratify(rules)
    with pytest.raises(NotStratifiableError):
        iterated_strata(rules)


def _far_negation_chain(n: int, stored_c: bool) -> Database:
    """p0 :- a0, p1.  ...  pn :- an, not q.  q :- c.  with every a_i stored,
    and c too when asked."""
    text = "".join("p%d :- a%d, p%d.\n" % (i, i, i + 1) for i in range(n))
    text += "p%d :- a%d, not q.\nq :- c.\n" % (n, n) + "".join("a%d.\n" % i for i in range(n + 1))
    return Database.parse(text + ("c.\n" if stored_c else ""))


def variable_free_family() -> list[Database]:
    """Variable-free programs: two-support chains, a long chain negating q
    at its far end, eq settled on constants under negated views, and a
    ground cycle; then transitive closure over a path, which recurses
    through variables."""
    dbs = [chain_database(n) for n in range(3, 9)]
    dbs += [_far_negation_chain(40, stored_c) for stored_c in (False, True)]
    dbs += [Database.parse(text) for text in (
        "p :- eq(a,b). q :- not p.",
        "p :- eq(a,a), s. q :- not p, not eq(a,b). r :- s, not q. t :- not r, eq(b,b). s.",
        "p :- not eq(a,a). q :- eq(a,b). r :- not p, not q. :- r, eq(a,a).",
        "p :- q. q :- p. q :- a. a.",
        "p :- q. q :- r. r :- p. p :- a. a.",
        "p :- q. q :- p. r :- not p. q :- a.",
    )]
    dbs.append(Database.parse(
        "tc(X,Y) :- e(X,Y). tc(X,Z) :- e(X,Y), tc(Y,Z).\n" + "".join("e(v%d,v%d).\n" % (i, i + 1) for i in range(6))))
    return dbs


def test_variable_free_family_matches_naive_and_grounding():
    recursive = {"ground": 0, "joined": 0}
    for db in variable_free_family():
        model = fixpoint_model(db.idb, db.edb, db.universe())
        assert model == naive_model(db.idb, db.edb)
        assert model == grounded_fixpoint_model(db.idb, db.edb, db.universe())
        assert model == least_model(db)
        # a recursive component: more than one predicate, or one that uses itself
        cyclic = any(
            len(component) > 1 or any(l.atom.pred in component for r in db.idb if r.head.pred in component for l in r.body)
            for component in dependency_components(db.idb)
        )
        if cyclic:
            recursive["joined" if any(r.variables() for r in db.idb) else "ground"] += 1
    assert recursive == {"ground": 3, "joined": 1}


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
