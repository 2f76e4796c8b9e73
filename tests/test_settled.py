"""Removals on monotone, consistent databases are finished without a model.

On a database with no negated body literal (Database.monotone) that
satisfies its constraints, view_update and contract take a first-round
removal as a cut without checking it.  These tests run every request a
second time with monotone forced to False, which puts each candidate
through the full check again, and require the same answers.
"""

import functools
import sys
from pathlib import Path

import pytest

from vud import semantics
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.lang import Atom, Database, Transaction
from vud.randgen import GeneratorConfig, chain_database, random_database, random_ground_atom
from vud.revision import contract, revise
from vud.semantics import check_ic, least_model

from strategies import long_chain_text

DATA = Path(__file__).resolve().parents[1] / "data"
SEEDS = range(40)
CONFIGS = {
    "plain": GeneratorConfig(extra_body_vars=0),
    # some of these start inconsistent, so nothing is taken unchecked
    "denials": GeneratorConfig(extra_body_vars=0, constraints=True),
    "cyclic": GeneratorConfig(),
}


def _update(db: Database, request: UpdateRequest, variant: str) -> tuple:
    try:
        r = view_update(db, request, variant=variant)
    except UnrealizableError as e:
        return ("unrealizable", str(e), e.exhausted)
    return (r.alternatives, r.chosen, r.postulates, r.exhausted)


def _answers(db: Database) -> list:
    """Every derivable view atom deleted alone through both variants,
    contracted and revised; the first two deleted together, and the first
    deleted while the second is kept; and, where a seeded view atom is not
    derivable, it inserted alone and beside the first deletion, and revised.
    Requests with an insertion, and revisions, keep the full check."""
    goals = sorted((a for a in least_model(db) if a.pred in db.view_predicates), key=str)
    out = []
    for goal in goals:
        for variant in ("minimal", "materialized"):
            out.append(_update(db, UpdateRequest(deletes=(goal,)), variant))
        out.append(contract(db, goal))
        out.append(revise(db, goal))
    if len(goals) > 1:
        out.append(_update(db, UpdateRequest(deletes=tuple(goals[:2])), "minimal"))
        # keeping a derivable atom: a cut of the other may take it too
        out.append(_update(db, UpdateRequest(inserts=goals[1:2], deletes=goals[:1]), "minimal"))
    new = random_ground_atom(db, 0) if db.view_predicates else None
    if new is not None and new not in least_model(db):
        out.append(_update(db, UpdateRequest(inserts=(new,)), "minimal"))
        out.append(_update(db, UpdateRequest(inserts=(new,), deletes=tuple(goals[:1])), "minimal"))
        out.append(revise(db, new))
    return out


def _databases() -> list[tuple[str, Database]]:
    dbs = [("%s-%d" % (name, seed), random_database(seed, cfg))
           for name, cfg in CONFIGS.items() for seed in SEEDS]
    dbs += [("chain-%d" % n, chain_database(n)) for n in range(1, 9)]
    dbs += [("long-%d" % n, Database.parse(long_chain_text(n))) for n in range(1, 31)]
    dbs += [(path.name, Database.load(str(path))) for path in sorted(DATA.glob("*.dl"))]
    return dbs


def test_settled_path_gives_the_checked_answers(monkeypatch):
    dbs = _databases()
    assert any(db.monotone and not check_ic(db) for _, db in dbs)
    assert any(db.monotone and check_ic(db) for _, db in dbs)
    fast = {name: _answers(db) for name, db in dbs}
    monkeypatch.setattr(Database, "monotone", property(lambda self: False))
    for name, db in dbs:
        # a fresh copy, so nothing computed in the first run is reused
        again = Database(db.rules)
        assert not again.monotone
        assert _answers(again) == fast[name], name


def test_negation_in_a_denial_is_not_monotone():
    # deleting v removes f, which arms the denial unless g goes too
    db = Database.parse("v :- e. v :- f. e. f. g. :- g, not f.")
    v = Atom("v")
    assert not db.monotone and not check_ic(db)
    for variant in ("minimal", "materialized"):
        result = view_update(db, UpdateRequest(deletes=(v,)), variant=variant)
        for tx in result.alternatives:
            assert not check_ic(tx.apply(db)), (variant, tx)
    contracted = contract(db, v)
    assert contracted
    for tx in contracted:
        assert not check_ic(tx.apply(db)), tx
        assert Atom("g") in tx.removals


def test_long_chain_delete_and_contract_compute_few_models(monkeypatch):
    db = Database.parse(long_chain_text(200))
    calls = 0
    real = semantics.fixpoint_model

    @functools.wraps(real)
    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("vud") and getattr(module, "fixpoint_model", None) is real:
            monkeypatch.setattr(module, "fixpoint_model", counted)
    p0 = Atom("p0")
    result = view_update(db, UpdateRequest(deletes=(p0,)))
    contracted = contract(db, p0)
    assert calls < 10
    cuts = {Transaction(frozenset(), frozenset({Atom("a%d" % i)})) for i in range(201)}
    assert len(result.alternatives) == 201 and set(result.alternatives) == cuts
    assert len(contracted) == 201 and set(contracted) == cuts
    assert all(report.ok for report in result.postulates)


@pytest.mark.parametrize("text", ["p :- a. a.", "p :- a. a. :- b.", "p :- a, not b. a."])
def test_monotone_is_shared_by_derived_databases(text):
    db = Database.parse(text)
    derived = Transaction(frozenset(), frozenset({Atom("a")})).apply(db)
    assert derived.monotone == db.monotone == ("not" not in text)
