"""Databases derived by Transaction.apply (Database.with_edb) against the
whole rebuild they replaced, oracles.rebuilt_database."""

import gc
import random
import weakref
from pathlib import Path

import pytest

from vud.lang import Atom, Database, Transaction, format_database, is_variable, stratify, validate
from vud.randgen import GeneratorConfig, chain_database, random_database
from vud.semantics import check_ic, least_model

from oracles import rebuilt_database

DATA = Path(__file__).resolve().parents[1] / "data"

CORPORA = {
    "plain": GeneratorConfig(acyclic=True),
    "negation+denials": GeneratorConfig(negation=True, constraints=True),
    "cyclic": GeneratorConfig(),
}


def _clause_constants(db: Database) -> set[str]:
    heads = [r.head for r in db.rules if r.head is not None]
    return {t for a in heads + [l.atom for r in db.rules for l in r.body] for t in a.args if not is_variable(t)}


def _assert_same(got: Database, want: Database) -> None:
    # the derivations a changed database is checked by come first, before
    # anything asks for its clause list
    assert got.universe() == want.universe() == _clause_constants(want)
    assert got.view_predicates == want.view_predicates
    assert got.base_predicates == want.base_predicates
    assert least_model(got) == least_model(want)
    assert check_ic(got) == check_ic(want)
    assert list(got.arities.items()) == list(want.arities.items())
    assert validate(got) == validate(want)
    assert stratify(got.rules) == stratify(want.rules)
    assert got.rules == want.rules
    assert got == want and hash(got) == hash(want)
    assert format_database(got) == format_database(want)


def _changes(db: Database, seed: int) -> list[Transaction]:
    """A run of changes to db's facts, each applied to the result of the one
    before.  The first adds a predicate no clause mentions (at two arities,
    one fact of it not ground) and a fresh constant; the second removes them
    again, and with them the only facts that hold that constant.  Random changes over stored and
    unstored base atoms follow, some of them adding and removing one atom."""
    rng = random.Random(seed)
    consts = sorted(db.universe()) or ["a"]
    fresh = {Atom("visitor"), Atom("visitor", ("new_1",)), Atom("visitor", ("X",))}
    fresh.update(Atom(p, ("new_1",) * n) for p, n in db.arities.items() if p in db.base_predicates and n)
    pool = sorted(db.edb) + [
        Atom(p, tuple(rng.choice(consts) for _ in range(db.arities[p])))
        for p in sorted(db.base_predicates)
        for _ in range(2)
    ]
    changes = [Transaction(frozenset(fresh), frozenset()), Transaction(frozenset(), frozenset(fresh))]
    for _ in range(6):
        changes.append(Transaction(
            frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool))))),
            frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool))))),
        ))
    return changes


def _assert_derivations_agree(db: Database, seed: int) -> None:
    got, want = db, db
    for i, tx in enumerate(_changes(db, seed)):
        got = tx.apply(got)
        want = rebuilt_database(want, (want.edb | tx.additions) - tx.removals)
        _assert_same(got, want)
        assert ("new_1" in got.universe()) == (i == 0)


def _databases():
    for name in sorted(CORPORA):
        for seed in range(25):
            yield pytest.param(random_database(seed, CORPORA[name]), seed, id="%s-%d" % (name, seed))
    for n in range(1, 9):
        yield pytest.param(chain_database(n), n, id="chain-%d" % n)
    for path in sorted(DATA.glob("*.dl")):
        yield pytest.param(Database.load(str(path)), 0, id=path.name)


@pytest.mark.parametrize("db,seed", _databases())
def test_applied_changes_match_the_rebuilt_database(db, seed):
    _assert_derivations_agree(db, seed)


def test_a_changed_database_shares_its_rules_and_outlives_its_parent():
    parent = Database.load(str(DATA / "staff.dl"))
    least_model(parent)
    tx = Transaction(frozenset({Atom("staff_group", ("aravindan", "infor2"))}), frozenset())
    after = tx.apply(parent)
    assert after is not parent
    assert after.idb is parent.idb and after.ic is parent.ic
    assert least_model(after) != least_model(parent) and check_ic(after) == ()
    # checking a change builds no clause list
    assert "rules" not in vars(after)
    want = rebuilt_database(parent, after.edb)
    gone = weakref.ref(parent)
    del parent
    gc.collect()
    assert gone() is None
    _assert_same(after, want)
    _assert_same(Transaction(frozenset(), tx.additions).apply(after), rebuilt_database(want, want.edb - tx.additions))
