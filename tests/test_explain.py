"""Explanation families, pinned against subset enumeration."""

import random
from pathlib import Path

from hypothesis import given, settings

from vud.lang import Atom, Database
from vud.explain import (
    explanations,
    local_explanations,
    minimal_members,
    missing_support,
    missing_union,
    support_union,
)

from oracles import minimal_sets, naive_model, subset_explanations
from strategies import positive_dbs, view_goals

DATA = Path(__file__).resolve().parents[1] / "data"


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


def test_basic_local_explanations_golden():
    db = Database.load(str(DATA / "basic.dl"))
    assert local_explanations(db, Atom("p")) == (atoms("a", "e"), atoms("a", "f"), atoms("a"))
    assert local_explanations(db, Atom("q")) == (atoms("a", "f"), atoms("a"))


def test_basic_minimal_explanations_golden():
    db = Database.load(str(DATA / "basic.dl"))
    assert explanations(db, Atom("p")) == (atoms("a"),)
    assert explanations(db, Atom("q")) == (atoms("a"),)


def test_basic_missing_support_golden():
    db = Database.load(str(DATA / "basic.dl"))
    assert missing_support(db, Atom("p")) == (atoms("b"),)
    assert missing_union(db, Atom("p")) == atoms("b")
    assert support_union(db, Atom("p")) == atoms("a", "e", "f")


def test_staff_explanations():
    db = Database.load(str(DATA / "staff.dl"))
    goal = Atom("staff_chair", ("delhibabu", "matthias"))
    assert explanations(db, goal) == (
        frozenset({Atom("staff_group", ("delhibabu", "infor1")), Atom("group_chair", ("infor1", "matthias"))}),
    )


def test_underivable_atom_has_no_explanations():
    db = Database.parse("p :- a.\n")
    assert local_explanations(db, Atom("p")) == ()
    assert explanations(db, Atom("p")) == ()
    assert support_union(db, Atom("p")) == frozenset()
    # but it has exactly one way to become derivable
    assert missing_support(db, Atom("p")) == (atoms("a"),)


def test_missing_support_empty_when_underivable_every_way():
    db = Database.parse("p :- q.\nq :- p.\n")
    assert missing_support(db, Atom("p")) == ()


def test_minimal_members():
    fam = [atoms("a", "e"), atoms("a"), atoms("a", "f"), atoms("e", "f")]
    assert minimal_members(fam) == (atoms("a"), atoms("e", "f"))
    assert minimal_members([]) == ()
    assert minimal_members([frozenset()]) == (frozenset(),)


def test_minimal_members_match_the_loop():
    # repeated, empty and nested members, in random order
    rng = random.Random(5)
    for _ in range(300):
        pool = [Atom("a%d" % i) for i in range(rng.randint(1, 7))]
        family = [frozenset(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(rng.randint(0, 30))]
        assert minimal_members(family) == tuple(minimal_sets(family)), family


@settings(max_examples=120, deadline=None)
@given(positive_dbs(), view_goals)
def test_explanations_match_subset_enumeration(db, goal):
    local = local_explanations(db, goal)
    # soundness: each local explanation really derives the goal on its own
    for expl in local:
        assert goal in naive_model(db.idb, expl)
        assert expl <= db.edb
    # the minimal members agree with brute-force subset enumeration
    oracle = minimal_sets(subset_explanations(db.idb, db.edb, goal))
    assert list(explanations(db, goal)) == oracle


@settings(max_examples=80, deadline=None)
@given(positive_dbs(), view_goals)
def test_every_minimal_deriving_set_is_covered(db, goal):
    # any subset-minimal deriving set shows up below some proof branch
    local = local_explanations(db, goal)
    for m in minimal_sets(subset_explanations(db.idb, db.edb, goal)):
        assert any(m <= l or l <= m for l in local)
        assert any(l <= m for l in local)
