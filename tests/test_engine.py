"""The update engine end to end: requests, variants, repair."""

from hypothesis import given, settings

from vud import lang
from vud.deletion import deletion_candidates
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.lang import Atom, Database, Transaction, validate
from vud.semantics import check_ic, least_model

import pytest

from oracles import base_atoms, brute_transactions
from strategies import dbs_with_derivable_goal, dbs_with_underivable_goal


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


@pytest.fixture(scope="module")
def basic() -> Database:
    return Database.load("data/basic.dl")


@pytest.fixture(scope="module")
def staff() -> Database:
    return Database.load("data/staff.dl")


def test_delete_view_atom_minimal(basic):
    result = view_update(basic, UpdateRequest(deletes=(Atom("p"),)))
    assert result.alternatives == (Transaction(frozenset(), atoms("a")),)
    assert result.chosen == result.alternatives[0]
    assert least_model(result.database) == atoms("e", "f")
    assert len(result.postulates) == 1 and result.postulates[0].ok


def test_delete_view_atom_materialized(basic):
    result = view_update(basic, UpdateRequest(deletes=(Atom("p"),)), variant="materialized")
    assert result.alternatives == (
        Transaction(frozenset(), atoms("a")),
        Transaction(frozenset(), atoms("a", "e")),
        Transaction(frozenset(), atoms("a", "e", "f")),
    )
    assert result.chosen == result.alternatives[0]


def test_insert_view_atom(staff):
    goal = Atom("staff_chair", ("aravindan", "gerhard"))
    result = view_update(staff, UpdateRequest(inserts=(goal,)))
    assert result.chosen == Transaction(
        frozenset({Atom("staff_group", ("aravindan", "infor2"))}), frozenset()
    )
    # the alternative reseats gerhard as chair of infor1, displacing two facts
    assert result.alternatives == (
        result.chosen,
        Transaction(
            frozenset({Atom("group_chair", ("infor1", "gerhard"))}),
            frozenset(
                {
                    Atom("group_chair", ("infor1", "matthias")),
                    Atom("group_chair", ("infor2", "gerhard")),
                }
            ),
        ),
    )
    assert goal in least_model(result.database)
    assert not check_ic(result.database)
    assert result.postulates[0].ok and result.postulates[0].failures == ()


def test_insert_on_shrunk_database(basic):
    db = basic.with_edb(atoms("e", "f"))
    result = view_update(db, UpdateRequest(inserts=(Atom("p"),)))
    assert result.alternatives == (Transaction(atoms("a"), frozenset()),)


def test_base_atom_direct_changes(basic):
    added = view_update(basic, UpdateRequest(inserts=(Atom("z"),)))
    assert added.chosen == Transaction(atoms("z"), frozenset())
    removed = view_update(basic, UpdateRequest(deletes=(Atom("e"),)))
    assert removed.chosen == Transaction(frozenset(), atoms("e"))
    vacuous = view_update(basic, UpdateRequest(inserts=(Atom("e"),), deletes=(Atom("z"),)))
    assert vacuous.chosen.is_empty


def test_interacting_goals_resolved_by_reexpansion():
    db = Database.parse("p :- a.\nq :- a.\nq :- c.\na.\n")
    request = UpdateRequest(inserts=(Atom("q"),), deletes=(Atom("p"),))
    result = view_update(db, request)
    assert result.alternatives == (Transaction(atoms("c"), atoms("a")),)
    model = least_model(result.database)
    assert Atom("q") in model and Atom("p") not in model


def test_contradictory_request(basic):
    with pytest.raises(UnrealizableError) as err:
        view_update(basic, UpdateRequest(inserts=(Atom("e"),), deletes=(Atom("e"),)))
    assert "contradictory" in str(err.value)


def test_unrealizable_carries_trace(basic):
    # q can only be retracted by dropping a, after which p needs b, and a
    # denial forbids b: genuinely impossible
    request = UpdateRequest(inserts=(Atom("p"),), deletes=(Atom("q"),))
    with pytest.raises(UnrealizableError) as err:
        view_update(basic, request)
    assert "cannot realise" in str(err.value)
    assert err.value.trace
    assert any("insert p" in line for line in err.value.trace)


def test_unrealizable_trace_names_goal_without_candidates():
    db = Database.parse("p :- a.\n:- a.\n")
    with pytest.raises(UnrealizableError) as err:
        view_update(db, UpdateRequest(inserts=(Atom("p"),)))
    assert err.value.trace == ("insert p: no candidate change",)
    assert not err.value.exhausted


def test_exhausted_search_is_reported_not_raised(budget_probe_text):
    db = Database.parse(budget_probe_text)
    with pytest.raises(UnrealizableError) as err:
        view_update(db, UpdateRequest(inserts=(Atom("v3", ("b", "a")),)))
    assert err.value.exhausted
    assert "insert v3(b,a): no candidate change, the search budget ran out" in err.value.trace


def test_exhausted_search_stays_within_one_state_budget(budget_probe_text, search_steps):
    db = Database.parse(budget_probe_text)
    with pytest.raises(UnrealizableError) as err:
        view_update(db, UpdateRequest(inserts=(Atom("v3", ("b", "a")),)))
    assert err.value.exhausted
    assert len(search_steps) > 1
    assert sum(search_steps) <= lang.MAX_STATES


# A random program (three constants, body-only variables, view cycles) on
# which inserting v3(b,a) once ran every search into the state budget,
# because each rerun minted a new witness constant.
CYCLIC_PROBE_TEXT = """\
v1 :- v1, e2(b,a).
v1 :- e2(Y1,a), e4(Y1,c).
v2(X1,b) :- e1(b), e3(c,X1).
v3(b,X2) :- e3(X2,Y1), v3(a,c), not v1.
v3(b,X2) :- e2(Y1,a), v3(b,Y1), e2(a,X2), not e3(b,X2).
v4 :- v1, not e4(b,a).
e2(a,b).
e2(a,c).
e2(c,a).
e2(c,b).
e2(c,c).
e3(a,a).
e3(b,a).
e4(a,b).
e4(b,a).
e4(b,b).
e4(c,a).
e4(c,b).
:- e2(b,b).
"""


def test_reruns_on_the_request_constants_end_unexhausted():
    db = Database.parse(CYCLIC_PROBE_TEXT)
    goal = Atom("v3", ("b", "a"))
    with pytest.raises(UnrealizableError) as err:
        view_update(db, UpdateRequest(inserts=(goal,)))
    assert not err.value.exhausted
    assert str(err.value).splitlines()[0] == "cannot realise +v3(b,a)"
    # no change of up to three base atoms over the constants and one fresh
    # one realises it either
    pool = base_atoms(db, db.universe() | {"new_1"})
    assert brute_transactions(db.idb, db.ic, db.edb, pool, inserts=[goal], max_change=3) == []


def test_state_budget_bounds_the_request_not_each_search(monkeypatch, search_steps):
    # the staff insertion runs several searches; a budget above the largest
    # of them but below their total must stop the request
    request = UpdateRequest(inserts=(Atom("staff_chair", ("aravindan", "gerhard")),))
    assert not view_update(Database.load("data/staff.dl"), request).exhausted
    largest, total = max(search_steps), sum(search_steps)
    assert largest + 1 < total
    search_steps.clear()
    monkeypatch.setattr(lang, "MAX_STATES", (largest + total) // 2)
    try:
        exhausted = view_update(Database.load("data/staff.dl"), request).exhausted
    except UnrealizableError as err:
        exhausted = err.exhausted
    assert exhausted
    assert sum(search_steps) <= lang.MAX_STATES


@pytest.mark.parametrize("text,request_", [
    (None, UpdateRequest(inserts=(Atom("staff_chair", ("aravindan", "gerhard")),))),
    # the negated literal sends every cut through the put-one-back test
    ("p :- a, not b.\np :- c, d.\nq :- c, not e.\na.\nc.\nd.\n:- q, f.\n",
     UpdateRequest(deletes=(Atom("p"),))),
])
def test_request_computes_each_model_once(staff, text, request_, model_computations):
    db = staff if text is None else Database.parse(text)
    least_model(db)
    model_computations.clear()
    result = view_update(db, request_)
    assert result.postulates and result.postulates[0].ok
    assert model_computations
    assert len(set(model_computations)) == len(model_computations)


def test_result_database_keeps_its_model(basic, staff, model_computations):
    requests = [
        (staff, UpdateRequest(inserts=(Atom("staff_chair", ("aravindan", "gerhard")),))),
        (basic, UpdateRequest(deletes=(Atom("p"),))),
        (basic, UpdateRequest(deletes=(Atom("p"), Atom("q")))),
        (basic, UpdateRequest(deletes=(Atom("e"),))),
    ]
    for db, request in requests:
        result = view_update(db, request)
        model_computations.clear()
        least_model(result.database)
        check_ic(result.database)
        assert model_computations == [], request


def test_empty_request_repairs_constraints():
    db = Database.parse("a.\nb.\n:- b.\n")
    result = view_update(db, UpdateRequest())
    assert result.chosen == Transaction(frozenset(), atoms("b"))
    assert not check_ic(result.database)


def test_empty_request_on_clean_database(basic):
    result = view_update(basic, UpdateRequest())
    assert result.chosen.is_empty
    assert result.database.edb == basic.edb


def test_rejects_bad_inputs(basic):
    with pytest.raises(ValueError):
        view_update(basic, UpdateRequest(deletes=(Atom("p"),)), variant="fast")
    with pytest.raises(ValueError):
        view_update(basic, UpdateRequest(inserts=(Atom("r", ("X",)),)))


def test_rejects_goals_that_would_invalidate_the_database(staff):
    # each would store a fact that validate rejects: eq-misuse, then
    # arity-mismatch (staff_group takes two arguments)
    for goal in (Atom("eq", ("a", "b")), Atom("staff_group", ("aravindan",))):
        for request in (UpdateRequest(inserts=(goal,)), UpdateRequest(deletes=(goal,))):
            with pytest.raises(ValueError, match=goal.pred):
                view_update(staff, request)
    # a predicate the database does not mention takes any arity
    result = view_update(staff, UpdateRequest(inserts=(Atom("visitor", ("x",)),)))
    assert validate(result.database) == ()


def test_postulates_reported_for_single_view_goal_only(basic, staff):
    joint = view_update(
        basic, UpdateRequest(deletes=(Atom("p"),), inserts=(Atom("z"),))
    )
    assert joint.postulates == ()
    base_only = view_update(basic, UpdateRequest(inserts=(Atom("z"),)))
    assert base_only.postulates == ()
    single = view_update(basic, UpdateRequest(deletes=(Atom("p"),)))
    assert [r.operation for r in single.postulates] == ["delete"]


def test_variants_agree_on_unambiguous_insert(staff):
    goal = Atom("staff_chair", ("aravindan", "gerhard"))
    minimal = view_update(staff, UpdateRequest(inserts=(goal,)))
    materialized = view_update(staff, UpdateRequest(inserts=(goal,)), variant="materialized")
    assert minimal.alternatives == materialized.alternatives


# --- properties --------------------------------------------------------------


@settings(max_examples=75, deadline=None)
@given(dbs_with_underivable_goal(negation=True, with_ic=True))
def test_insert_requests_verified(dbgoal):
    db, goal = dbgoal
    try:
        result = view_update(db, UpdateRequest(inserts=(goal,)))
    except UnrealizableError:
        return
    assert goal in least_model(result.database)
    assert not check_ic(result.database)


@settings(max_examples=75, deadline=None)
@given(dbs_with_derivable_goal(negation=True, with_ic=True))
def test_delete_requests_verified(dbgoal):
    db, goal = dbgoal
    try:
        result = view_update(db, UpdateRequest(deletes=(goal,)))
    except UnrealizableError:
        return
    assert goal not in least_model(result.database)
    assert not check_ic(result.database)


@settings(max_examples=75, deadline=None)
@given(dbs_with_derivable_goal(negation=True, with_ic=True))
def test_minimal_alternatives_form_antichain(dbgoal):
    db, goal = dbgoal
    try:
        result = view_update(db, UpdateRequest(deletes=(goal,)))
    except UnrealizableError:
        return
    txs = result.alternatives
    assert result.chosen.size == min(t.size for t in txs)
    for t in txs:
        for o in txs:
            assert t is o or not o <= t


@settings(max_examples=75, deadline=None)
@given(dbs_with_derivable_goal(with_ic=False))
def test_engine_delete_matches_deletion_route(dbgoal):
    db, goal = dbgoal
    result = view_update(db, UpdateRequest(deletes=(goal,)))
    assert {t.removals for t in result.alternatives} == set(deletion_candidates(db, goal))
