"""Belief change: kernels, repair, the change operations, postulates."""

import importlib.util
import time
from pathlib import Path

from hypothesis import assume, given, settings

from vud import lang, revision
from vud.deletion import deletion_candidates
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.explain import local_explanations
from vud.insertion import insertion_candidates
from vud.lang import Atom, Database, Transaction
from vud.randgen import chain_database
from vud.revision import (
    CONTRACTION_GUARANTEES,
    REVISION_GUARANTEES,
    contract,
    derivable_without_facts,
    kernel_change,
    rationality_report,
    repair_constraints,
    revise,
)
from vud.semantics import check_ic, least_model

import pytest

from oracles import EquivalenceVerdict, closed_under_rules, guarantee_failures, kb_equivalent, preservation
from strategies import dbs_with_derivable_goal, dbs_with_underivable_goal


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


@pytest.fixture(scope="module")
def basic() -> Database:
    return Database.load("data/basic.dl")


@pytest.fixture(scope="module")
def staff() -> Database:
    return Database.load("data/staff.dl")


# --- kernel changes ----------------------------------------------------------


def test_kernel_delete_basic(basic):
    assert kernel_change(basic, Atom("p"), "delete") == (
        Transaction(frozenset(), atoms("a")),
    )


def test_kernel_insert_ignores_constraints(basic):
    # the kernel level offers +b even though a denial forbids b
    db = basic.with_edb(atoms("e", "f"))
    assert kernel_change(db, Atom("p"), "insert") == (
        Transaction(atoms("a"), frozenset()),
        Transaction(atoms("b"), frozenset()),
    )


def test_kernel_insert_is_raw_and_revise_checks_the_goal():
    # storing a makes q true, so the kernel candidate +a misses p
    db = Database.parse("p :- a, not q.\nq :- a, b.\nb.\n")
    assert kernel_change(db, Atom("p"), "insert") == (Transaction(atoms("a"), frozenset()),)
    assert revise(db, Atom("p")) == ()


def test_kernel_delete_cuts_every_link_of_a_long_chain():
    # 1024 kernels over a union of 20 facts: a sweep over the 2^20 subsets
    # takes about 10 s; the cuts come from the complement-split tableau
    t0 = time.perf_counter()
    cuts = kernel_change(chain_database(10), Atom("p1"), "delete")
    assert time.perf_counter() - t0 < 2.0
    expected = [Transaction(frozenset(), atoms("a%d" % i, "b%d" % i)) for i in range(1, 11)]
    assert cuts == tuple(sorted(expected, key=Transaction.rank_key))
    assert [str(min(t.removals)) for t in cuts][:3] == ["a1", "a10", "a2"]


def _forbidden(*args, **kwargs):
    raise AssertionError("the slow path ran")


def test_monotone_contract_takes_the_tableau_cuts(monkeypatch):
    # 2^40 kernels: no proof tree or transversal family of them finishes
    monkeypatch.setattr(revision, "local_explanations", _forbidden)
    monkeypatch.setattr(revision, "minimal_hitting_sets", _forbidden)
    cuts = contract(chain_database(40), Atom("p1"))
    expected = [Transaction(frozenset(), atoms("a%d" % i, "b%d" % i)) for i in range(1, 41)]
    assert cuts == tuple(sorted(expected, key=Transaction.rank_key))


def test_contract_has_no_cut_for_an_atom_the_rules_derive_alone():
    # p needs no stored fact, so no removal deletes it, though the
    # hitting sets of its kernels {} and {e} are {e}
    db = Database.parse("p :- eq(a,a).\np :- e.\ne.\n")
    assert derivable_without_facts(db, Atom("p"))
    assert kernel_change(db, Atom("p"), "delete") == ()
    assert contract(db, Atom("p")) == ()


def test_non_monotone_kernel_has_no_cut_for_an_atom_the_rules_derive_alone():
    # the negated subgoal sends the delete past the tableau to the hitting
    # sets of the kernels {} and {e}, whose cut -e leaves p derivable
    db = Database.parse("p :- eq(a,a).\np :- e, not f.\ne.\n")
    assert not db.monotone
    assert local_explanations(db, Atom("p")) == (frozenset(), atoms("e"))
    assert kernel_change(db, Atom("p"), "delete") == ()
    assert contract(db, Atom("p")) == ()
    with pytest.raises(UnrealizableError):
        view_update(db, UpdateRequest(deletes=(Atom("p"),)))


def test_kernel_vacuity(basic):
    assert kernel_change(basic, Atom("b"), "delete") == (Transaction(),)
    assert kernel_change(basic, Atom("p"), "insert") == (Transaction(),)


def test_kernel_rejects_unknown_operation(basic):
    with pytest.raises(ValueError):
        kernel_change(basic, Atom("p"), "merge")


# --- constraint repair -------------------------------------------------------


def test_repair_removes_flagged_fact():
    db = Database.parse("a.\nb.\n:- b.\n")
    outcome = repair_constraints(db)
    assert outcome.transactions == (Transaction(frozenset(), atoms("b")),)
    assert not outcome.exhausted


def test_repair_offers_both_routes():
    db = Database.parse(":- a, not b.\na.\n")
    outcome = repair_constraints(db)
    assert outcome.transactions == (
        Transaction(frozenset(), atoms("a")),
        Transaction(atoms("b"), frozenset()),
    )


def test_repair_unfolds_view_atoms():
    db = Database.parse("p :- a.\na.\n:- p.\n")
    outcome = repair_constraints(db)
    assert outcome.transactions == (Transaction(frozenset(), atoms("a")),)


def test_repair_inserts_through_views():
    db = Database.parse("p :- b.\n:- a, not p.\na.\n")
    outcome = repair_constraints(db)
    assert outcome.transactions == (
        Transaction(frozenset(), atoms("a")),
        Transaction(atoms("b"), frozenset()),
    )


def test_repair_respects_protection():
    db = Database.parse("b.\n:- b.\n")
    outcome = repair_constraints(db, protect_present=atoms("b"))
    assert outcome.transactions == ()
    assert not outcome.exhausted


def test_repair_reports_exhaustion():
    # each of the fifteen denials is disarmed by removing a_i or b_i, so the
    # repairs are 2^15 and their search passes the state budget
    text = "".join("a%d.\nb%d.\n:- a%d, b%d.\n" % (i, i, i, i) for i in range(1, 16))
    outcome = repair_constraints(Database.parse(text))
    assert outcome.transactions == ()
    assert outcome.exhausted


def test_revision_and_its_repairs_share_one_state_budget(monkeypatch, search_steps):
    # storing a and b arms both denials, which a repair search disarms
    db = Database.parse("p :- a, b. :- a, c. :- b, d. c. d.")
    assert revise(db, Atom("p")) == (Transaction(atoms("a", "b"), atoms("c", "d")),)
    largest, total = max(search_steps), sum(search_steps)
    assert largest + 1 < total
    search_steps.clear()
    monkeypatch.setattr(lang, "MAX_STATES", (largest + total) // 2)
    revise(db, Atom("p"))
    assert sum(search_steps) <= lang.MAX_STATES


def test_repair_on_clean_database(basic):
    outcome = repair_constraints(basic)
    assert outcome.transactions == (Transaction(),)


# --- contract and revise -----------------------------------------------------


def test_contract_basic(basic):
    assert contract(basic, Atom("p")) == (Transaction(frozenset(), atoms("a")),)


def test_contract_staff(staff):
    goal = Atom("staff_chair", ("aravindan", "matthias"))
    assert contract(staff, goal) == (
        Transaction(frozenset(), frozenset({Atom("group_chair", ("infor1", "matthias"))})),
        Transaction(frozenset(), frozenset({Atom("staff_group", ("aravindan", "infor1"))})),
    )


def test_contract_repairs_range_over_the_starting_constants():
    # the cut -e(z) is repaired first (+r); the repair of the cut -g still
    # stores k(z), although that database no longer holds z
    db = Database.parse(
        "p :- e(X), g.\nu :- e(X).\nu :- r.\nw :- g.\nw :- k(Y), e(Y).\n"
        ":- not u.\n:- not w.\ne(z).\ng.\n"
    )
    assert contract(db, Atom("p")) == (
        Transaction(frozenset({Atom("k", ("z",))}), atoms("g")),
        Transaction(atoms("r"), frozenset({Atom("e", ("z",))})),
    )


def test_contract_vacuous(basic):
    assert contract(basic, Atom("b")) == (Transaction(),)


def test_revise_filters_inconsistent_kernels(basic):
    # +b would also restore p, but only +a survives the denial on b
    db = basic.with_edb(atoms("e", "f"))
    assert revise(db, Atom("p")) == (Transaction(atoms("a"), frozenset()),)


def test_revise_vacuous(basic):
    assert revise(basic, Atom("p")) == (Transaction(),)


def test_revise_unrealizable():
    db = Database.parse("p :- b.\n:- b.\n")
    assert revise(db, Atom("p")) == ()


def test_revise_rejects_goals_that_would_invalidate_the_database(basic):
    for goal in (Atom("eq", ("a", "b")), Atom("p", ("a",)), Atom("q", ("X",))):
        with pytest.raises(ValueError):
            revise(basic, goal)


def test_contract_rejects_goals_that_would_invalidate_the_database(staff):
    # without the check these read as underivable and come back unchanged
    for goal in (Atom("staff_chair", ("X", "gerhard")), Atom("staff_chair", ("a",)), Atom("eq", ("a", "a"))):
        for change in (contract, revise):
            with pytest.raises(ValueError):
                change(staff, goal)


def test_revise_repairs_existing_violation():
    # the atom is already derivable but the database breaks a constraint,
    # so revision hands back the repair
    db = Database.parse("p :- a.\na.\nb.\n:- b.\n")
    assert revise(db, Atom("p")) == (Transaction(frozenset(), atoms("b")),)


# --- equivalence -------------------------------------------------------------


def test_kb_equivalent_modulo_rule_order(basic):
    shuffled = Database(tuple(reversed(basic.rules)))
    verdict = kb_equivalent(basic, shuffled)
    assert verdict.equivalent and bool(verdict)


def test_kb_equivalent_spots_model_difference(basic):
    verdict = kb_equivalent(basic, basic.with_edb(atoms("e", "f")))
    assert not verdict.equivalent
    assert "differ" in verdict.reason


def test_kb_equivalent_spots_constraint_difference():
    clean = Database.parse("a.\n")
    broken = Database.parse("a.\n:- a.\n")
    verdict = kb_equivalent(clean, broken)
    assert verdict == EquivalenceVerdict(False, "constraint status differs")


def test_equivalence_oracle_loads_by_path_outside_sys_modules():
    # bench/checks.py imports oracles.py by path under a name sys.modules
    # does not hold, where a dataclass with postponed annotations fails
    spec = importlib.util.spec_from_file_location("oracles_by_path", Path(__file__).with_name("oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    verdict = module.kb_equivalent(Database.parse("a.\n"), Database.parse("a.\n:- a.\n"))
    assert verdict == module.EquivalenceVerdict(False, "constraint status differs")


def test_bench_loads_the_oracles_it_reads():
    # bench/checks.load_oracles imports oracles.py by path and reads these
    # three, two of them private, so a rename here would break the bench
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_checks", root / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    module = checks.load_oracles(root)
    for name in ("naive_model", "_body_holds", "_ground_ics"):
        assert callable(getattr(module, name, None)), name
    db = Database.parse("p :- a.\n:- p, b.\na.\nb.\n")
    model = module.naive_model(db.idb, db.edb)
    assert model == atoms("a", "b", "p")
    assert [module._body_holds(r.body, set(model)) for r in module._ground_ics(db.ic, model, db.edb)] == [True]


# --- postulates --------------------------------------------------------------


def test_report_contract_golden(basic):
    tx = contract(basic, Atom("p"))[0]
    report = rationality_report(basic, Atom("p"), tx, "delete")
    assert all(report.values())
    assert set(report) == set(CONTRACTION_GUARANTEES)


def test_report_flags_useless_removal(basic):
    # removing e leaves p derivable through q, so the removal is neither
    # successful nor pivotal
    tx = Transaction(frozenset(), atoms("e"))
    report = rationality_report(basic, Atom("p"), tx, "delete")
    assert report == {
        "closure": True,
        "weak-success": False,
        "inclusion": True,
        "immutable-inclusion": True,
        "vacuity": True,
        "consistency": True,
        "weak-relevance": True,
        "strong-relevance": False,
    }


def test_report_revise_golden(basic):
    db = basic.with_edb(atoms("e", "f"))
    tx = revise(db, Atom("p"))[0]
    report = rationality_report(db, Atom("p"), tx, "insert")
    assert all(report.values())


def test_guarantee_failures_empty_on_results(basic, staff):
    for tx in contract(basic, Atom("p")):
        assert guarantee_failures(basic, Atom("p"), tx, "delete") == ()
    goal = Atom("staff_chair", ("aravindan", "matthias"))
    for tx in contract(staff, goal):
        assert guarantee_failures(staff, goal, tx, "delete") == ()
    db = basic.with_edb(atoms("e", "f"))
    for tx in revise(db, Atom("p")):
        assert guarantee_failures(db, Atom("p"), tx, "insert") == ()


def test_derivable_without_facts():
    assert derivable_without_facts(Database.parse("p :- not b.\n"), Atom("p"))
    assert not derivable_without_facts(Database.load("data/basic.dl"), Atom("p"))


def test_closed_under_rules(basic):
    model = least_model(basic)
    assert closed_under_rules(basic, model)
    assert not closed_under_rules(basic, model - {Atom("p")})


def test_preservation_golden(basic):
    shuffled = Database(tuple(reversed(basic.rules)))
    assert preservation(basic, shuffled, Atom("p"), "delete")
    assert preservation(basic, shuffled, Atom("p"), "insert")


# --- properties --------------------------------------------------------------


@settings(max_examples=75, deadline=None)
@given(dbs_with_derivable_goal(with_ic=True))
def test_contract_fully_rational_without_negation(dbgoal):
    db, goal = dbgoal
    for tx in contract(db, goal):
        assert guarantee_failures(db, goal, tx, "delete") == ()


@settings(max_examples=75, deadline=None)
@given(dbs_with_derivable_goal(negation=True, with_ic=True))
def test_contract_core_guarantees_with_negation(dbgoal):
    db, goal = dbgoal
    for tx in contract(db, goal):
        report = rationality_report(db, goal, tx, "delete")
        for key in ("weak-success", "immutable-inclusion", "consistency", "closure"):
            assert report[key], key


@settings(max_examples=75, deadline=None)
@given(dbs_with_underivable_goal(negation=True, with_ic=True))
def test_revise_guaranteed_postulates(dbgoal):
    db, goal = dbgoal
    for tx in revise(db, goal):
        report = rationality_report(db, goal, tx, "insert")
        for key in REVISION_GUARANTEES:
            assert report[key], key


@settings(max_examples=75, deadline=None)
@given(dbs_with_derivable_goal(with_ic=False))
def test_contract_agrees_with_deletion_route(dbgoal):
    db, goal = dbgoal
    assert {t.removals for t in contract(db, goal)} == set(deletion_candidates(db, goal))


@settings(max_examples=75, deadline=None)
@given(dbs_with_underivable_goal(with_ic=False))
def test_revise_agrees_with_insertion_route(dbgoal):
    db, goal = dbgoal
    assert set(revise(db, goal)) == set(insertion_candidates(db, goal))


@settings(max_examples=50, deadline=None)
@given(dbs_with_derivable_goal(negation=True, with_ic=True))
def test_preservation_under_rule_reordering(dbgoal):
    db, goal = dbgoal
    shuffled = Database(tuple(reversed(db.rules)))
    assume(kb_equivalent(db, shuffled).equivalent)
    assert preservation(db, shuffled, goal, "delete")
    assert preservation(db, shuffled, goal, "insert")
