"""Transformations, tableau construction, deletion candidates."""

import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from vud.lang import EQ, Atom, Database, Literal, Rule, Transaction, antichain, unique
from vud.deletion import (
    Branch,
    Clause,
    Tableau,
    branch_deletions,
    build_tableau,
    delete_request,
    deletion_candidates,
    deletion_program,
    materialized_program,
    strongly_minimal,
    transform_rules,
)
from vud import semantics
from vud.engine import UpdateRequest, view_update
from vud.explain import local_explanations
from vud.hitting import minimal_hitting_sets
from vud.randgen import GeneratorConfig, chain_database, random_database, random_ground_atom
from vud.revision import kernel_change
from vud.semantics import check_ic, least_model

from oracles import (
    clause_models,
    edb_cuts,
    literal_deletions,
    minimal_sets,
    naive_model,
    pivoted_program,
    saturated_sets,
    scanning_tableau,
    strongly_minimal_loop,
)
from strategies import dbs_with_derivable_goal, long_chain_text

DATA = Path(__file__).resolve().parents[1] / "data"


def A(name: str, *args: str) -> Atom:
    return Atom(name, args)


def L(name: str, neg: bool = False) -> Literal:
    return Literal(Atom(name), neg)


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


def basic() -> Database:
    return Database.load(str(DATA / "basic.dl"))


def test_deletion_program_golden():
    # only the four firing rules survive; the two b-rules contribute nothing
    prog = deletion_program(basic())
    assert prog == (
        Clause((L("a", True), L("e", True)), (L("p", True),)),
        Clause((L("a", True), L("f", True)), (L("q", True),)),
        Clause((L("q", True),), (L("p", True),)),
        Clause((L("a", True),), (L("q", True),)),
    )


def test_tableau_golden_branches():
    db = basic()
    tab = build_tableau(deletion_program(db), delete_request(Atom("p")))
    assert all(not b.closed for b in tab.branches)
    # hand-checked: three saturated branches, in this construction order
    assert [b.order for b in tab.branches] == [
        (L("p", True), L("a", True), L("q", True)),
        (L("p", True), L("e", True), L("q", True), L("a", True)),
        (L("p", True), L("e", True), L("q", True), L("f", True), L("a", True)),
    ]
    assert tab.peak_live == 2
    assert tab.expansions == 6


def test_complement_split_tableau_golden():
    db = basic()
    tab = build_tableau(deletion_program(db), delete_request(Atom("p")), db.edb)
    # the child that deletes e also holds a, so both branches below it
    # close when a clause wants a deleted
    assert [(b.order, b.closed) for b in tab.branches] == [
        ((L("p", True), L("a", True), L("q", True)), False),
        ((L("p", True), L("e", True), L("q", True), L("a", True)), True),
        ((L("p", True), L("e", True), L("q", True), L("f", True), L("a", True)), True),
    ]
    assert Literal(Atom("a")) not in tab.branches[1].literals  # complements are not listed
    assert (tab.peak_live, tab.expansions) == (2, 6)
    assert branch_deletions(tab, db.edb) == (atoms("a"),)


def raw_cuts(db: Database, goal: Atom) -> tuple[frozenset[Atom], ...]:
    """The stored-fact deletions of the open branches, before the
    put-one-back filter."""
    tableau = build_tableau(deletion_program(db), delete_request(goal))
    return unique(branch_deletions(tableau, db.edb))


def test_raw_candidates_golden():
    db = basic()
    assert raw_cuts(db, Atom("p")) == (
        atoms("a"),
        atoms("a", "e"),
        atoms("a", "e", "f"),
    )


def test_minimal_candidates_golden():
    db = basic()
    assert deletion_candidates(db, Atom("p")) == (atoms("a"),)
    assert deletion_candidates(db, Atom("q")) == (atoms("a"),)


def test_strongly_minimal():
    db = basic()
    assert strongly_minimal(db, Atom("p"), atoms("a"))
    # e does not individually matter once a is gone
    assert not strongly_minimal(db, Atom("p"), atoms("a", "e"))
    # removing only e does not even delete p
    assert not strongly_minimal(db, Atom("p"), atoms("e"))


def test_staff_deletion_candidates():
    db = Database.load(str(DATA / "staff.dl"))
    goal = A("staff_chair", "delhibabu", "matthias")
    assert deletion_candidates(db, goal) == (
        frozenset({A("staff_group", "delhibabu", "infor1")}),
        frozenset({A("group_chair", "infor1", "matthias")}),
    )


def test_underivable_atom_needs_no_deletion():
    db = basic().with_edb(atoms("e", "f"))
    assert deletion_candidates(db, Atom("p")) == (frozenset(),)


def test_edb_cuts_agree_with_tableau():
    db = basic()
    assert edb_cuts(db, Atom("p")) == (atoms("a"),)
    assert edb_cuts(db, Atom("q")) == (atoms("a"),)
    assert edb_cuts(db.with_edb(atoms("e", "f")), Atom("p")) == ()


def test_materialized_program_asymmetry():
    # with only e and f stored, nothing fires and no denial is violated, so
    # both programs are empty while the model-pivoted clauses still
    # describe every rule
    db = basic().with_edb(atoms("e", "f"))
    assert deletion_program(db) == ()
    assert materialized_program(db) == ()
    prog = pivoted_program(db)
    assert len(prog) == 7
    assert prog[0] == Clause((L("p"), L("e", True)), (L("a"),))
    assert prog[-1] == Clause((), (L("b"),))


def test_materialized_branches_match_deletion_here():
    # on the unabridged database the b-rules never trigger, so both clause
    # sets saturate to the same three branches
    db = basic()
    tab = build_tableau(materialized_program(db), delete_request(Atom("p")))
    sets = {b.literals for b in tab.open()}
    assert sets == {
        frozenset({L("p", True), L("q", True), L("a", True)}),
        frozenset({L("p", True), L("e", True), L("q", True), L("a", True)}),
        frozenset({L("p", True), L("e", True), L("q", True), L("f", True), L("a", True)}),
    }


def test_materialized_delete_grounds_no_rule_with_variables(monkeypatch):
    # transitive closure over a path of 40 edges: the materialized program
    # is the 820 firing instances, joined, and every cut is one edge
    text = "tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n" + "".join(
        "e(v%d,v%d).\n" % (i, i + 1) for i in range(40))
    db = Database.parse(text)
    grounded: list[Rule] = []
    real = semantics.ground_program

    def recorded(rules, universe):
        rules = tuple(rules)
        grounded.extend(rules)
        return real(rules, universe)

    monkeypatch.setattr(semantics, "ground_program", recorded)
    request = UpdateRequest(deletes=(A("tc", "v0", "v40"),))
    materialized = view_update(db, request, variant="materialized").alternatives
    assert all(not r.variables() for r in grounded)
    minimal = view_update(db, request).alternatives
    assert len(materialized) == 40
    assert set(materialized) == set(minimal)
    assert {tx.removals for tx in minimal} == {frozenset({A("e", "v%d" % i, "v%d" % (i + 1))}) for i in range(40)}


def test_branch_sets_sandwiched_between_minimal_and_all_models():
    db = basic()
    program = [delete_request(Atom("p"))] + list(deletion_program(db))
    pairs = [(c.head, c.body) for c in program]
    models = set(clause_models(pairs))
    branch_sets = {b.literals for b in build_tableau(program[1:], program[0]).open()}
    assert set(minimal_sets(models)) <= branch_sets <= models
    # and the containment is strict: one supported set is never constructed
    assert branch_sets != models
    assert models - branch_sets == {
        frozenset({L("p", True), L("q", True), L("a", True), L("f", True)})
    }


def test_tableau_agrees_with_saturation_oracle():
    db = basic()
    program = [delete_request(Atom("p"))] + list(deletion_program(db))
    pairs = [(c.head, c.body) for c in program]
    tab = build_tableau(program[1:], program[0])
    assert {b.literals for b in tab.open()} == set(saturated_sets(pairs))


def test_transform_rules_rejects_negation():
    db = Database.parse("p :- a, not b.\na.\n")
    try:
        transform_rules(db.idb)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_branch_extraction_helpers():
    # atom k owns bits 2k (positive) and 2k+1 (negated): not p, not a, c
    branch = Branch((L("p", True), L("a", True), L("c")), closed=False, held=0b10 | 0b1000 | 0b10000)
    tableau = Tableau((branch,), 1, 1, (Atom("p"), Atom("a"), Atom("c"), Atom("e")))
    assert branch_deletions(tableau, atoms("a", "c", "e")) == (atoms("a"),)
    assert literal_deletions(branch, atoms("a", "c", "e")) == atoms("a")


def test_clause_str():
    assert str(Clause((L("a", True), L("e", True)), (L("p", True),))) == "not a ; not e :- not p"
    assert str(Clause((), (L("b"),))) == ":- b"
    assert str(Clause((L("p"),))) == "p"


@settings(max_examples=100, deadline=None)
@given(dbs_with_derivable_goal())
def test_minimal_candidates_are_hitting_sets_of_proofs(case):
    db, goal = case
    minimal = set(deletion_candidates(db, goal))
    proofs = local_explanations(db, goal)
    assert minimal == set(minimal_hitting_sets(proofs))
    assert minimal == set(edb_cuts(db, goal))


@settings(max_examples=100, deadline=None)
@given(dbs_with_derivable_goal())
def test_raw_candidates_all_delete(case):
    db, goal = case
    raw = raw_cuts(db, goal)
    assert raw
    for cand in raw:
        assert cand <= db.edb
        assert goal not in naive_model(db.idb, db.edb - cand)


@settings(max_examples=100, deadline=None)
@given(dbs_with_derivable_goal())
def test_tableau_matches_oracle_on_random_programs(case):
    db, goal = case
    program = deletion_program(db)
    request = delete_request(goal)
    tab = build_tableau(program, request)
    pairs = [(request.head, request.body)] + [(c.head, c.body) for c in program]
    assert {b.literals for b in tab.open()} == set(saturated_sets(pairs))


# --- the bitmask tableau and the monotone route, against the slow paths ---

CORPORA = {
    "plain": GeneratorConfig(acyclic=True),
    "negation+denials": GeneratorConfig(negation=True, constraints=True),
    "cyclic": GeneratorConfig(),
}


def _goals(db: Database, seed: int) -> list[Atom]:
    """A few derivable view atoms and one random view atom, derivable or not."""
    derived = sorted(a for a in least_model(db) if a.pred in db.view_predicates)
    return derived[:4] + [random_ground_atom(db, seed)]


def _corpus_cases(cfg: GeneratorConfig, seeds: range):
    for seed in seeds:
        db = random_database(seed, cfg)
        for goal in _goals(db, seed):
            yield db, goal


def _data_cases():
    for name in ("basic.dl", "staff.dl"):
        db = Database.load(str(DATA / name))
        for goal in sorted(a for a in least_model(db) if a.pred in db.view_predicates):
            yield db, goal


def _assert_same_tableau(db: Database, goal: Atom) -> None:
    for program in (deletion_program(db), materialized_program(db)):
        # every field: each branch's order (so its literals) and closed flag, the
        # branch order, peak_live and expansions
        want = scanning_tableau(program, delete_request(goal))
        got = build_tableau(program, delete_request(goal))
        assert got == want, (db.rules, goal)
        # the masks hold the literals the orders list
        cuts = tuple(literal_deletions(b, db.edb) for b in want.open())
        assert branch_deletions(got, db.edb) == cuts, (db.rules, goal)


def test_tableau_matches_scanning_oracle_on_chains_and_data():
    for n in range(1, 9):
        _assert_same_tableau(chain_database(n), Atom("p1"))
    for db, goal in _data_cases():
        _assert_same_tableau(db, goal)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_tableau_matches_scanning_oracle_on_corpora(name):
    for db, goal in _corpus_cases(CORPORA[name], range(40)):
        _assert_same_tableau(db, goal)


def test_tableau_matches_scanning_oracle_on_signed_programs():
    # both signs of an atom in play, so children close on a complement as
    # well as on an empty head, which delete requests never produce
    rng = random.Random(7)
    closers = 0
    for _ in range(300):
        pool = [Literal(Atom("s%d" % i), sign) for i in range(rng.randint(2, 6)) for sign in (False, True)]
        request = Clause(tuple(rng.sample(pool, rng.randint(1, 2))))
        clauses = [
            Clause(tuple(rng.sample(pool, rng.randint(0, 3))), tuple(rng.sample(pool, rng.randint(0, 2))))
            for _ in range(rng.randint(1, 8))
        ]
        got = build_tableau(clauses, request)
        assert got == scanning_tableau(clauses, request), (clauses, request)
        closers += sum(b.closed and b.order[-1].complement() in b.literals for b in got.branches)
    assert closers


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_materialized_tableau_applies_only_fired_rules_and_violated_denials(name):
    # every other pivoted clause has a positive body literal, and no clause
    # puts one on a branch seeded with a delete request, so the materialized
    # program keeps only the applicable clauses and builds the same tableau
    violating = 0
    for seed in range(300):
        db = random_database(seed, CORPORA[name])
        denials = [
            Rule(None, tuple(l for l in r.body if not l.negated and l.atom.pred != EQ))
            for r in check_ic(db)
        ]
        materialized = materialized_program(db)
        assert materialized == deletion_program(db) + transform_rules(denials), db.rules
        pivoted = pivoted_program(db)
        for goal in sorted(a for a in least_model(db) if a.pred in db.view_predicates):
            got = build_tableau(materialized, delete_request(goal))
            assert got == build_tableau(pivoted, delete_request(goal)), (db.rules, goal)
            assert all(l.negated for b in got.branches for l in b.literals), (db.rules, goal)
            violating += bool(denials)
    assert violating if name == "negation+denials" else not violating


def _put_back_filtered(db: Database, goal: Atom) -> tuple[frozenset[Atom], ...]:
    """The raw branch cuts, filtered by the put-one-back loop."""
    if goal not in least_model(db):
        return (frozenset(),)
    return tuple(c for c in raw_cuts(db, goal) if strongly_minimal_loop(db, goal, c))


def test_deletion_candidates_match_put_back_filter_on_chains():
    for n in range(1, 11):
        db = chain_database(n)
        assert deletion_candidates(db, Atom("p1")) == _put_back_filtered(db, Atom("p1")), n


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_deletion_candidates_match_put_back_filter_on_corpora(name):
    negated = 0
    for db, goal in _corpus_cases(CORPORA[name], range(60)):
        assert deletion_candidates(db, goal) == _put_back_filtered(db, goal), (db.rules, goal)
        negated += any(l.negated for r in db.idb for l in r.body)
    assert negated if name == "negation+denials" else not negated


def test_negation_keeps_the_put_back_test():
    # The only branch cut is {e1(a,a)}, and no other cut is a subset of it,
    # so a subset filter would offer it.  But removing e1(a,a) loses v1(a),
    # which makes `not v1(a)` true and proves v3(b) through the second rule.
    db = Database.parse(
        "v1(a) :- e1(Y1,Y2), e1(a,Y1).\n"
        "v2(b) :- e2.\n"
        "v3(b) :- v1(Y2), not v2(Y2).\n"
        "v3(b) :- e2, not v1(a).\n"
        "e1(a,a). e1(b,a). e2.\n"
    )
    goal = A("v3", "b")
    assert raw_cuts(db, goal) == (frozenset({A("e1", "a", "a")}),)
    assert deletion_candidates(db, goal) == ()


def test_chain_deletion_cuts_every_link_quickly():
    # the raw tableau would have 2^40 open branches with 40 minimal cuts
    # among them; complement splitting leaves 40
    t0 = time.perf_counter()
    cuts = deletion_candidates(chain_database(40), Atom("p1"))
    assert time.perf_counter() - t0 < 2.0
    assert cuts == tuple(atoms("a%d" % i, "b%d" % i) for i in range(1, 41))


# --- complement splitting on monotone databases, against the raw tableau ---

MONOTONE = {
    "plain": GeneratorConfig(acyclic=True),
    "cyclic": GeneratorConfig(),
    "denials": GeneratorConfig(constraints=True),
    "flat": GeneratorConfig(extra_body_vars=0),
    "dense": GeneratorConfig(view_count=4, base_count=2, max_arity=1, fact_density=0.8),
}


def _derived_views(db: Database) -> list[Atom]:
    return sorted(a for a in least_model(db) if a.pred in db.view_predicates)


def _assert_same_cuts(db: Database, goal: Atom) -> None:
    """The complement-split cuts are the raw tableau's subset-minimal
    branch cuts, as sets, and contraction's raw candidates are the minimal
    hitting sets of the kernels, in their order."""
    assert db.monotone
    got = deletion_candidates(db, goal)
    raw = scanning_tableau(deletion_program(db), delete_request(goal))
    want = antichain(unique(literal_deletions(b, db.edb) for b in raw.open()))
    assert len(set(got)) == len(got) and set(got) == set(want), (db.rules, goal)
    kernels = minimal_hitting_sets(local_explanations(db, goal))
    assert kernel_change(db, goal, "delete") == tuple(Transaction(frozenset(), k) for k in kernels), (db.rules, goal)


@pytest.mark.parametrize("name", sorted(MONOTONE))
def test_complement_split_cuts_match_the_raw_tableau_on_corpora(name):
    requests = 0
    for seed in range(600):
        db = random_database(seed, MONOTONE[name])
        for goal in _derived_views(db):
            _assert_same_cuts(db, goal)
            requests += 1
    assert requests > 500


def test_complement_split_cuts_match_the_raw_tableau_on_chains_and_data():
    dbs = [chain_database(n) for n in range(1, 12)]
    dbs += [Database.parse(long_chain_text(n)) for n in range(1, 31)]
    data = [Database.load(str(p)) for p in sorted(DATA.glob("*.dl"))]
    dbs += [db for db in data if db.monotone]
    assert len(dbs) > 41
    for db in dbs:
        for goal in _derived_views(db):
            _assert_same_cuts(db, goal)
    _assert_same_cuts(Database.parse(long_chain_text(200)), Atom("p0"))


def test_complement_split_branches_cover_every_model_of_signed_programs():
    # a model fixes the sign of every atom; each one agrees with every
    # literal of some open branch, the complements it holds included
    rng = random.Random(11)
    pruned = 0
    for _ in range(300):
        names = [Atom("s%d" % i) for i in range(rng.randint(2, 6))]
        pool = [Literal(a, sign) for a in names for sign in (False, True)]
        request = Clause(tuple(rng.sample(pool, rng.randint(1, 2))))
        clauses = [
            Clause(tuple(rng.sample(pool, rng.randint(0, 3))), tuple(rng.sample(pool, rng.randint(0, 2))))
            for _ in range(rng.randint(1, 8))
        ]
        stored = frozenset(a for a in names if rng.random() < 0.5)
        split = build_tableau(clauses, request, stored)
        held = [
            {Literal(split.atoms[k >> 1], bool(k & 1)) for k in range(2 * len(split.atoms)) if b.held >> k & 1}
            for b in split.open()
        ]
        for signs in itertools.product((False, True), repeat=len(names)):
            model = {Literal(a, sign) for a, sign in zip(names, signs)}
            if all(not set(c.body) <= model or set(c.head) & model for c in [request] + clauses):
                assert any(h <= model for h in held), (clauses, request, stored, model)
        pruned += len(split.open()) < len(build_tableau(clauses, request).open())
    assert pruned


def test_complement_split_chain_tableau_stays_linear():
    # the raw tableau has 2^n open branches; one split per link keeps
    # the derived atom, so only the other one can delete a stored fact
    for n in range(1, 41):
        db = chain_database(n)
        tableau = build_tableau(deletion_program(db), delete_request(Atom("p1")), db.edb)
        assert len(tableau.open()) <= 2 * n + 1, n
        assert tableau.expansions <= 2 * n + 1, n


def test_long_chain_deletion_reads_cuts_off_the_masks():
    # 1601 open branches of up to 1601 literals: the cuts are read off the
    # branch masks, with one stored-fact lookup per atom
    db = Database.parse(long_chain_text(1600))
    t0 = time.perf_counter()
    cuts = deletion_candidates(db, Atom("p0"))
    assert time.perf_counter() - t0 < 1.0
    assert cuts == tuple(atoms("a%d" % i) for i in range(1601))
