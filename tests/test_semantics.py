"""Model computation and proof trees, pinned against the slow oracles."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vud import semantics
from vud.deletion import deletion_candidates
from vud.lang import Atom, Database, Literal, NotStratifiableError, Rule, Transaction, fact, parse_program
from vud.randgen import GeneratorConfig, chain_database, random_database
from vud.semantics import (
    build_proof_tree,
    check_ic,
    fixpoint_model,
    least_model,
    literal_holds,
    reduct,
    render_proof_tree,
)

from oracles import naive_model, stable_models

DATA = Path(__file__).resolve().parents[1] / "data"


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


def test_basic_model_golden():
    db = Database.load(str(DATA / "basic.dl"))
    model = least_model(db)
    # hand-checked: a,e,f stored; p by the first rule, q by the last
    assert model == atoms("a", "e", "f", "p", "q")
    assert model == naive_model(db.idb, db.edb)


def test_staff_model_golden():
    db = Database.load(str(DATA / "staff.dl"))
    model = least_model(db)
    derived = model - db.edb
    assert derived == {
        Atom("staff_chair", ("delhibabu", "matthias")),
        Atom("staff_chair", ("aravindan", "matthias")),
    }
    assert model == naive_model(db.idb, db.edb)


def test_transitive_closure():
    db = Database.parse(
        "edge(a,b). edge(b,c). edge(c,d).\n"
        "path(X,Y) :- edge(X,Y).\n"
        "path(X,Z) :- edge(X,Y), path(Y,Z).\n"
    )
    model = least_model(db)
    paths = {a for a in model if a.pred == "path"}
    assert len(paths) == 6
    assert Atom("path", ("a", "d")) in paths
    assert model == naive_model(db.idb, db.edb)


def test_stratified_negation():
    db = Database.parse("p :- a, not q.\nq :- b.\na.\n")
    assert least_model(db) == atoms("a", "p")
    withb = db.with_edb([Atom("a"), Atom("b")])
    assert least_model(withb) == atoms("a", "b", "q")
    # the unique stable model agrees
    assert stable_models(list(db.idb), db.edb) == [atoms("a", "p")]
    assert stable_models(list(withb.idb), withb.edb) == [atoms("a", "b", "q")]


def test_eq_literals_in_bodies():
    db = Database.parse("p(X,Y) :- r(X), r(Y), not eq(X,Y).\nr(a). r(b).\n")
    model = least_model(db)
    assert Atom("p", ("a", "b")) in model
    assert Atom("p", ("b", "a")) in model
    assert Atom("p", ("a", "a")) not in model
    assert model == naive_model(db.idb, db.edb)


def test_fixpoint_model_with_explicit_universe():
    rules = parse_program("p(X) :- q(X).")
    model = fixpoint_model(rules, [Atom("q", ("a",))], universe={"a", "b"})
    assert model == {Atom("q", ("a",)), Atom("p", ("a",))}


def test_check_ic():
    db = Database.load(str(DATA / "basic.dl"))
    assert check_ic(db) == ()
    broken = db.with_edb(db.edb | {Atom("b")})
    violated = check_ic(broken)
    assert violated == (Rule(None, (Literal(Atom("b")),)),)

    staff = Database.load(str(DATA / "staff.dl"))
    assert check_ic(staff) == ()
    twochairs = staff.with_edb(staff.edb | {Atom("group_chair", ("infor1", "gerhard"))})
    assert any("eq" in str(r) for r in check_ic(twochairs))


def test_model_computed_once_per_database(monkeypatch):
    db = Database.load(str(DATA / "basic.dl"))
    least_model(db)
    calls = []
    compute = semantics.fixpoint_model

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(semantics, "fixpoint_model", counting)
    assert check_ic(db) == ()
    assert build_proof_tree(db, Atom("p")).proved()
    assert calls == []
    # without negation the deletion cuts are filtered by subset alone
    assert deletion_candidates(db, Atom("p")) == (atoms("a"),)
    assert calls == []
    # an equal database keeps a model of its own, and the count sees it
    calls.clear()
    least_model(Database.load(str(DATA / "basic.dl")))
    assert len(calls) == 1


def test_violations_kept_per_database(monkeypatch):
    staff = Database.load(str(DATA / "staff.dl"))
    twochairs = staff.with_edb(staff.edb | {Atom("group_chair", ("infor1", "gerhard"))})
    first = check_ic(twochairs)
    assert first
    joins = []
    monkeypatch.setattr(semantics._Joins, "instances", lambda *args: joins.append(args) or [])
    assert check_ic(twochairs) is first
    assert check_ic(staff) == () and len(joins) == 1
    assert check_ic(staff) == () and len(joins) == 1
    # an equal database keeps violations of its own
    assert check_ic(Database(twochairs.rules)) == () and len(joins) == 2


def test_put_back_never_evaluates_the_database_itself(monkeypatch):
    db = Database.parse("p :- a, not b.\na.\n")
    least_model(db)
    calls = []
    compute = semantics.fixpoint_model

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(semantics, "fixpoint_model", counting)
    # with a negated literal the put-one-back test evaluates the candidate
    # cuts, but never db's own facts: putting back the one fact of the cut
    # {a} gives db itself
    assert deletion_candidates(db, Atom("p")) == (atoms("a"),)
    assert calls and all(facts != db.edb for _, facts, _ in calls)


def test_apply_returns_db_when_the_facts_stay(monkeypatch):
    db = Database.load(str(DATA / "basic.dl"))
    least_model(db)
    calls = []
    compute = semantics.fixpoint_model

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(semantics, "fixpoint_model", counting)
    for tx in (
        Transaction(),
        Transaction(atoms("a"), frozenset()),  # a is stored already
        Transaction(frozenset(), atoms("b")),  # b is not stored
        Transaction(atoms("e"), atoms("b")),
    ):
        assert tx.apply(db) is db
        assert least_model(tx.apply(db)) == least_model(db)
    assert calls == []
    changed = Transaction(frozenset(), atoms("a")).apply(db)
    assert changed is not db and changed.edb == atoms("e", "f")


# A registry on sys lives until the interpreter's last teardown step, as an
# import hook's state does under a test runner: it keeps the rules, and the
# module whose compiled programs they key, past vud.semantics' teardown.
KEEP_RULES_SCRIPT = """
import sys

from vud import Atom, Database, UpdateRequest, semantics, view_update

db = Database.parse("p(X) :- a(X), b(X), c(X).\\np(X) :- d(X).\\na(k).\\nb(k).\\n")
view_update(db, UpdateRequest(inserts=(Atom("p", ("k",)),)))
sys.rule_cache = {"rules": db.rules, "module": semantics}
"""


def test_rules_kept_past_teardown_exit_quietly():
    # the insert compiles the helper rules of the propagation form, kept
    # with the program of db's rules, so tearing that program down drops
    # rules another compiled program is keyed by
    src = str(Path(semantics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", KEEP_RULES_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Exception ignored" not in done.stderr, done.stderr


def test_reduct():
    rules = parse_program("p :- a, not q.\nq :- b.\n")
    pos = reduct(rules, frozenset(), set())
    assert Rule(Atom("p"), (Literal(Atom("a")),)) in pos
    # once q holds the first rule is gone
    pos = reduct(rules, frozenset({Atom("q")}), set())
    assert all(r.head != Atom("p") for r in pos)


# --- proof trees ----------------------------------------------------------


def test_basic_proof_tree_golden():
    db = Database.load(str(DATA / "basic.dl"))
    tree = build_proof_tree(db, Atom("p"))
    leaves = tree.leaves()
    # hand-checked: five leaves, three proofs, two branches dying on b
    assert len(leaves) == 5
    assert tree.success_sets() == (atoms("a", "e"), atoms("a", "f"), atoms("a"))
    failures = [l for l in leaves if l.kind == "failure"]
    assert [l.failed_on for l in failures] == [Literal(Atom("b")), Literal(Atom("b"))]
    assert frozenset().union(*tree.success_sets()) == atoms("a", "e", "f")


def test_basic_proof_tree_hypothesized():
    db = Database.load(str(DATA / "basic.dl"))
    tree = build_proof_tree(db, Atom("p"), hypothesize=True)
    assert len(tree.leaves()) == 5
    # proofs that hold without assumptions are unchanged
    assert tree.success_sets() == (atoms("a", "e"), atoms("a", "f"), atoms("a"))
    # the two dead branches only miss b
    assert tree.hypothesised_sets() == (atoms("b"), atoms("b"))
    assumed = [l for l in tree.leaves() if l.assumed]
    assert [l.used for l in assumed] == [atoms("f"), atoms("e")]


def test_proof_tree_loop_check():
    db = Database.parse("p :- p, q.\nq :- a.\na.\n")
    tree = build_proof_tree(db, Atom("p"))
    assert not tree.proved()
    assert {l.kind for l in tree.leaves()} == {"loop"}

    db = Database.parse("p :- p.\n")
    assert not build_proof_tree(db, Atom("p")).proved()

    # loops must not hide proofs reachable through other rules
    db = Database.parse("p :- q.\nq :- p.\nq :- a.\na.\n")
    tree = build_proof_tree(db, Atom("p"))
    assert tree.proved()
    assert tree.success_sets() == (atoms("a"),)
    assert any(l.kind == "loop" for l in tree.leaves())


def test_proof_tree_negation_and_eq():
    db = Database.parse("p :- a, not q.\nq :- b.\na.\n")
    assert build_proof_tree(db, Atom("p")).success_sets() == (atoms("a"),)
    noisy = db.with_edb([Atom("a"), Atom("b")])
    tree = build_proof_tree(noisy, Atom("p"))
    assert not tree.proved()
    assert tree.leaves()[0].failed_on == Literal(Atom("q"), negated=True)

    db = Database.parse("p(X,Y) :- r(X), r(Y), not eq(X,Y).\nr(a). r(b).\n")
    good = build_proof_tree(db, Atom("p", ("a", "b")))
    assert good.success_sets() == ({Atom("r", ("a",)), Atom("r", ("b",))},)
    bad = build_proof_tree(db, Atom("p", ("a", "a")))
    assert not bad.proved()


def test_proof_tree_requires_ground_goal():
    db = Database.load(str(DATA / "basic.dl"))
    with pytest.raises(ValueError):
        build_proof_tree(db, Atom("p", ("X",)))


def test_render_proof_tree():
    db = Database.load(str(DATA / "basic.dl"))
    text = render_proof_tree(build_proof_tree(db, Atom("p")))
    assert "(success)" in text
    assert "(failure)" in text
    assert text.splitlines()[0] == "p"


def test_deep_chain_proof_tree_within_recursion_limit():
    # one proof level per link: deeper than the default recursion limit
    n = 1000
    text = "".join("p%d :- a%d, p%d.\n" % (i, i, i + 1) for i in range(n))
    text += "p%d :- a%d.\n" % (n, n) + "".join("a%d.\n" % i for i in range(n + 1))
    db = Database.parse(text)
    tree = build_proof_tree(db, Atom("p0"))
    assert tree.success_sets() == (frozenset(Atom("a%d" % i) for i in range(n + 1)),)
    lines = render_proof_tree(tree).splitlines()
    assert lines[0] == "p0"
    assert lines[1] == "  a0, p1"
    assert lines[-1] == "  " * (2 * n + 2) + "[] (success)"


def _proof_tree_digest() -> tuple[int, str]:
    """The number of trees and a sha256 over their rendered text and each
    leaf's kind, used and assumed atoms: up to five view atoms of the model
    per database, each with hypothesize off and on."""
    dbs = [Database.load(str(p)) for p in sorted(DATA.glob("*.dl"))]
    dbs += [chain_database(n) for n in range(1, 7)]
    for cfg in (GeneratorConfig(), GeneratorConfig(negation=True, constraints=True)):
        dbs += [random_database(seed, cfg) for seed in range(40)]
    digest = hashlib.sha256()
    trees = 0
    for db in dbs:
        for goal in sorted(a for a in least_model(db) if a.pred in db.view_predicates)[:5]:
            for hypothesize in (False, True):
                tree = build_proof_tree(db, goal, hypothesize)
                digest.update(render_proof_tree(tree).encode())
                for leaf in tree.leaves():
                    line = "\n%s %s %s" % (leaf.kind, sorted(map(str, leaf.used)), sorted(map(str, leaf.assumed)))
                    digest.update(line.encode())
                digest.update(b"\n\n")
                trees += 1
    return trees, digest.hexdigest()


def test_proof_trees_match_pinned_digest():
    # pinned from the nested trees that the flat node list replaced
    assert _proof_tree_digest() == (232, "cdf01bd1d2bdcb2c37d5dc3c36e960822a00ccfe7149c13e99a982b844ae600c")


def test_literal_holds():
    model = atoms("a")
    assert literal_holds(Literal(Atom("a")), model)
    assert not literal_holds(Literal(Atom("a"), True), model)
    assert literal_holds(Literal(Atom("eq", ("x", "x"))), model)
    assert literal_holds(Literal(Atom("eq", ("x", "y")), True), model)


# --- randomised agreement with the naive oracle ---------------------------

_base = ["a0", "a1", "a2"]
_mid = ["p0", "p1"]
_top = ["q0"]


@st.composite
def stratified_programs(draw):
    """Random propositional programs, stratifiable by construction: negation
    only looks at strictly lower layers."""
    rules = []
    for _ in range(draw(st.integers(0, 6))):
        layer = draw(st.sampled_from(["mid", "top"]))
        if layer == "mid":
            head, pos_pool, neg_pool = draw(st.sampled_from(_mid)), _base + _mid, _base
        else:
            head, pos_pool, neg_pool = draw(st.sampled_from(_top)), _base + _mid + _top, _base + _mid
        body = [Literal(Atom(draw(st.sampled_from(pos_pool)))) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(0, 2))):
            body.append(Literal(Atom(draw(st.sampled_from(neg_pool))), negated=True))
        rules.append(Rule(Atom(head), tuple(body)))
    facts = [Atom(n) for n in _base if draw(st.booleans())]
    return tuple(rules), frozenset(facts)


@settings(max_examples=150, deadline=None)
@given(stratified_programs())
def test_fixpoint_matches_naive_oracle(case):
    rules, facts = case
    # propositional: the rules and facts have no constants
    assert fixpoint_model(rules, facts, ()) == naive_model(rules, facts)
