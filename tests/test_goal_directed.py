"""Goal-directed proof work against the grounded slow path.

Proof trees look up a view atom's rule instances through
semantics.RuleInstances, which grounds only the rules whose head matches the
atom.  support_union, missing_union and missing_support visit each view
atom the goal reaches once instead of listing proof branches, and fall back
to the trees when a view atom reaches itself.  The differential tests
compare them with the whole ground program (oracles.grounded_instances),
with the unions of the explanation families and with the hypothesising
trees (oracles.tree_missing_support); the guard tests count the work
instead of timing it, by making the slow path raise.
"""

import itertools
from pathlib import Path

from vud import explain, lang, semantics
from vud.engine import UpdateRequest, view_update
from vud.explain import local_explanations, missing_support, missing_union, support_union
from vud.lang import Atom, Database, Transaction
from vud.randgen import GeneratorConfig, chain_database, random_database, random_ground_atom
from vud.revision import contract, rationality_report, revise
from vud.semantics import build_proof_tree

from oracles import grounded_instances, tree_missing_support
from strategies import BENCH_CORPUS, long_chain_text

DATA = Path(__file__).resolve().parents[1] / "data"
SEEDS = range(40)
CONFIGS = {
    "cyclic": GeneratorConfig(),
    "acyclic": GeneratorConfig(acyclic=True),
    "denials": GeneratorConfig(negation=True, constraints=True),
    "existential": GeneratorConfig(negation=True, extra_body_vars=1),
}


def _corpus() -> list[tuple[str, Database]]:
    """Named databases: data/*.dl, the two-support chains of 1 to 6 links
    and the seeded corpora of each config."""
    dbs = [(p.name, Database.load(str(p))) for p in sorted(DATA.glob("*.dl"))]
    dbs += [("chain%d" % n, chain_database(n)) for n in range(1, 7)]
    dbs += [("%s/%d" % (name, s), random_database(s, cfg)) for name, cfg in CONFIGS.items() for s in SEEDS]
    return dbs


def _goals(db: Database) -> list[Atom]:
    """Every view and base atom over the universe and one constant outside
    it."""
    consts = sorted(db.universe() | {"outside"})
    preds = sorted(db.view_predicates | db.base_predicates)
    return [Atom(p, args) for p in preds for args in itertools.product(consts, repeat=db.arities[p])]


def test_proof_trees_match_the_ground_program(monkeypatch):
    trees = 0
    for name, db in _corpus():
        for goal in _goals(db):
            for hypothesize in (False, True):
                tree = build_proof_tree(db, goal, hypothesize)
                with monkeypatch.context() as m:
                    m.setattr(semantics, "RuleInstances", grounded_instances)
                    grounded = build_proof_tree(db, goal, hypothesize)
                assert tree == grounded, (name, goal, hypothesize)
                trees += 1
    assert trees > 10000


def test_unions_match_the_explanation_families(monkeypatch):
    fallbacks: list[str] = []

    def counted(family):
        def run(db, atom):
            fallbacks.append(name)
            return family(db, atom)

        return run

    monkeypatch.setattr(explain, "local_explanations", counted(local_explanations))
    monkeypatch.setattr(explain, "missing_support", counted(missing_support))
    unions = 0
    for name, db in _corpus():
        for goal in _goals(db):
            assert support_union(db, goal) == frozenset().union(*local_explanations(db, goal)), (name, goal)
            assert missing_union(db, goal) == frozenset().union(*missing_support(db, goal)), (name, goal)
            unions += 2
    assert unions > 10000
    # the one-visit path answered on every database without view cycles
    assert not [n for n in fallbacks if n.split("/")[0] not in ("cyclic", "denials", "existential")]
    assert any(n.startswith("cyclic/") for n in fallbacks)


def _forbidden(*args, **kwargs):
    raise AssertionError("the slow path ran")


def test_chain_unions_build_no_tree(monkeypatch):
    # each of the 20 links has two supports, so p1's tree has 2^20 leaves
    db = chain_database(20)
    monkeypatch.setattr(explain, "build_proof_tree", _forbidden)
    assert support_union(db, Atom("p1")) == db.edb
    gap = frozenset({Atom("a10"), Atom("b10")})
    assert missing_union(db.with_edb(db.edb - gap), Atom("p1")) == gap


def _cut_chains() -> list[tuple[str, Database]]:
    """Two-support chains of 1 to 10 links with one link's two facts
    removed, and propositional chains of 1 to 30 links with one fact
    removed, every link in turn."""
    dbs = []
    for n in range(1, 11):
        db = chain_database(n)
        dbs += [("chain%d-%d" % (n, k), db.with_edb(db.edb - {Atom("a%d" % k), Atom("b%d" % k)})) for k in range(1, n + 1)]
    dbs += [("long%d-%d" % (n, k), Database.parse(long_chain_text(n, k))) for n in range(1, 31) for k in range(n + 1)]
    return dbs


def test_missing_support_matches_the_tree(monkeypatch):
    walked = []
    real = explain._tabled

    def counted(db, goal, hypothesize, fold):
        found = real(db, goal, hypothesize, fold)
        walked.append(found is not None)
        return found

    monkeypatch.setattr(explain, "_tabled", counted)
    dbs = _corpus() + [("bench-corpus/%d" % s, random_database(s, BENCH_CORPUS)) for s in range(300)] + _cut_chains()
    goals = 0
    for name, db in dbs:
        consts = sorted(db.universe() | {"outside"})
        base = [Atom(p, args) for p in sorted(db.base_predicates) for args in itertools.product(consts, repeat=db.arities[p])]
        stored = [a for a in base if a in db.edb][:3]
        absent = [a for a in base if a not in db.edb][:3]
        views = [Atom(p, args) for p in sorted(db.view_predicates) for args in itertools.product(consts, repeat=db.arities[p])]
        for goal in views + stored + absent:
            assert missing_support(db, goal) == tree_missing_support(db, goal), (name, goal)
            goals += 1
    assert goals > 30000
    # the walk answered most goals; the rest went through the fallback
    assert walked.count(True) > 25000 and walked.count(False) > 250


def test_chain_revise_builds_no_tree(monkeypatch):
    # p1 misses one link of 30: the tree would have 2^29 branches, the
    # family two sets
    db = chain_database(30)
    monkeypatch.setattr(explain, "build_proof_tree", _forbidden)
    cut = db.with_edb(db.edb - {Atom("a15"), Atom("b15")})
    assert revise(cut, Atom("p1")) == (Transaction(frozenset({Atom("a15")})), Transaction(frozenset({Atom("b15")})))


def test_a_goal_that_reaches_itself_is_walked_once(monkeypatch):
    # missing_union falls back through missing_support, which goes to the
    # tree without a second walk, and later calls on the database in the
    # same mode walk not at all; without hypothesize the walk reaches
    # fewer atoms and may answer, so that mode walks at most once more
    db = random_database(0, GeneratorConfig())
    goal = next(g for g in _goals(db) if explain._tabled(db, g, True, explain._UNIONS) is None)
    walks = []
    monkeypatch.setattr(explain, "RuleInstances", lambda *args: walks.append(args) or semantics.RuleInstances(*args))
    db = random_database(0, GeneratorConfig())
    assert missing_union(db, goal) == frozenset().union(*tree_missing_support(db, goal))
    assert len(walks) == 1
    assert missing_support(db, goal) == tree_missing_support(db, goal)
    assert len(walks) == 1
    assert support_union(db, goal) == frozenset().union(*local_explanations(db, goal))
    assert len(walks) <= 2
    assert missing_union(db, goal) == frozenset().union(*tree_missing_support(db, goal))
    assert len(walks) <= 2


def test_the_walk_falls_back_only_where_the_tree_loops():
    # the walk visits a view subgoal only where the tree expands it, so a
    # self-reach it meets is a loop leaf of the tree it falls back to
    fallbacks = {False: 0, True: 0}
    for name, db in _corpus():
        for goal in _goals(db):
            if goal.pred not in db.view_predicates:
                continue
            for hypothesize in (False, True):
                if explain._tabled(db, goal, hypothesize, explain._UNIONS) is None:
                    tree = build_proof_tree(db, goal, hypothesize)
                    assert any(l.kind == "loop" for l in tree.leaves()), (name, goal, hypothesize)
                    fallbacks[hypothesize] += 1
    assert fallbacks[False] and fallbacks[True]


REVISION_CONFIGS = {
    "denials": GeneratorConfig(constraints=True),
    "negation": GeneratorConfig(negation=True, constraints=True),
    "existential": GeneratorConfig(negation=True, constraints=True, extra_body_vars=1),
    "acyclic": GeneratorConfig(negation=True, constraints=True, acyclic=True),
}


def _change_answers() -> list:
    out: list = []
    for cfg in REVISION_CONFIGS.values():
        for seed in range(150):
            db = random_database(seed, cfg)
            for k in range(2):
                goal = random_ground_atom(db, 7 * seed + k)
                for change in (revise, contract):
                    try:
                        out.append(change(db, goal))
                    except ValueError as error:
                        out.append(str(error))
    return out


def test_revise_and_contract_answer_as_through_the_trees(monkeypatch):
    walked = _change_answers()
    monkeypatch.setattr(explain, "_tabled", lambda *args: None)
    assert walked == _change_answers()
    assert sum(len(a) > 1 for a in walked if isinstance(a, tuple)) > 50


def staff_database(n: int) -> Database:
    """The rules of data/staff.dl over n groups: person pi in group gi,
    chaired by ci, for i < n, so 3n constants."""
    lines = (DATA / "staff.dl").read_text().splitlines(True)
    rules = "".join(line for line in lines if ":-" in line and not line.startswith("%"))
    facts = "".join("group_chair(g%d,c%d).\nstaff_group(p%d,g%d).\n" % (i, i, i, i) for i in range(n))
    return Database.parse(rules + facts)


def test_staff_insert_grounds_no_program(monkeypatch):
    db = staff_database(64)
    monkeypatch.setattr(semantics, "ground_program", _forbidden)
    monkeypatch.setattr(lang, "ground_program", _forbidden)
    goal = Atom("staff_chair", ("p0", "c1"))
    result = view_update(db, UpdateRequest(inserts=(goal,)))
    assert result.alternatives == (
        Transaction(frozenset({Atom("staff_group", ("p0", "g1"))})),
        Transaction(
            frozenset({Atom("group_chair", ("g0", "c1"))}),
            frozenset({Atom("group_chair", ("g0", "c0")), Atom("group_chair", ("g1", "c1"))}),
        ),
    )
    assert all(report.ok for report in result.postulates)
    for tx in result.alternatives:
        assert all(rationality_report(db, goal, tx, "insert").values()), tx


def test_deep_chain_unions_within_recursion_limit():
    n = 1000
    text = "".join("p%d :- a%d, p%d.\n" % (i, i, i + 1) for i in range(n))
    text += "p%d :- a%d.\n" % (n, n) + "".join("a%d.\n" % i for i in range(n + 1))
    db = Database.parse(text)
    assert support_union(db, Atom("p0")) == db.edb
    assert missing_union(db, Atom("p0")) == frozenset()
    gap = Atom("a%d" % n)
    assert missing_union(db.with_edb(db.edb - {gap}), Atom("p0")) == {gap}

