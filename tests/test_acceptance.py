"""End-to-end acceptance checks, one per advertised behavior.

Each check prints a single verdict line (run with -s to see them all).
Golden examples are pinned exactly; the corpus checks demand a zero
violation count over seeded random databases; the growth check fits the
measured curve.  A failure message carries the first offending instance.
"""

import itertools
import math
import random
import time

from oracles import (
    brute_transactions,
    clause_models,
    is_hitting_set,
    minimal_sets,
    preservation,
    saturated_sets,
    subset_explanations,
)

from vud.deletion import (
    Clause,
    build_tableau,
    branch_deletions,
    delete_request,
    deletion_candidates,
    deletion_program,
    materialized_program,
    strongly_minimal,
)
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.explain import local_explanations
from vud.hitting import minimal_hitting_sets
from vud.insertion import insertion_candidates, magic_query
from vud.lang import Atom, Database, Literal, Transaction, is_variable
from vud.randgen import GeneratorConfig, chain_database, random_database, random_ground_atom
from vud.revision import rationality_report, revise
from vud.semantics import build_proof_tree, check_ic, least_model


def report(n: int, elapsed: float, violations: list, note: str) -> None:
    status = "PASS" if not violations else "FAIL"
    print("criterion %02d: %s (%.2fs) %s" % (n, status, elapsed, note))
    assert not violations, "criterion %d: %d violation(s), first: %s" % (
        n,
        len(violations),
        violations[0],
    )


def budget(violations: list, elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        violations.append("runtime %.1fs exceeds %.0fs budget" % (elapsed, limit))


# --- shared corpora ----------------------------------------------------------

UPDATE_CONFIG = GeneratorConfig(
    view_count=3,
    base_count=3,
    constant_count=2,
    max_arity=2,
    rules_per_view=2,
    max_body=2,
    extra_body_vars=0,
    negation=False,
    constraints=False,
    fact_density=0.55,
    acyclic=True,
)


def _head_matches(head: Atom, goal: Atom) -> bool:
    if head.pred != goal.pred or len(head.args) != len(goal.args):
        return False
    theta: dict[str, str] = {}
    for p, g in zip(head.args, goal.args):
        if is_variable(p):
            if theta.setdefault(p, g) != g:
                return False
        elif p != g:
            return False
    return True


def _update_goal(db: Database, seed: int, want_present: bool) -> Atom | None:
    """A deletable view atom from the model, or an insertable absent one
    that at least one rule head could ever produce."""
    model = least_model(db)
    present = sorted(a for a in model if a.pred in db.view_predicates)
    if want_present:
        rng = random.Random(seed * 31 + 7)
        return rng.choice(present) if present else None
    for k in range(60):
        a = random_ground_atom(db, seed * 13 + 5 + k)
        if a in model:
            continue
        if any(r.head is not None and _head_matches(r.head, a) for r in db.idb):
            return a
    return None


_CORPUS: list[tuple[int, Database, str, Atom | None]] | None = None


def update_corpus() -> list[tuple[int, Database, str, Atom | None]]:
    global _CORPUS
    if _CORPUS is None:
        rows = []
        for seed in range(200):
            db = random_database(seed, UPDATE_CONFIG)
            op = "delete" if seed % 2 else "insert"
            goal = _update_goal(db, seed, want_present=(op == "delete"))
            rows.append((seed, db, op, goal))
        _CORPUS = rows
    return _CORPUS


def _justified_unrealizable(db: Database, op: str, goal: Atom) -> bool:
    """No transaction of up to two base-fact changes realises the request
    either, so giving up was honest."""
    pool = sorted(set(random_ground_atom(db, 999 + i, view=False) for i in range(60)))
    brute = brute_transactions(
        db.idb,
        db.ic,
        db.edb,
        pool,
        inserts=[goal] if op == "insert" else (),
        deletes=[goal] if op == "delete" else (),
        max_change=2,
    )
    return not brute


def _postulate_sweep(variant: str, required: tuple[str, ...], violations: list) -> tuple[int, int]:
    checked = unrealizable = 0
    for seed, db, op, goal in update_corpus():
        if goal is None:
            continue
        req = (
            UpdateRequest(inserts=(goal,))
            if op == "insert"
            else UpdateRequest(deletes=(goal,))
        )
        try:
            res = view_update(db, req, variant=variant)
        except UnrealizableError:
            unrealizable += 1
            if not _justified_unrealizable(db, op, goal):
                violations.append((seed, op, str(goal), "unjustified unrealizable"))
            continue
        checked += 1
        for tx in res.alternatives:
            rep = rationality_report(db, goal, tx, op)
            misses = [k for k in required if not rep[k]]
            if misses:
                violations.append((seed, op, str(goal), str(tx), misses))
        if seed % 10 == 0:
            rev = Database(tuple(reversed(db.rules)))
            if not preservation(db, rev, goal, op):
                violations.append((seed, op, str(goal), "preservation"))
    return checked, unrealizable


# --- golden examples ---------------------------------------------------------


def test_criterion_01_proof_tree_golden():
    t0 = time.perf_counter()
    violations: list = []
    db = Database.load("data/basic.dl")
    tree = build_proof_tree(db, Atom("p"), hypothesize=True)
    leaves = tree.leaves()
    a, b, e, f = (Atom(x) for x in "abef")

    if len(leaves) != 5:
        violations.append("expected 5 leaves, got %d" % len(leaves))
    stored = {leaf.support for leaf in leaves if not leaf.assumed}
    if stored != {frozenset({a, e}), frozenset({a, f}), frozenset({a})}:
        violations.append("stored supports %s" % sorted(map(sorted, stored)))
    hypothesised = {leaf.support for leaf in leaves if leaf.assumed}
    if hypothesised != {frozenset({b, e}), frozenset({b, f})}:
        violations.append("hypothesised supports %s" % sorted(map(sorted, hypothesised)))
    if frozenset().union(*stored) != frozenset({a, e, f}):
        violations.append("stored union")
    if frozenset().union(*(leaf.assumed for leaf in leaves)) != frozenset({b}):
        violations.append("missing union")

    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 1.0)
    report(1, elapsed, violations, "proof tree for p: 5 leaves, pinned supports")


def test_criterion_02_deletion_golden():
    t0 = time.perf_counter()
    violations: list = []
    db = Database.load("data/basic.dl")
    p, a, e, f = (Atom(x) for x in "paef")

    cuts = deletion_candidates(db, p)
    if cuts != (frozenset({a}),):
        violations.append("cuts %s" % (cuts,))
    after = db.with_edb(db.edb - {a})
    if least_model(after) != frozenset({e, f}):
        violations.append("post-state model %s" % sorted(map(str, least_model(after))))
    if strongly_minimal(db, p, frozenset({a, e})):
        violations.append("{a,e} not rejected")
    if strongly_minimal(db, p, frozenset({a, e, f})):
        violations.append("{a,e,f} not rejected")
    if not strongly_minimal(db, p, frozenset({a})):
        violations.append("{a} rejected")

    # every subset of the stored facts, checked directly
    realizing = []
    for r in range(len(db.edb) + 1):
        for combo in itertools.combinations(sorted(db.edb), r):
            cut = frozenset(combo)
            if p not in least_model(db.with_edb(db.edb - cut)):
                realizing.append(cut)
    smallest = [c for c in realizing if not any(o < c for o in realizing)]
    if set(smallest) != set(cuts):
        violations.append("exhaustive oracle disagrees: %s" % smallest)

    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 1.0)
    report(2, elapsed, violations, "delete p: single cut {-a}, oracle-confirmed")


def test_criterion_03_insertion_golden():
    violations: list = []
    db = Database.load("data/staff.dl")
    goal = Atom("staff_chair", ("aravindan", "gerhard"))
    wanted = Transaction(
        frozenset({Atom("staff_group", ("aravindan", "infor2"))}), frozenset()
    )

    t0 = time.perf_counter()
    result = view_update(db, UpdateRequest(inserts=(goal,)))
    elapsed = time.perf_counter() - t0

    if result.chosen != wanted:
        violations.append("chosen %s" % result.chosen)
    small = {
        (tx.additions, tx.removals) for tx in result.alternatives if tx.size <= 2
    }

    # brute force over every transaction of up to two changes, untimed
    consts = sorted(db.universe())
    pool = [
        Atom(pred, (x, y))
        for pred in ("staff_group", "group_chair")
        for x in consts
        for y in consts
    ]
    brute = set(
        brute_transactions(db.idb, db.ic, db.edb, pool, inserts=[goal], max_change=2)
    )
    if small != brute:
        violations.append("size<=2 family %s vs brute %s" % (small, brute))
    if brute != {(wanted.additions, wanted.removals)}:
        violations.append("brute family unexpected: %s" % brute)

    budget(violations, elapsed, 1.0)
    report(3, elapsed, violations, "insert staff_chair(aravindan,gerhard): +staff_group(aravindan,infor2)")


# --- postulate suites --------------------------------------------------------


def test_criterion_04_revision_postulates():
    t0 = time.perf_counter()
    violations: list = []
    required = (
        "closure",
        "weak-success",
        "inclusion",
        "immutable-inclusion",
        "vacuity",
        "consistency",
        "weak-relevance",
    )
    kept = 0
    seed = -1
    informative = 0
    while kept < 200:
        seed += 1
        cfg = GeneratorConfig(
            view_count=3,
            base_count=3,
            constant_count=1,
            max_arity=0,
            rules_per_view=2,
            max_body=2,
            extra_body_vars=0,
            negation=False,
            constraints=(seed % 2 == 0),
            fact_density=0.5,
        )
        db = random_database(seed, cfg)
        if check_ic(db):
            continue
        kept += 1
        view = random.Random(seed * 7 + 1).random() < 0.67
        goal = random_ground_atom(db, seed * 13 + 5, view=view)
        txs = revise(db, goal)
        for tx in txs:
            rep = rationality_report(db, goal, tx, "insert")
            misses = [k for k in required if not rep[k]]
            if misses:
                violations.append((seed, str(goal), str(tx), misses))
        if txs and not (len(txs) == 1 and txs[0].is_empty):
            informative += 1
        elif not txs:
            # an empty answer must mean no small transaction exists at all
            pool = [Atom(b) for b in sorted(db.base_predicates)]
            brute = brute_transactions(db.idb, db.ic, db.edb, pool, inserts=[goal], max_change=2)
            if brute:
                violations.append((seed, str(goal), "empty but realisable", brute[:2]))
        if kept % 10 == 0:
            rev = Database(tuple(reversed(db.rules)))
            if not preservation(db, rev, goal, "insert"):
                violations.append((seed, str(goal), "preservation"))

    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 60.0)
    report(4, elapsed, violations, "revision over 200 seeded KBs (%d informative)" % informative)


def test_criterion_05_minimal_update_postulates():
    t0 = time.perf_counter()
    violations: list = []
    required = (
        "closure",
        "weak-success",
        "inclusion",
        "immutable-inclusion",
        "vacuity",
        "consistency",
        "strong-relevance",
    )
    checked, unrealizable = _postulate_sweep("minimal", required, violations)
    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 120.0)
    report(
        5,
        elapsed,
        violations,
        "minimal-variant updates on %d instances (%d justified give-ups)" % (checked, unrealizable),
    )


def test_criterion_06_materialized_update_postulates():
    t0 = time.perf_counter()
    violations: list = []
    required = (
        "closure",
        "weak-success",
        "inclusion",
        "immutable-inclusion",
        "vacuity",
        "consistency",
        "weak-relevance",
    )
    checked, unrealizable = _postulate_sweep("materialized", required, violations)
    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 120.0)
    report(
        6,
        elapsed,
        violations,
        "materialized-variant updates on %d instances (%d justified give-ups)" % (checked, unrealizable),
    )


def test_criterion_07_explanation_cut_bridge():
    t0 = time.perf_counter()
    violations: list = []
    instances = 0
    for seed, db, _, _ in update_corpus():
        model = least_model(db)
        program = materialized_program(db)
        for alpha in sorted(a for a in model if a.pred in db.view_predicates):
            instances += 1
            smallest = {
                frozenset(x)
                for x in minimal_sets(subset_explanations(db.idb, db.edb, alpha))
            }
            family = set(local_explanations(db, alpha))
            if not smallest <= family:
                violations.append((seed, str(alpha), "minimal explanation missing"))
            if not all(any(d <= dp for d in smallest) for dp in family):
                violations.append((seed, str(alpha), "family member covers no minimal one"))
            union = frozenset().union(*family) if family else frozenset()
            tableau = build_tableau(program, delete_request(alpha))
            for cut in branch_deletions(tableau, db.edb):
                if not cut <= union:
                    violations.append((seed, str(alpha), "cut outside the support union"))
            if minimal_hitting_sets(sorted(smallest)) != minimal_hitting_sets(sorted(family)):
                violations.append((seed, str(alpha), "hitting sets differ"))

    elapsed = time.perf_counter() - t0
    report(7, elapsed, violations, "explanation/cut bridge on %d derivable view atoms" % instances)


# --- structural properties ---------------------------------------------------


def test_criterion_08_hitting_set_families():
    t0 = time.perf_counter()
    violations: list = []
    rng = random.Random(80)
    universe = ["x%d" % i for i in range(8)]
    for trial in range(500):
        family = [
            frozenset(rng.sample(universe, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        union = sorted(frozenset().union(*family))
        padded = list(family)
        for _ in range(rng.randint(0, 4)):
            member = rng.choice(family)
            padded.append(member | frozenset(rng.sample(union, rng.randint(0, len(union)))))
        if minimal_hitting_sets(family) != minimal_hitting_sets(padded):
            violations.append((trial, "minimal hitting sets differ"))
        for _ in range(4):
            cand = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
            if is_hitting_set(cand, family) != is_hitting_set(cand, padded):
                violations.append((trial, "hitting disagreement on %s" % sorted(cand)))

    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 30.0)
    report(8, elapsed, violations, "500 padded set families, hitting sets unchanged")


def test_criterion_09_tableau_model_equivalence():
    t0 = time.perf_counter()
    violations: list = []
    rng = random.Random(90)
    for trial in range(100):
        n = rng.randint(3, 10)
        atoms = [Atom("s%d" % i) for i in range(n)]
        sign = {a: rng.random() < 0.5 for a in atoms}

        def lit(atom):
            return Literal(atom, negated=sign[atom])

        request = Clause(tuple(lit(a) for a in rng.sample(atoms, rng.randint(1, 3))))
        clauses = []
        for _ in range(rng.randint(2, 7)):
            head = tuple(lit(a) for a in rng.sample(atoms, rng.randint(0, 3)))
            body = tuple(lit(a) for a in rng.sample(atoms, rng.randint(0, 2)))
            if not head and not body:
                head = (lit(rng.choice(atoms)),)
            clauses.append(Clause(head, body))

        tableau = build_tableau(clauses, request)
        got = {b.literals for b in tableau.open()}
        signed = [(c.head, c.body) for c in (request,) + tuple(clauses)]
        oracle = set(saturated_sets(signed))
        if got != oracle:
            violations.append((trial, "saturation oracle disagrees"))
        models = set(clause_models(signed))
        if not got <= models:
            violations.append((trial, "open branch is not a model"))
        if not all(any(b <= m for b in got) for m in minimal_sets(models)):
            violations.append((trial, "minimal model not covered"))

    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 30.0)
    report(9, elapsed, violations, "100 signed clause programs vs model enumeration")


def test_criterion_10_goal_directed_evaluation():
    t0 = time.perf_counter()
    violations: list = []
    goals = 0
    for seed in range(100):
        db = random_database(seed, UPDATE_CONFIG)
        model = least_model(db)
        for k in range(3):
            goal = random_ground_atom(db, seed * 97 + k)
            goals += 1
            if magic_query(db, goal) != (goal in model):
                violations.append((seed, str(goal)))

    elapsed = time.perf_counter() - t0
    budget(violations, elapsed, 30.0)
    report(10, elapsed, violations, "guarded evaluation agrees on %d goals" % goals)


def test_criterion_11_tableau_space_growth():
    t0 = time.perf_counter()
    violations: list = []
    sizes = range(4, 13)
    rows = []
    for n in sizes:
        db = chain_database(n)
        tableau = build_tableau(deletion_program(db), delete_request(Atom("p1")))
        explanations = len(local_explanations(db, Atom("p1")))
        rows.append((n, tableau.peak_live, len(tableau.open()), explanations))

    xs = [math.log(n) for n, _, _, _ in rows]
    ys = [math.log(peak) for _, peak, _, _ in rows]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    exponent = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    if exponent > 2.0:
        violations.append("peak live branches fit exponent %.2f > 2" % exponent)

    elapsed = time.perf_counter() - t0
    for n, peak, open_count, explanations in rows:
        print(
            "    n=%2d  peak live %2d  open branches %4d  explanations %4d"
            % (n, peak, open_count, explanations)
        )
    report(
        11,
        elapsed,
        violations,
        "chain deletion: peak live fit exponent %.2f, family growth reported above" % exponent,
    )
