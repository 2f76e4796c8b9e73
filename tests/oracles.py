"""Slow reference implementations used to pin expected values in the tests.

Everything here favours the most obvious exhaustive formulation over speed:
naive ground iteration instead of incremental evaluation, guess-and-check
over subsets instead of goal-directed search.  Tests freeze values computed
by these against the real implementations.  The grounded_* functions are
the Herbrand-grounding evaluation that the join evaluator replaced, kept so
the tests can check that both give the same models, the same violations
and the same clauses in the same order.  The hitting-set references are
the exhaustive subset sweep that vud.hitting's incremental transversals
replaced, a branch-and-bound version and is_hitting_set.  edb_cuts is a
second formulation of a production function that production does not call;
the tests check that both formulations agree.  iterated_strata is the
iterate-to-fixpoint stratification that vud.lang.stratify replaced by one
pass over the dependency components; grounded_fixpoint_model orders its
strata by it.  antichain_pairwise is the
quadratic subset-minimal filter that vud.lang.antichain replaced, and
minimal_sets the loop vud.explain.minimal_members ran before it used
antichain.  scanning_tableau is the deletion tableau over literal sets
that the bitmask one replaced, and literal_deletions reads a branch's cut
off its literals.  rebuilt_database is the way
Database.with_edb built a changed database before derived databases
shared their parent's clauses: a whole new clause list, partitioned
again.  The *_loop functions are the four put-one-back loops that
Transaction.undo_each replaced; the three that build databases build them
with rebuilt_database, so they do not share the production path.
grounded_instances is the lookup proof trees used before
vud.semantics.RuleInstances listed only the atoms a tree selects: the whole
ground program, grouped by head; grounded_closed reads the closure
postulate off it.  normalized_model is the model the
insertion world search computed before it read the database's kept model:
the whole normalised program evaluated from the stored facts.  search_model
is what it read next, before it decided helper atoms on demand: the kept
model plus a fixpoint of the helper rules over it.
whole_key_worlds is the insertion world search before it knew a world
without its alternative-helper atoms: every world keyed by its whole
transaction, and the options of a view atom listed on every expansion; it
takes the request's constants and witnesses as the production search
does.  base_atoms lists the candidate pool brute_transactions searches:
every base atom over a given set of constants.
propagation_rules, with delta_add and delta_remove, displays the cases of
the world search as a delta program over +p/-p atoms; no production code
reads it.
tree_missing_support is the missing-support family as vud.explain built it
before it visited each view atom once: the unique assumption sets of the
hypothesising proof tree, in proof order.  pivoted_program is the
materialized variant's program before it kept only the clauses a delete
request can apply: every ground rule and denial pivoted on the model.
kb_equivalent (with its EquivalenceVerdict), preservation and
guarantee_failures check the postulates across databases and candidates,
and closed_under_rules is the closure check vud.revision.rationality_report
ran before it took closure from construction: every rule instance that
fires in the model, by the join evaluator, has its head there.
EquivalenceVerdict is a NamedTuple, not a dataclass: the benchmark loads
this file by path under a name sys.modules does not hold, and a dataclass
with postponed annotations looks its module up there.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from vud.deletion import Branch, Clause, Tableau, transform_rules
from vud.explain import local_explanations
from vud import insertion
from vud.deletion import deletion_candidates
from vud.insertion import ADD, REMOVE, derivable, normalize_rules
from vud.lang import (
    EQ, Atom, Database, Literal, NotStratifiableError, Rule, SearchLog, Transaction, breadth_first,
    ground_program, is_variable, unique,
)
from vud.revision import CONTRACTION_GUARANTEES, REVISION_GUARANTEES, contract, rationality_report, revise
from vud.semantics import build_proof_tree, check_ic, firing_instances, fixpoint_model, least_model, reduct


def _ground_instances(rule: Rule, consts: Sequence[str]) -> list[Rule]:
    names = sorted(rule.variables())
    if not names:
        return [rule]
    out = []
    for combo in itertools.product(consts, repeat=len(names)):
        out.append(rule.substitute(dict(zip(names, combo))))
    return out


def _eq_truth(lit: Literal) -> bool:
    same = lit.atom.args[0] == lit.atom.args[1]
    return same != lit.negated


def _body_holds(body: Iterable[Literal], model: set[Atom]) -> bool:
    for lit in body:
        if lit.atom.pred == EQ:
            if not _eq_truth(lit):
                return False
        elif (lit.atom in model) == lit.negated:
            return False
    return True


def _peel_strata(rules: Sequence[Rule]) -> list[set[str]]:
    """Stratification by peeling: settle predicate groups whose negative
    dependencies are already settled, mutual positive recursion allowed."""
    heads = {r.head.pred for r in rules if r.head is not None and r.body}
    pos: dict[str, set[str]] = {h: set() for h in heads}
    neg: dict[str, set[str]] = {h: set() for h in heads}
    for r in rules:
        if r.head is None or not r.body:
            continue
        for lit in r.body:
            if lit.atom.pred == EQ:
                continue
            (neg if lit.negated else pos)[r.head.pred].add(lit.atom.pred)
    # base predicates are settled from the start
    settled = {p for h in heads for p in pos[h] | neg[h]} - heads
    strata: list[set[str]] = []
    remaining = set(heads)
    while remaining:
        group = {h for h in remaining if neg[h] <= settled}
        while True:
            pruned = {h for h in group if pos[h] - settled <= group}
            if pruned == group:
                break
            group = pruned
        if not group:
            raise ValueError("not stratifiable")
        strata.append(group)
        settled |= group
        remaining -= group
    return strata


def iterated_strata(rules: Iterable[Rule]) -> tuple[frozenset[str], ...]:
    """Predicate strata, lowest first, as vud.lang.stratify computed them
    before it read them off the dependency components: every level starts
    at 0 and is raised to what each rule asks for until none changes, a
    sweep over every rule per step of the longest chain of dependencies.
    Raises NotStratifiableError when a negative cycle keeps raising them."""
    rules = tuple(rules)
    preds: set[str] = set()
    for r in rules:
        if r.head is not None:
            preds.add(r.head.pred)
        for lit in r.body:
            if lit.atom.pred != EQ:
                preds.add(lit.atom.pred)
    level = {p: 0 for p in preds}
    # levels can only rise len(preds) times before a negative cycle is the
    # only explanation
    for _ in range(len(preds) + 1):
        changed = False
        for r in rules:
            if r.head is None:
                continue
            h = r.head.pred
            for lit in r.body:
                if lit.atom.pred == EQ:
                    continue
                need = level[lit.atom.pred] + (1 if lit.negated else 0)
                if level[h] < need:
                    level[h] = need
                    changed = True
        if not changed:
            break
    else:
        raise NotStratifiableError("negation cycles through a view definition")
    if not preds:
        return (frozenset(),)
    return tuple(frozenset(p for p in preds if level[p] == i) for i in range(max(level.values()) + 1))


def naive_model(rules: Sequence[Rule], facts: Iterable[Atom]) -> frozenset[Atom]:
    """Perfect model by naive repeated application of all ground rules,
    one peeled stratum at a time."""
    return _naive_model(rules, facts, {})


def _naive_model(
    rules: Sequence[Rule], facts: Iterable[Atom], grounded: dict[tuple[str, ...], list[Rule]],
) -> frozenset[Atom]:
    """naive_model, with grounded keeping the ground rules per constant
    set for later calls on the same rules."""
    rules = [r for r in rules if r.head is not None and r.body]
    consts: set[str] = set()
    for r in rules:
        for a in [r.head] + [l.atom for l in r.body]:
            if a is not None:
                consts.update(t for t in a.args if not is_variable(t))
    for a in facts:
        consts.update(a.args)
    key = tuple(sorted(consts))
    if key not in grounded:
        grounded[key] = [g for r in rules for g in _ground_instances(r, key)]
    ground = grounded[key]
    model = set(facts)
    for stratum in _peel_strata(rules):
        while True:
            added = False
            for r in ground:
                assert r.head is not None
                if r.head.pred in stratum and r.head not in model and _body_holds(r.body, model):
                    model.add(r.head)
                    added = True
            if not added:
                break
    return frozenset(model)


def _constants(rules: Iterable[Rule], facts: Iterable[Atom]) -> set[str]:
    consts: set[str] = set()
    for r in rules:
        for a in ([r.head] if r.head is not None else []) + [l.atom for l in r.body]:
            consts.update(t for t in a.args if not is_variable(t))
    for a in facts:
        consts.update(a.args)
    return consts


def grounded_fixpoint_model(
    rules: Sequence[Rule], facts: Iterable[Atom], universe: Iterable[str] | None = None
) -> frozenset[Atom]:
    """Perfect model over the rules grounded eagerly on the universe, each
    stratum run semi-naively over the ground instances."""
    rules = tuple(r for r in rules if r.head is not None and r.body)
    facts = set(facts)
    consts = set(universe) if universe is not None else _constants(rules, facts)
    ground = ground_program(rules, consts)
    strata = iterated_strata(rules)
    level = {p: i for i, s in enumerate(strata) for p in s}
    model: set[Atom] = set(facts)
    for s_idx, stratum in enumerate(strata):
        s_rules = []
        for r in ground:
            assert r.head is not None
            if r.head.pred not in stratum:
                continue
            same = tuple(
                l.atom
                for l in r.body
                if not l.negated and l.atom.pred != EQ and level.get(l.atom.pred, 0) == s_idx
            )
            s_rules.append((r, same))
        delta: set[Atom] = set()
        first = True
        while True:
            new: set[Atom] = set()
            for r, same in s_rules:
                if not first and (not same or not any(a in delta for a in same)):
                    continue
                assert r.head is not None
                if r.head in model or r.head in new:
                    continue
                if _body_holds(r.body, model):
                    new.add(r.head)
            if not new:
                break
            model |= new
            delta = new
            first = False
    return frozenset(model)


def grounded_check_ic(db: Database, model: frozenset[Atom]) -> tuple[Rule, ...]:
    """Ground denial instances whose body holds, in grounding order."""
    consts = _constants(db.rules, model)
    return tuple(d for d in ground_program(db.ic, consts) if _body_holds(d.body, set(model)))


def grounded_deletion_program(db: Database, model: frozenset[Atom]) -> tuple[Clause, ...]:
    """Contrapositives of the ground rules that fire, found by grounding
    every rule over the universe and keeping the instances that hold."""
    fired = [
        r
        for r in reduct(db.idb, model, db.universe())
        if all(l.atom in model for l in r.body)
    ]
    return transform_rules(fired)


def pivoted_program(db: Database) -> tuple[Clause, ...]:
    """Every ground rule and denial pivoted on the model: atoms true in it
    move across the arrow negated, atoms false in it stay in place.  The
    materialized variant's program before it kept only the clauses a delete
    request can apply: the firing instances and the violated denials."""
    model = least_model(db)
    out: list[Clause] = []
    for r in reduct(db.idb + db.ic, model, db.universe()):
        head: list[Literal] = []
        body: list[Literal] = []
        body_tail: list[Literal] = []
        if r.head in model:
            body_tail.append(Literal(r.head, negated=True))
        elif r.head is not None:
            head.append(Literal(r.head))
        for lit in r.body:
            if lit.atom in model:
                head.append(Literal(lit.atom, negated=True))
            else:
                body.append(lit)
        out.append(Clause(tuple(head), tuple(body + body_tail)))
    return tuple(out)


def stable_models(rules: Sequence[Rule], facts: Iterable[Atom]) -> list[frozenset[Atom]]:
    """All stable models by guess-and-check over subsets of the ground base.

    Only usable for small ground programs; asserts the base stays tiny.
    For a stratified program the result is a single model, which makes this
    an independent check on stratified evaluation.
    """
    facts = set(facts)
    consts: set[str] = set()
    for r in rules:
        for a in ([r.head] if r.head else []) + [l.atom for l in r.body]:
            consts.update(t for t in a.args if not is_variable(t))
    for a in facts:
        consts.update(a.args)
    ground: list[Rule] = []
    for r in rules:
        if r.head is None:
            continue
        ground.extend(_ground_instances(r, sorted(consts)))
    base: set[Atom] = set(facts)
    for r in ground:
        if r.head is not None:
            base.add(r.head)
        for lit in r.body:
            if lit.atom.pred != EQ:
                base.add(lit.atom)
    base_list = sorted(base)
    assert len(base_list) <= 20, "guess-and-check oracle restricted to tiny programs"
    out = []
    for bits in itertools.product((False, True), repeat=len(base_list)):
        guess = {a for a, b in zip(base_list, bits) if b}
        if not facts <= guess:
            continue
        # reduct: drop rules whose negative part clashes with the guess,
        # then take the positive least model
        reduct = []
        for r in ground:
            ok = True
            for lit in r.body:
                if lit.atom.pred == EQ:
                    if not _eq_truth(lit):
                        ok = False
                elif lit.negated and lit.atom in guess:
                    ok = False
            if ok:
                reduct.append((r.head, [l.atom for l in r.body if not l.negated and l.atom.pred != EQ]))
        lm = set(facts)
        changed = True
        while changed:
            changed = False
            for head, body in reduct:
                if head not in lm and all(a in lm for a in body):
                    lm.add(head)
                    changed = True
        if lm == guess:
            out.append(frozenset(guess))
    return out


def minimal_sets(family: Iterable[frozenset]) -> list[frozenset]:
    """vud.explain.minimal_members as a loop of its own: the subset-minimal
    members, smallest first, ties broken lexically."""
    fam = sorted(set(family), key=lambda s: (len(s), sorted(s)))
    out: list[frozenset] = []
    for s in fam:
        if not any(m < s for m in out):
            out.append(s)
    return out


def antichain_pairwise(family: Sequence) -> list:
    """vud.lang.antichain with every member compared with every other: the
    members of a family of distinct sets or transactions with no other
    member below them, in their given order."""
    return [t for t in family if not any(o is not t and o <= t for o in family)]


def subset_explanations(idb: Sequence[Rule], universe: Iterable[Atom], goal: Atom) -> list[frozenset[Atom]]:
    """Every subset of candidate base facts from which the goal follows."""
    atoms = sorted(set(universe))
    out = []
    for n in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, n):
            if goal in naive_model(idb, combo):
                out.append(frozenset(combo))
    return out


# --- propositional clause programs with signed literals ------------------
#
# A clause is (head, body), both tuples of Literals, read as
# "conjunction of body implies disjunction of head".  A candidate model is
# a set of asserted literals; the clause is satisfied when its body being
# contained in the set forces some head literal into the set.

SignedClause = tuple[tuple[Literal, ...], tuple[Literal, ...]]


def _consistent(lits: frozenset[Literal]) -> bool:
    return not any(l.complement() in lits for l in lits)


def clause_models(clauses: Sequence[SignedClause]) -> list[frozenset[Literal]]:
    """All consistent assertion sets over the head-literal universe that
    satisfy every clause."""
    universe = sorted({l for head, _ in clauses for l in head})
    out = []
    for bits in itertools.product((False, True), repeat=len(universe)):
        cand = frozenset(l for l, b in zip(universe, bits) if b)
        if not _consistent(cand):
            continue
        ok = True
        for head, body in clauses:
            if set(body) <= cand and not set(head) & cand:
                ok = False
                break
        if ok:
            out.append(cand)
    return out


def saturated_sets(clauses: Sequence[SignedClause]) -> list[frozenset[Literal]]:
    """Open saturated literal sets reachable by first-applicable expansion.

    Breadth-first over literal sets; mirrors the branch semantics of the
    tableau builder without sharing its tree bookkeeping.
    """
    start: frozenset[Literal] = frozenset()
    queue = deque([start])
    seen = {start}
    finished: list[frozenset[Literal]] = []
    while queue:
        lits = queue.popleft()
        chosen = None
        for head, body in clauses:
            if set(body) <= lits and not set(head) & lits:
                chosen = (head, body)
                break
        if chosen is None:
            finished.append(lits)
            continue
        head, _ = chosen
        if not head:
            continue  # closed by an empty-head clause
        for disj in head:
            if disj.complement() in lits:
                continue  # closed child
            child = lits | {disj}
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return finished


def brute_transactions(
    idb: Sequence[Rule],
    ic: Sequence[Rule],
    edb: frozenset[Atom],
    candidates: Iterable[Atom],
    inserts: Sequence[Atom] = (),
    deletes: Sequence[Atom] = (),
    max_change: int = 3,
) -> list[tuple[frozenset[Atom], frozenset[Atom]]]:
    """Minimal (additions, removals) pairs realising the request, found by
    trying every combination up to max_change total changes."""
    adds_pool = sorted(set(candidates) - edb)
    dels_pool = sorted(edb)
    found: list[tuple[frozenset[Atom], frozenset[Atom]]] = []
    combos = []
    for na in range(max_change + 1):
        for nd in range(max_change + 1 - na):
            for adds in itertools.combinations(adds_pool, na):
                for dels in itertools.combinations(dels_pool, nd):
                    combos.append((frozenset(adds), frozenset(dels)))
    combos.sort(key=lambda p: (len(p[0]) + len(p[1]), sorted(p[0]), sorted(p[1])))
    grounded: dict[tuple[str, ...], list[Rule]] = {}  # idb's ground rules
    for adds, dels in combos:
        if any(a <= adds and d <= dels for a, d in found):
            continue
        model = _naive_model(idb, (edb | adds) - dels, grounded)
        if not all(a in model for a in inserts):
            continue
        if any(a in model for a in deletes):
            continue
        if any(_body_holds(r.body, set(model)) for r in _ground_ics(ic, model, edb | adds)):
            continue
        found.append((adds, dels))
    return found


def base_atoms(db: Database, constants: Iterable[str]) -> list[Atom]:
    """Every atom of db's base predicates over the constants, a candidate
    pool for brute_transactions."""
    consts = sorted(constants)
    return [
        Atom(pred, args)
        for pred in sorted(db.base_predicates)
        for args in itertools.product(consts, repeat=db.arities[pred])
    ]


def _ground_ics(ic: Sequence[Rule], model: frozenset[Atom], extra: frozenset[Atom]) -> list[Rule]:
    consts: set[str] = set()
    for a in model | extra:
        consts.update(a.args)
    for r in ic:
        for lit in r.body:
            consts.update(t for t in lit.atom.args if not is_variable(t))
    out: list[Rule] = []
    for r in ic:
        out.extend(_ground_instances(r, sorted(consts)))
    return out


def is_hitting_set(candidate: Iterable, family: Iterable[Collection]) -> bool:
    """True when candidate draws only from the family's union and meets
    every non-empty member."""
    cand = set(candidate)
    fam = [set(s) for s in family]
    union: set = set()
    for s in fam:
        union |= s
    if not cand <= union:
        return False
    return all(cand & s for s in fam if s)


def minimal_hitting_sets_sweep(family: Iterable[Collection]) -> tuple[frozenset, ...]:
    """Same result as vud.hitting.minimal_hitting_sets by exhaustive
    size-ascending enumeration over subsets of the union; once a set is
    found, its supersets are skipped, so everything kept is minimal."""
    fam = [frozenset(s) for s in family if s]
    union = sorted(frozenset().union(*fam)) if fam else []
    found: list[frozenset] = []
    for n in range(len(union) + 1):
        for combo in itertools.combinations(union, n):
            cand = frozenset(combo)
            if any(f <= cand for f in found):
                continue
            if all(cand & s for s in fam):
                found.append(cand)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def minimal_hitting_sets_bb(family: Iterable[Collection]) -> tuple[frozenset, ...]:
    """Same result as vud.hitting.minimal_hitting_sets via branch and bound:
    branch on the elements of a smallest unhit member, prune supersets of
    solutions."""
    fam = [frozenset(s) for s in family if s]
    found: list[frozenset] = []

    def search(partial: frozenset) -> None:
        if any(f <= partial for f in found):
            return
        unhit = [s for s in fam if not s & partial]
        if not unhit:
            found.append(partial)
            # a new solution can make earlier supersets non-minimal
            found[:] = [f for f in found if not partial < f]
            return
        pivot = min(unhit, key=lambda s: (len(s), sorted(s)))
        for elem in sorted(pivot):
            search(partial | {elem})

    search(frozenset())
    dedup = []
    for f in sorted(found, key=lambda s: (len(s), sorted(s))):
        if f not in dedup and not any(g <= f and g != f for g in dedup):
            dedup.append(f)
    return tuple(dedup)


def edb_cuts(db: Database, atom: Atom) -> tuple[frozenset[Atom], ...]:
    """Deletion candidates the explanation way: pick one stored fact out of
    every proof, then keep the subset-minimal picks.  Agrees with the
    tableau route of vud.deletion.deletion_candidates."""
    family = local_explanations(db, atom)
    if not family:
        return ()
    picks = {frozenset(choice) for choice in itertools.product(*(sorted(s) for s in family))}
    return tuple(minimal_sets(picks))


# --- proof trees --------------------------------------------------------------


class _ByHead(dict):
    def __missing__(self, atom: Atom) -> tuple[Rule, ...]:
        return ()


def grounded_instances(rules: Iterable[Rule], consts: Iterable[str]) -> dict[Atom, list[Rule]]:
    """ground_program over the constants, grouped by head in the order it
    lists them; an atom no instance has gives ()."""
    out = _ByHead()
    for r in ground_program(rules, consts):
        out.setdefault(r.head, []).append(r)
    return out


def grounded_closed(db: Database, model: frozenset[Atom]) -> bool:
    """Does every ground instance of db's rules over its constants whose
    body holds in model have its head there?"""
    return all(
        head in model or not any(_body_holds(r.body, model) for r in instances)
        for head, instances in grounded_instances(db.idb, db.universe()).items()
    )


# --- changed databases --------------------------------------------------------


def rebuilt_database(db: Database, facts: Iterable[Atom]) -> Database:
    """db's rules and constraints in their order, then the facts sorted, as
    one new clause list."""
    kept = tuple(r for r in db.rules if not r.is_fact)
    new = tuple(Rule(a) for a in sorted(set(facts)))
    return Database(kept + new)


# --- put-one-back loops -------------------------------------------------------


def strongly_minimal_loop(db: Database, atom: Atom, candidate: frozenset[Atom]) -> bool:
    """vud.deletion.strongly_minimal: the cut works, and putting back any
    one removed fact restores the atom."""
    base = db.edb - candidate
    universe = db.universe()
    if atom in fixpoint_model(db.idb, base, universe):
        return False
    for s in candidate:
        if atom not in fixpoint_model(db.idb, base | {s}, universe):
            return False
    return True


def necessary_loop(db: Database, atom: Atom, tx: Transaction) -> bool:
    """vud.insertion._necessary: undoing any one addition or removal loses
    the goal or breaks a constraint."""
    for x in sorted(tx.additions):
        slim = rebuilt_database(db, (db.edb | (tx.additions - {x})) - tx.removals)
        if derivable(slim, atom) and not check_ic(slim):
            return False
    for x in sorted(tx.removals):
        slim = rebuilt_database(db, (db.edb | tx.additions) - (tx.removals - {x}))
        if derivable(slim, atom) and not check_ic(slim):
            return False
    return True


def delete_strong_relevance_loop(db: Database, atom: Atom, tx: Transaction) -> bool:
    """The delete audit's strong relevance in vud.revision.rationality_report:
    the atom is gone (or nothing was removed), and putting back any one
    removal, additions ignored, restores it."""
    after = least_model(rebuilt_database(db, (db.edb | tx.additions) - tx.removals))
    pivotal = True
    for r in sorted(tx.removals):
        restored = rebuilt_database(db, db.edb - (tx.removals - {r}))
        if atom not in least_model(restored):
            pivotal = False
            break
    return (atom not in after or not tx.removals) and pivotal


def insert_strong_relevance_loop(db: Database, atom: Atom, tx: Transaction) -> bool:
    """The insert audit's strong relevance: undoing any one addition, the
    removals kept, loses the atom."""
    for a in sorted(tx.additions):
        slim = rebuilt_database(db, (db.edb | (tx.additions - {a})) - tx.removals)
        if atom in least_model(slim):
            return False
    return True


# --- deletion tableau -----------------------------------------------------------


def scanning_tableau(clauses: Sequence[Clause], request: Clause) -> Tableau:
    """vud.deletion.build_tableau over literal sets: every expansion scans
    the clauses for the first whose body is on the branch and whose head
    is not."""
    program = (request,) + tuple(clauses)
    stack: list[tuple[Literal, ...]] = [()]
    branches: list[Branch] = []
    peak = 0
    expansions = 0
    while stack:
        peak = max(peak, len(stack))
        order = stack.pop()
        lits = frozenset(order)
        chosen = None
        for c in program:
            if set(c.body) <= lits and not set(c.head) & lits:
                chosen = c
                break
        if chosen is None:
            branches.append(Branch(order, closed=False))
            continue
        expansions += 1
        if not chosen.head:
            branches.append(Branch(order, closed=True))
            continue
        children: list[tuple[Literal, ...]] = []
        for disjunct in chosen.head:
            if disjunct.complement() in lits:
                branches.append(Branch(order + (disjunct,), closed=True))
            else:
                children.append(order + (disjunct,))
        stack.extend(reversed(children))
    return Tableau(tuple(branches), peak, expansions)


def literal_deletions(branch: Branch, edb: frozenset[Atom]) -> frozenset[Atom]:
    """The stored facts a branch wants gone, read off its literals, as
    vud.deletion.branch_deletions did before it read branch masks."""
    return frozenset(l.atom for l in branch.order if l.negated and l.atom in edb)


def normalized_model(db: Database) -> frozenset[Atom]:
    """Model of the normalised rules over the stored facts, helper atoms
    included, evaluated from scratch."""
    return fixpoint_model(normalize_rules(db.idb), db.edb, db.universe())


def search_model(db: Database) -> frozenset[Atom]:
    """The model vud.insertion's world search read before it decided helper
    atoms on demand: least_model(db) plus the helper atoms, derived by the
    helper rules alone over it.  Helper rules negate only predicates of db
    and never reach themselves, so this is the model of the normalised
    rules over db's facts."""
    helpers = insertion._form(db).helpers
    model = least_model(db)
    return fixpoint_model(helpers, model, db.universe()) if helpers else model


def whole_key_worlds(db: Database, goal: Atom, log: SearchLog | None = None) -> tuple[Transaction, ...]:
    """vud.insertion.insertion_worlds as it was before worlds that differ
    only in alternative-helper atoms were merged: a world is known by its
    whole transaction and its pending view changes, and the options of a
    view atom are listed again on every expansion.  Constants and witness
    names are the request's, taken as insertion_worlds takes them."""
    if log is None:
        log = SearchLog.for_request(db, (goal,))
    defs = insertion._form(db).definitions
    model = search_model(db)
    universe = tuple(sorted(log.constants))
    names = insertion._unused("new_%d", log.constants)
    fresh = {pred: [next(names) for _ in defn.alternatives] for pred, defn in defs.items()}

    def views(additions: frozenset[Atom], removals: frozenset[Atom]) -> tuple[tuple[str, Atom], ...]:
        pairs = [(ADD, a) for a in additions] + [(REMOVE, a) for a in removals]
        return tuple(sorted(p for p in pairs if p[1].pred in defs))

    def step(world, depth: int) -> Callable[[], Iterator] | None:
        tx, pending = world
        return (lambda: expand(tx, pending)) if pending else None

    def expand(tx: Transaction, pending) -> Iterator:
        (sign, atom), rest = pending[0], pending[1:]
        if sign == ADD:
            options = insertion._options_for_add(defs[atom.pred], atom, model.__contains__, universe, fresh[atom.pred])
        else:
            options = [Transaction(frozenset(), cut) for cut in deletion_candidates(db, atom, log)]
        for option in options:
            child = tx.merge(option)
            if child.consistent:
                yield child, rest + views(option.additions - tx.additions, option.removals - tx.removals)

    seed = Transaction(frozenset({goal}))
    finished = breadth_first(
        [(seed, views(seed.additions, seed.removals))], step, log,
        key=lambda w: (w[0], frozenset(w[1])),
    )
    return tuple(tx for tx, _ in finished)


def delta_add(atom: Atom) -> Atom:
    return Atom(ADD + atom.pred, atom.args)


def delta_remove(atom: Atom) -> Atom:
    return Atom(REMOVE + atom.pred, atom.args)


def propagation_rules(db: Database) -> tuple[Clause, ...]:
    """The delta program read off the normalised rules, for display only:
    +p adds p, -p removes it.  Heads are alternatives (disjunctive), bodies
    mix the triggering delta, already-stored source atoms, and companion
    deltas.  The world search in vud.insertion.insertion_worlds applies
    exactly these cases to transactions, instantiating variables outside
    the rule head jointly over the constants plus a fresh witness.
    """
    out: list[Clause] = []
    for pred, defn in insertion._form(db).definitions.items():
        trigger = Literal(delta_add(defn.head))
        if len(defn.alternatives) > 1:
            head = tuple(Literal(delta_add(b[0].atom)) for b in defn.alternatives)
            out.append(Clause(head, (trigger,)))
            continue
        body = defn.alternatives[0]
        positives = [l for l in body if not l.negated and l.atom.pred != EQ]
        for lit in body:
            if lit.atom.pred == EQ:
                continue
            others = tuple(o for o in positives if o is not lit)
            if lit.negated:
                out.append(Clause((Literal(delta_remove(lit.atom)),), (trigger, lit.complement())))
            else:
                out.append(Clause((Literal(delta_add(lit.atom)),), (trigger,) + others))
                for other in others:
                    # companion case: both subgoals absent, inserted together
                    out.append(
                        Clause(
                            (Literal(delta_add(lit.atom)),),
                            (trigger, Literal(delta_add(other.atom))),
                        )
                    )
    return tuple(out)


def tree_missing_support(db: Database, atom: Atom) -> tuple[frozenset[Atom], ...]:
    return unique(build_proof_tree(db, atom, hypothesize=True).hypothesised_sets())


class EquivalenceVerdict(NamedTuple):
    equivalent: bool
    reason: str

    def __bool__(self) -> bool:
        return self.equivalent


def kb_equivalent(db1: Database, db2: Database) -> EquivalenceVerdict:
    """Do the two databases hold the same beliefs?

    Compared over the joint constant universe: same derivable atoms and the
    same constraint status.  Rule syntax is allowed to differ.
    """
    universe = db1.universe() | db2.universe()
    m1 = fixpoint_model(db1.idb, db1.edb, universe)
    m2 = fixpoint_model(db2.idb, db2.edb, universe)
    if m1 != m2:
        witness = sorted(map(str, m1 ^ m2))[0]
        return EquivalenceVerdict(False, "models differ on %s" % witness)
    if bool(check_ic(db1)) != bool(check_ic(db2)):
        return EquivalenceVerdict(False, "constraint status differs")
    return EquivalenceVerdict(True, "same beliefs and constraint status")


def closed_under_rules(db: Database, model: frozenset[Atom]) -> bool:
    return all(r.head in model for r in firing_instances(db.idb, model, db.universe()))


def guarantee_failures(
    db: Database, atom: Atom, tx: Transaction, operation: str
) -> tuple[str, ...]:
    """Which of the postulates guaranteed for this operation does the
    transaction break?  Empty means fully rational."""
    wanted = CONTRACTION_GUARANTEES if operation == "delete" else REVISION_GUARANTEES
    report = rationality_report(db, atom, tx, operation)
    return tuple(k for k in wanted if not report[k])


def preservation(db1: Database, db2: Database, atom: Atom, operation: str) -> bool:
    """Equivalent knowledge bases must offer the same candidate changes."""
    if not kb_equivalent(db1, db2):
        return True
    change = contract if operation == "delete" else revise
    return set(change(db1, atom)) == set(change(db2, atom))
