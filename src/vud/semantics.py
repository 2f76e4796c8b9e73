"""Model computation and goal-directed proof trees.

The model of a database is the perfect model of its stratified rules: strata
are evaluated bottom up, each by semi-naive iteration, with negative literals
looked up in the finished lower strata.  Proof search is resolution over the
ground program with leftmost literal selection; view atoms unfold through
every matching rule in program order, base atoms resolve against the stored
facts, and negative literals are settled against the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .lang import (
    EQ,
    Atom,
    Database,
    Literal,
    Rule,
    ground_program,
    is_variable,
    stratify,
)


def eq_holds(lit: Literal) -> bool:
    same = lit.atom.args[0] == lit.atom.args[1]
    return same != lit.negated


def literal_holds(lit: Literal, model: frozenset[Atom] | set[Atom]) -> bool:
    if lit.atom.pred == EQ:
        return eq_holds(lit)
    return (lit.atom in model) != lit.negated


def body_holds(body: Iterable[Literal], model: frozenset[Atom] | set[Atom]) -> bool:
    return all(literal_holds(l, model) for l in body)


def _collect_constants(rules: Iterable[Rule], facts: Iterable[Atom]) -> set[str]:
    consts: set[str] = set()
    for r in rules:
        for a in ([r.head] if r.head is not None else []) + [l.atom for l in r.body]:
            consts.update(t for t in a.args if not is_variable(t))
    for a in facts:
        consts.update(a.args)
    return consts


def fixpoint_model(
    rules: Sequence[Rule],
    facts: Iterable[Atom],
    universe: Iterable[str] | None = None,
) -> frozenset[Atom]:
    """Perfect model of the given rules over the given facts.

    Rules are grounded eagerly, stratified by predicate, and each stratum is
    run to fixpoint semi-naively: after the first round a rule refires only
    when one of its same-stratum positive subgoals was derived in the
    previous round.
    """
    rules = tuple(r for r in rules if r.head is not None and r.body)
    facts = set(facts)
    consts = set(universe) if universe is not None else _collect_constants(rules, facts)
    ground = ground_program(rules, consts)
    strata = stratify(rules)
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
                if body_holds(r.body, model):
                    new.add(r.head)
            if not new:
                break
            model |= new
            delta = new
            first = False
    return frozenset(model)


def least_model(db: Database) -> frozenset[Atom]:
    return fixpoint_model(db.idb, db.edb, db.universe())


def check_ic(db: Database, model: frozenset[Atom] | None = None) -> tuple[Rule, ...]:
    """Ground instances of denial constraints whose body holds in the model.

    Empty result means every constraint is satisfied.
    """
    if model is None:
        model = least_model(db)
    consts = _collect_constants(db.rules, model)
    violated = []
    for denial in ground_program(db.ic, consts):
        if body_holds(denial.body, model):
            violated.append(denial)
    return tuple(violated)


def reduct(rules: Sequence[Rule], model: frozenset[Atom], universe: Iterable[str]) -> tuple[Rule, ...]:
    """Ground positive rules left after settling negation against the model.

    A ground instance survives when none of its negative literals clash with
    the model; surviving instances keep only their positive ordinary
    subgoals.  Equality literals are settled on the spot.  Denials pass
    through the same treatment, facts are skipped.
    """
    out: list[Rule] = []
    for r in ground_program([r for r in rules if r.body], universe):
        keep: list[Literal] = []
        ok = True
        for lit in r.body:
            if lit.atom.pred == EQ:
                if not eq_holds(lit):
                    ok = False
                    break
            elif lit.negated:
                if lit.atom in model:
                    ok = False
                    break
            else:
                keep.append(lit)
        if ok:
            out.append(Rule(r.head, tuple(keep)))
    return tuple(out)


# --- resolution trees -----------------------------------------------------


@dataclass(frozen=True)
class ProofLeaf:
    """Terminal branch of a proof tree.

    kind is one of success, failure, loop.  used holds the stored facts the
    branch consumed; assumed holds absent base facts the branch hypothesised
    (only when the tree was built with hypothesize=True).
    """

    kind: str
    used: frozenset[Atom]
    assumed: frozenset[Atom]
    failed_on: Literal | None = None

    @property
    def support(self) -> frozenset[Atom]:
        return self.used | self.assumed


@dataclass(frozen=True)
class ProofNode:
    goal: tuple[Literal, ...]
    selected: Literal | None
    children: tuple["ProofNode", ...] = ()
    leaf: ProofLeaf | None = None


@dataclass(frozen=True)
class ProofTree:
    root: ProofNode
    goal: Atom

    def leaves(self) -> tuple[ProofLeaf, ...]:
        out: list[ProofLeaf] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf is not None:
                out.append(node.leaf)
            stack.extend(reversed(node.children))
        return tuple(out)

    def success_sets(self) -> tuple[frozenset[Atom], ...]:
        """Fact sets consumed by proofs that needed no hypothesised facts,
        left to right, duplicates kept."""
        return tuple(l.used for l in self.leaves() if l.kind == "success" and not l.assumed)

    def hypothesised_sets(self) -> tuple[frozenset[Atom], ...]:
        """Assumption sets of branches that succeed once absent base facts
        are taken on faith."""
        return tuple(l.assumed for l in self.leaves() if l.kind == "success" and l.assumed)

    def proved(self) -> bool:
        return bool(self.success_sets())


def build_proof_tree(
    db: Database,
    goal: Atom,
    hypothesize: bool = False,
    model: frozenset[Atom] | None = None,
) -> ProofTree:
    """Resolution tree for a ground goal atom.

    Negative subgoals are settled against the model, so the tree is only
    meaningful for stratified databases.  With hypothesize=True an absent
    base subgoal is assumed true and recorded instead of failing the branch,
    which turns failed branches into descriptions of what is missing.
    """
    if not goal.is_ground:
        raise ValueError("proof trees require a ground goal, got %s" % goal)
    if model is None:
        model = least_model(db)
    view = db.view_predicates
    consts = db.universe() | set(goal.args)
    ground_idb = ground_program(db.idb, consts)

    # each pending literal carries the chain of view atoms it descends from,
    # so a repeated subgoal is a loop only on its own derivation path and a
    # second occurrence elsewhere in the conjunction still gets expanded.
    # Depth first with an explicit stack, since a proof nests one level per
    # subgoal and long chains go deeper than Python's recursion limit: nodes
    # are recorded in preorder, then built children first.
    start: tuple[tuple[Literal, frozenset[Atom]], ...] = ((Literal(goal), frozenset()),)
    stack = [(start, frozenset(), frozenset(), -1)]
    order: list[tuple[tuple[Literal, ...], Literal | None, ProofLeaf | None, list[int]]] = []
    while stack:
        pending, used, assumed, parent = stack.pop()
        if parent >= 0:
            order[parent][3].append(len(order))
        lit, kind, below = None, None, []
        if not pending:
            kind = "success"
        else:
            (lit, chain), rest = pending[0], pending[1:]
            a = lit.atom
            if a.pred == EQ or lit.negated:
                holds = eq_holds(lit) if a.pred == EQ else a not in model
                below = [(rest, used, assumed)] if holds else []
            elif a.pred in view and a in chain:
                kind = "loop"
            elif a.pred in view:
                deeper = chain | {a}
                below = [
                    (tuple((b, deeper) for b in r.body) + rest, used, assumed)
                    for r in ground_idb
                    if r.head == a
                ]
            elif a in db.edb:
                below = [(rest, used | {a}, assumed)]
            elif a in assumed or hypothesize:
                below = [(rest, used, assumed | {a})]
            if kind is None and not below:
                kind = "failure"
        leaf = None if kind is None else ProofLeaf(kind, used, assumed, failed_on=lit)
        stack.extend((*b, len(order)) for b in reversed(below))
        order.append((tuple(l for l, _ in pending), lit, leaf, []))
    nodes: list[ProofNode] = [None] * len(order)  # type: ignore[list-item]
    for i in reversed(range(len(order))):
        goal_lits, lit, leaf, kids = order[i]
        nodes[i] = ProofNode(goal_lits, lit, tuple(nodes[k] for k in kids), leaf)
    return ProofTree(nodes[0], goal)


def render_proof_tree(tree: ProofTree) -> str:
    """Indented text rendering, one node per line."""
    lines: list[str] = []
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        goal = ", ".join(str(l) for l in node.goal) if node.goal else "[]"
        tag = ""
        if node.leaf is not None:
            tag = " (%s)" % node.leaf.kind
            if node.leaf.kind == "success" and node.leaf.assumed:
                tag = " (success, assuming %s)" % ", ".join(str(a) for a in sorted(node.leaf.assumed))
        lines.append("  " * depth + goal + tag)
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)
