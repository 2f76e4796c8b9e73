"""The put-one-back test (Transaction.undo_each) in its four users, against
the loops it replaced, on seeded random databases."""

import itertools
import random

import pytest

from vud.deletion import branch_deletions, build_tableau, delete_request, deletion_program, strongly_minimal
from vud.insertion import _necessary, insertion_candidates
from vud.lang import Atom, Transaction
from vud.randgen import GeneratorConfig, random_database
from vud.revision import rationality_report
from vud.semantics import least_model

from oracles import (
    delete_strong_relevance_loop,
    insert_strong_relevance_loop,
    necessary_loop,
    strongly_minimal_loop,
)

# acyclic, with one body-only variable: insertion through view cycles can
# run into the search budget, which would only slow the comparison down
CONFIGS = [
    GeneratorConfig(acyclic=True, extra_body_vars=1),
    GeneratorConfig(acyclic=True, extra_body_vars=1, negation=True),
    GeneratorConfig(acyclic=True, extra_body_vars=1, constraints=True),
    GeneratorConfig(acyclic=True, extra_body_vars=1, negation=True, constraints=True),
]


def _ground_atoms(db, preds):
    """Every atom of the predicates over the database's constants."""
    consts = sorted(db.universe())
    return [
        Atom(p, args)
        for p in sorted(preds)
        for args in itertools.product(consts, repeat=db.arities[p])
    ]


def _random_transactions(db, rng, count):
    """Consistent changes mixing additions of absent base atoms and
    removals of stored facts, the empty change among them."""
    absent = [a for a in _ground_atoms(db, db.base_predicates) if a not in db.edb]
    stored = sorted(db.edb)
    txs = [Transaction()]
    for _ in range(count):
        adds = rng.sample(absent, rng.randint(0, min(3, len(absent))))
        dels = rng.sample(stored, rng.randint(0, min(3, len(stored))))
        txs.append(Transaction(frozenset(adds), frozenset(dels)))
    return txs


@pytest.mark.parametrize("cfg", CONFIGS, ids=["plain", "negation", "denials", "negation+denials"])
def test_put_back_users_match_their_loops(cfg):
    answers = {"minimal": set(), "necessary": set(), "delete": set(), "insert": set()}
    for seed in range(25):
        db = random_database(seed, cfg)
        rng = random.Random(seed)
        model = least_model(db)
        views = _ground_atoms(db, db.view_predicates)
        goals = rng.sample(views, min(4, len(views)))
        for atom in goals:
            txs = _random_transactions(db, rng, 6)
            if atom in model:
                tableau = build_tableau(deletion_program(db), delete_request(atom))
                cuts = set(branch_deletions(tableau, db.edb)[:20])
                cuts |= {tx.removals for tx in txs}
                for cut in sorted(cuts, key=sorted):
                    got = strongly_minimal(db, atom, cut)
                    assert got == strongly_minimal_loop(db, atom, cut), (seed, atom, cut)
                    answers["minimal"].add(got)
                txs += [Transaction(frozenset(), cut) for cut in cuts]
            else:
                txs += list(insertion_candidates(db, atom, minimality=False))
            for tx in txs:
                got = _necessary(db, atom, tx)
                assert got == necessary_loop(db, atom, tx), (seed, atom, tx)
                answers["necessary"].add(got)
                for operation, loop in (
                    ("delete", delete_strong_relevance_loop),
                    ("insert", insert_strong_relevance_loop),
                ):
                    got = rationality_report(db, atom, tx, operation)["strong-relevance"]
                    assert got == loop(db, atom, tx), (seed, atom, tx, operation)
                    answers[operation].add(got)
    # every user gave both answers somewhere, so neither side is trivial
    assert all(seen == {False, True} for seen in answers.values()), answers
