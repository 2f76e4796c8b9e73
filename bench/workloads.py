"""Seeded request pools for the benchmark workloads.

A pool is a list of database texts plus a list of rounds; a round is a short
fixed sequence of requests against those databases.  Every request names
the text it runs against, so each one starts from an unchanged base
database.  Everything here is a pure function of (workload, seed): the
random generators are seeded with strings, which Python hashes with
SHA-512 whatever PYTHONHASHSEED says.

Goals that depend on the current model (a present view atom to delete, an
absent one to insert) are chosen with the naive oracle from tests/oracles.py,
never with the program under test.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from vud.lang import Atom, Database, format_database
from vud.randgen import GeneratorConfig, chain_database, random_database

OPS = ("query", "insert", "delete", "revise", "contract")

# Rounds per pool.  A timed run makes whole passes over its pool, so every
# run measures the same requests; each request's latency is its median pass.
# Chain's count is a multiple of six, so that every size and variant occurs
# equally often, and gives at least 100 requests of each op type.
POOL_ROUNDS = {"chain": 54, "corpus": 480}

# Rounds replayed untraced and then traced by a --trace 1 run.  Fixed, so
# per-layer counts of one seed repeat exactly.
TRACE_ROUNDS = {"chain": 42, "corpus": 300}

# No body-only variables and no positive cycles between views: with either,
# some requests run the insertion world search into its 20000-world budget,
# for seconds to minutes per request (see WORKLOADS.md); the corpus budget
# probe below keeps that defect in view.
CORPUS_CONFIG = GeneratorConfig(
    view_count=4,
    base_count=4,
    constant_count=4,
    extra_body_vars=0,
    negation=True,
    constraints=True,
    acyclic=True,
)

# Long single-support chain for the deep probe: proof trees nest one level
# per link, so this depth exceeds Python's default recursion limit.
DEEP_PROBE_LENGTH = 600


@dataclass(frozen=True)
class Request:
    op: str  # one of OPS
    db: int  # index into Pool.texts
    goal: Atom
    variant: str = "minimal"  # view_update variant; unused by the other ops


@dataclass(frozen=True)
class Pool:
    texts: tuple[str, ...]
    rounds: tuple[tuple[Request, ...], ...]


class _Builder:
    def __init__(self) -> None:
        self.texts: list[str] = []
        self.rounds: list[tuple[Request, ...]] = []

    def add_text(self, text: str) -> int:
        self.texts.append(text)
        return len(self.texts) - 1

    def pool(self) -> Pool:
        return Pool(tuple(self.texts), tuple(self.rounds))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, index))


# --- chain ------------------------------------------------------------------


def long_chain_text(n: int, drop: int | None = None) -> str:
    """p0 :- a0, p1.  ...  p(n-1) :- a(n-1), pn.  pn :- an.  with every
    a_i stored except a_drop."""
    lines = ["p%d :- a%d, p%d." % (i, i, i + 1) for i in range(n)]
    lines.append("p%d :- a%d." % (n, n))
    lines += ["a%d." % i for i in range(n + 1) if i != drop]
    return "\n".join(lines) + "\n"


def _without(text: str, facts: set[str]) -> str:
    return "".join(line + "\n" for line in text.splitlines() if line not in facts)


# Chain lengths cycle with period three and the deletion variant with
# period two, so every pool covers them in the same proportions; the seed
# picks the removed facts and the query targets.  Queries run on the full
# chains: on a cut chain the model's size, and so query_p90, follows the
# seeded cut position.
TWO_SUPPORT_SIZES = (5, 6, 7)
LONG_SIZES = (12, 18, 24)
VARIANTS = ("minimal", "materialized")


def chain_pool(seed: int) -> Pool:
    """Each round: a two-support chain (randgen.chain_database) and a
    single-support chain, each deleted under the round's variant,
    re-inserted and revised after a seeded fact removal; contraction (of p1
    and p2) only on the two-support chain, whose kernels stay small enough
    for the exhaustive hitting-set sweep."""
    b = _Builder()
    for k in range(POOL_ROUNDS["chain"]):
        rng = _rng("chain", seed, k)
        n2 = TWO_SUPPORT_SIZES[k % 3]
        two = format_database(chain_database(n2))
        cut = rng.randint(1, n2)
        full2 = b.add_text(two)
        cut2 = b.add_text(_without(two, {"a%d." % cut, "b%d." % cut}))
        nl = LONG_SIZES[k % 3]
        drop = rng.randint(0, nl)
        full_l = b.add_text(long_chain_text(nl))
        cut_l = b.add_text(long_chain_text(nl, drop))
        p1, p0 = Atom("p1"), Atom("p0")
        variant = VARIANTS[k % 2]
        b.rounds.append((
            Request("query", full2, Atom("p%d" % rng.randint(1, n2))),
            Request("delete", full2, p1, variant),
            Request("insert", cut2, p1),
            Request("revise", cut2, p1),
            Request("contract", full2, p1),
            Request("contract", full2, Atom("p2")),
            Request("query", full_l, Atom("p%d" % rng.randint(0, nl))),
            Request("delete", full_l, p0, variant),
            Request("insert", cut_l, p0),
            Request("revise", cut_l, p0),
        ))
    return b.pool()


def deep_probe() -> tuple[str, Atom]:
    """View insert of p0 on the long chain with one link's fact removed."""
    return long_chain_text(DEEP_PROBE_LENGTH, DEEP_PROBE_LENGTH // 2), Atom("p0")


# random_database(72) with three constants, one body-only variable per rule
# and view cycles allowed: the corpus kind the workload leaves out.
# Inserting v3(b,a) runs the insertion world search past its 20000-world
# budget in about a second.
BUDGET_PROBE_TEXT = """\
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


def budget_probe() -> tuple[str, Atom]:
    """View insert of v3(b,a) on BUDGET_PROBE_TEXT."""
    return BUDGET_PROBE_TEXT, Atom("v3", ("b", "a"))


# Probes a --trace 1 run makes once, outside the traced requests, each a
# single view insert that fails at the seed commit: name -> (workload,
# maker).  A failure is reported as probe.<name>.failed, not as a failed
# request.
PROBES = {
    "deep_chain": ("chain", deep_probe),
    "corpus_budget": ("corpus", budget_probe),
}


# --- corpus -----------------------------------------------------------------


def _view_atoms(db: Database) -> list[Atom]:
    arity: dict[str, int] = {}
    for r in db.idb:
        assert r.head is not None
        arity[r.head.pred] = len(r.head.args)
    consts = sorted(db.universe())
    return [
        Atom(p, args)
        for p in sorted(arity)
        for args in itertools.product(consts, repeat=arity[p])
    ]


def corpus_pool(seed: int, naive_model) -> Pool:
    """One random stratified database per round (negation and denials),
    with a query, an insert and a delete under both variants, a revision
    and a contraction.

    The databases are random_database(0), random_database(1), ... in that
    order, skipping those without a ground view atom, whatever the seed;
    the seed picks the goals.  A seeded population made the percentiles of
    runs with different seeds differ by up to 15 %, more than the bounds.
    The revision goal is picked with a fixed seed: revise's p90 falls in a
    sparse tail, and with seeded goals it moved by up to 25 % between seeds.
    """
    b = _Builder()
    gen_seed = 0
    for k in range(POOL_ROUNDS["corpus"]):
        atoms: list[Atom] = []
        while not atoms:
            db = random_database(gen_seed, CORPUS_CONFIG)
            atoms = _view_atoms(db)
            gen_seed += 1
        rng = _rng("corpus", seed, k)
        idx = b.add_text(format_database(db))
        model = naive_model(db.idb, db.edb)
        present = [a for a in atoms if a in model] or atoms
        absent = [a for a in atoms if a not in model] or atoms
        ins, dele = rng.choice(absent), rng.choice(present)
        rev = _rng("corpus", 0, k).choice(absent)
        b.rounds.append((
            Request("query", idx, rng.choice(atoms)),
            Request("insert", idx, ins, "minimal"),
            Request("insert", idx, ins, "materialized"),
            Request("delete", idx, dele, "minimal"),
            Request("delete", idx, dele, "materialized"),
            Request("revise", idx, rev),
            Request("contract", idx, dele),
        ))
    return b.pool()


def build_pool(workload: str, seed: int, naive_model) -> Pool:
    if workload == "chain":
        return chain_pool(seed)
    if workload == "corpus":
        return corpus_pool(seed, naive_model)
    raise ValueError("unknown workload %r" % workload)


def pool_to_json(pool: Pool) -> str:
    rounds = [[[r.op, r.db, r.goal.pred, list(r.goal.args), r.variant] for r in rnd] for rnd in pool.rounds]
    return json.dumps({"texts": list(pool.texts), "rounds": rounds})


def pool_from_json(text: str) -> Pool:
    data = json.loads(text)
    rounds = tuple(
        tuple(Request(op, db, Atom(pred, tuple(args)), variant) for op, db, pred, args, variant in rnd)
        for rnd in data["rounds"]
    )
    return Pool(tuple(data["texts"]), rounds)
