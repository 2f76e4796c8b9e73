"""Answer digests and oracle checks for benchmark requests.

Checks run outside the timed region.  Every answer is recomputed against
the naive evaluator in tests/oracles.py: a query must agree with the naive
model, and the first (chosen) transaction of an update, revision or
contraction must make the goal hold (or vanish) in the naive model of the
changed database without violating any denial (a contraction that changes
nothing is exempt from the denial check).  An unrealizable verdict
or an empty answer family has nothing to replay; the pinned digests of the
default seed cover those.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from vud.engine import UnrealizableError, UpdateResult
from vud.lang import Atom, Database, Transaction


def load_oracles(root: Path):
    """tests/oracles.py of the checkout, imported by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    if spec is None or spec.loader is None:
        raise ImportError("cannot load %s" % path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def answer_text(op: str, answer) -> str:
    """Canonical text of an answer: the full ranked family, or the verdict."""
    if isinstance(answer, BaseException):
        if isinstance(answer, UnrealizableError):
            return "unrealizable"
        return "error:" + type(answer).__name__
    if op == "query":
        return "true" if answer else "false"
    txs = answer.alternatives if isinstance(answer, UpdateResult) else answer
    return "ok:" + ";".join(str(t) for t in txs)


def summarize(op: str, answer) -> tuple[str, object]:
    """The answer's digest and the part of it verify() replays, so the
    answer itself need not be kept: a verdict string, the query's truth
    value, or the chosen transaction (None for an empty family)."""
    text = answer_text(op, answer)
    digest = hashlib.sha256(text.encode()).hexdigest()[:8]
    if isinstance(answer, BaseException):
        return digest, text
    if op == "query":
        return digest, bool(answer)
    if isinstance(answer, UpdateResult):
        if answer.alternatives[0] != answer.chosen:
            return digest, "error:chosen transaction is not the first alternative"
        return digest, answer.chosen
    return digest, (answer[0] if answer else None)


def verify(oracles, op: str, db: Database, goal: Atom, payload) -> str | None:
    """None when a summarized answer checks out, else the reason it does not."""
    if isinstance(payload, str):
        return None if payload == "unrealizable" else payload
    if op == "query":
        expected = goal in oracles.naive_model(db.idb, db.edb)
        return None if payload == expected else "query answered %s, oracle says %s" % (payload, expected)
    if payload is None:
        return None
    tx: Transaction = payload
    edb = (db.edb | tx.additions) - tx.removals
    model = oracles.naive_model(db.idb, edb)
    want = op in ("insert", "revise")
    if (goal in model) != want:
        return "%s %s: goal %s after %s" % (op, goal, "missing" if want else "still derivable", tx)
    # a contraction of an absent atom changes nothing, so it answers for no
    # violation the database already had; every other answer must be
    # consistent
    if op == "contract" and tx.is_empty:
        return None
    if any(oracles._body_holds(r.body, set(model)) for r in oracles._ground_ics(db.ic, model, edb)):
        return "%s %s: %s violates a constraint" % (op, goal, tx)
    return None
