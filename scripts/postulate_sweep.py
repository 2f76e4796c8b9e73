"""Sweep seeded random databases and score both update variants
against the rationality postulates.

For every seeded database the script picks one deletion goal (a derivable
view atom) or one insertion goal (an absent view atom some rule head could
produce), runs the update under the chosen variant, and grades every returned
transaction.  The output is a per-postulate satisfaction table for each
operation plus counts of skipped seeds (no usable goal) and give-ups (no
transaction found).  A violation of a postulate that its operation does
not guarantee (CONTRACTION_GUARANTEES for deletes, REVISION_GUARANTEES for
inserts) is shown in parentheses.  The script exits 1, naming the seed and
the postulate, when a transaction of the minimal variant breaks a
guarantee; the materialized variant does not promise strong relevance, so
its sweep only reports.
"""

import argparse
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

sys.path.insert(0, "src")

from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.lang import Atom, Database, is_variable
from vud.randgen import GeneratorConfig, random_database, random_ground_atom
from vud.revision import CONTRACTION_GUARANTEES, REVISION_GUARANTEES, rationality_report
from vud.semantics import least_model


@dataclass(frozen=True)
class SweepConfig:
    seeds: int = 200
    variant: str = "minimal"
    negation: bool = False
    acyclic: bool = True


def generator_config(cfg: SweepConfig) -> GeneratorConfig:
    return GeneratorConfig(
        view_count=3,
        base_count=3,
        constant_count=2,
        max_arity=2,
        rules_per_view=2,
        max_body=2,
        extra_body_vars=0,
        negation=cfg.negation,
        constraints=False,
        fact_density=0.55,
        acyclic=cfg.acyclic,
    )


def head_matches(head: Atom, goal: Atom) -> bool:
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


def pick_goal(db: Database, seed: int, op: str) -> Atom | None:
    model = least_model(db)
    if op == "delete":
        present = sorted(a for a in model if a.pred in db.view_predicates)
        return random.Random(seed * 31 + 7).choice(present) if present else None
    for k in range(60):
        a = random_ground_atom(db, seed * 13 + 5 + k)
        if a not in model and any(
            r.head is not None and head_matches(r.head, a) for r in db.idb
        ):
            return a
    return None


GUARANTEES = {"delete": CONTRACTION_GUARANTEES, "insert": REVISION_GUARANTEES}


@dataclass
class SweepResult:
    graded: int = 0
    skipped: int = 0
    give_ups: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        # keyed by (operation, postulate)
        self.satisfied: Counter[tuple[str, str]] = Counter()
        self.violated: Counter[tuple[str, str]] = Counter()
        # (seed, operation, goal, transaction, postulate) per broken guarantee
        self.broken: list[tuple[int, str, Atom, str, str]] = []


def run(cfg: SweepConfig) -> SweepResult:
    result = SweepResult()
    gen = generator_config(cfg)
    start = time.perf_counter()
    for seed in range(cfg.seeds):
        db = random_database(seed, gen)
        op = "delete" if seed % 2 else "insert"
        goal = pick_goal(db, seed, op)
        if goal is None:
            result.skipped += 1
            continue
        req = (
            UpdateRequest(inserts=(goal,))
            if op == "insert"
            else UpdateRequest(deletes=(goal,))
        )
        try:
            res = view_update(db, req, variant=cfg.variant)
        except UnrealizableError:
            result.give_ups += 1
            continue
        for tx in res.alternatives:
            result.graded += 1
            report = rationality_report(db, goal, tx, op)
            for name, ok in report.items():
                (result.satisfied if ok else result.violated)[op, name] += 1
                if not ok and name in GUARANTEES[op]:
                    result.broken.append((seed, op, goal, str(tx), name))
    result.seconds = time.perf_counter() - start
    return result


def format_table(cfg: SweepConfig, result: SweepResult) -> str:
    lines = [
        "variant=%s seeds=%d negation=%s acyclic=%s"
        % (cfg.variant, cfg.seeds, cfg.negation, cfg.acyclic),
        "graded %d transactions, %d skipped seeds, %d give-ups, %.1fs"
        % (result.graded, result.skipped, result.give_ups, result.seconds),
        "",
        "%-22s %19s %19s" % ("", "delete", "insert"),
        "%-22s %9s %9s %9s %9s" % ("postulate", "satisfied", "violated", "satisfied", "violated"),
    ]
    for name in CONTRACTION_GUARANTEES:
        cells = []
        for op in ("delete", "insert"):
            violated = result.violated[op, name]
            shown = "%d" % violated if name in GUARANTEES[op] else "(%d)" % violated
            cells += ["%d" % result.satisfied[op, name], shown]
        lines.append("%-22s %9s %9s %9s %9s" % (name, *cells))
    lines.append("")
    lines.append("guarantees broken: %d" % len(result.broken))
    for seed, op, goal, tx, name in result.broken:
        lines.append("seed %d: %s %s by %s breaks %s" % (seed, op, goal, tx, name))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=SweepConfig.seeds)
    parser.add_argument(
        "--variant", choices=("minimal", "materialized"), default=SweepConfig.variant
    )
    parser.add_argument("--negation", action="store_true")
    parser.add_argument(
        "--cyclic",
        action="store_true",
        help="allow positive dependency cycles between views",
    )
    args = parser.parse_args(argv)
    cfg = SweepConfig(
        seeds=args.seeds,
        variant=args.variant,
        negation=args.negation,
        acyclic=not args.cyclic,
    )
    result = run(cfg)
    print(format_table(cfg, result))
    return 1 if cfg.variant == "minimal" and result.broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
