"""Measure how the deletion tableau scales on the two-support chain family.

The depth-first search keeps only the active branch and its pending
siblings, so the number of simultaneously live branches should stay
polynomial in the chain length even though the family of open branches
the raw tableau enumerates doubles with every extra link.  This script
reports both growth curves and fits them: a log-log least-squares
exponent for the peak live count (polynomial test) and a semi-log slope
for the open branch count (exponential rate).  Beside them it reports the
open branches and expansions of the complement-split tableau that
deletion_candidates builds on these monotone databases, with a log-log
exponent for its open branches (1 is linear), and the states the insertion
world search visits when it inserts p1 into the chain with the last link's
two facts removed, and the size of the missing-support family revision
stores from for p1 with the middle link's two facts removed, each with a
log-log exponent as well (0 is constant).
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, "src")

from vud.deletion import build_tableau, delete_request, deletion_program
from vud.explain import missing_support
from vud.insertion import insertion_worlds
from vud.lang import Atom, SearchLog
from vud.randgen import chain_database


@dataclass(frozen=True)
class GrowthConfig:
    min_n: int = 4
    max_n: int = 12


@dataclass(frozen=True)
class Measurement:
    n: int
    peak_live: int
    open_branches: int
    expansions: int
    seconds: float
    split_open: int  # of the complement-split tableau
    split_expansions: int
    split_seconds: float
    insert_states: int  # of the world search inserting p1 without an and bn
    insert_seconds: float
    revise_sets: int  # missing-support sets of p1 without a(ceil(n/2)) and b(ceil(n/2))
    revise_seconds: float


def measure(n: int) -> Measurement:
    db = chain_database(n)
    program = deletion_program(db)
    start = time.perf_counter()
    tableau = build_tableau(program, delete_request(Atom("p1")))
    middle = time.perf_counter()
    split = build_tableau(program, delete_request(Atom("p1")), db.edb)
    end = time.perf_counter()
    cut = db.with_edb(db.edb - {Atom("a%d" % n), Atom("b%d" % n)})
    log = SearchLog.for_request(cut, (Atom("p1"),))
    insertion_worlds(cut, Atom("p1"), log)
    inserted = time.perf_counter()
    middle_link = (n + 1) // 2
    family = missing_support(db.with_edb(db.edb - {Atom("a%d" % middle_link), Atom("b%d" % middle_link)}), Atom("p1"))
    revised = time.perf_counter()
    return Measurement(
        n=n,
        peak_live=tableau.peak_live,
        open_branches=len(tableau.open()),
        expansions=tableau.expansions,
        seconds=middle - start,
        split_open=len(split.open()),
        split_expansions=split.expansions,
        split_seconds=end - middle,
        insert_states=log.states,
        insert_seconds=inserted - end,
        revise_sets=len(family),
        revise_seconds=revised - inserted,
    )


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def polynomial_exponent(rows: list[Measurement], count=lambda r: r.peak_live) -> float:
    """Log-log fit of a count, by default peak live branches, against
    chain length."""
    xs = [math.log(r.n) for r in rows]
    ys = [math.log(count(r)) for r in rows]
    return least_squares_slope(xs, ys)


def exponential_rate(rows: list[Measurement]) -> float:
    """Semi-log fit of open branch count: slope near ln 2 means doubling."""
    xs = [float(r.n) for r in rows]
    ys = [math.log(r.open_branches) for r in rows]
    return least_squares_slope(xs, ys)


def run(config: GrowthConfig) -> list[Measurement]:
    return [measure(n) for n in range(config.min_n, config.max_n + 1)]


def report(rows: list[Measurement]) -> str:
    header = ("n", "peak_live", "open_branches", "expansions", "seconds", "split_open", "split_expansions", "split_s",
              "insert_states", "insert_s", "revise_sets", "revise_s")
    lines = ["%4s %10s %14s %12s %9s %11s %17s %9s %14s %9s %12s %9s" % header]
    for r in rows:
        lines.append(
            "%4d %10d %14d %12d %9.3f %11d %17d %9.3f %14d %9.3f %12d %9.3f"
            % (
                r.n,
                r.peak_live,
                r.open_branches,
                r.expansions,
                r.seconds,
                r.split_open,
                r.split_expansions,
                r.split_seconds,
                r.insert_states,
                r.insert_seconds,
                r.revise_sets,
                r.revise_seconds,
            )
        )
    lines.append("")
    lines.append("peak live branches: log-log fit exponent %.3f" % polynomial_exponent(rows))
    lines.append(
        "open branch family: semi-log slope %.3f (ln 2 = %.3f would be doubling)"
        % (exponential_rate(rows), math.log(2))
    )
    lines.append(
        "complement-split open branches: log-log fit exponent %.3f (1 is linear)"
        % polynomial_exponent(rows, lambda r: r.split_open)
    )
    lines.append(
        "insertion world states: log-log fit exponent %.3f (1 is linear)"
        % polynomial_exponent(rows, lambda r: r.insert_states)
    )
    lines.append(
        "revise missing-support sets: log-log fit exponent %.3f (0 is constant)"
        % polynomial_exponent(rows, lambda r: r.revise_sets)
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=GrowthConfig.min_n)
    parser.add_argument("--max-n", type=int, default=GrowthConfig.max_n)
    args = parser.parse_args(argv)
    if args.min_n < 2 or args.max_n < args.min_n:
        parser.error("need 2 <= min-n <= max-n")
    rows = run(GrowthConfig(min_n=args.min_n, max_n=args.max_n))
    print(report(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
