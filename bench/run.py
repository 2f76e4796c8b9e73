"""View-update benchmark: seeded closed-loop workloads over the public API.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chain|corpus --seed N --seconds S --trace 0|1

One client sends each request only after the previous one returned.  A
request is one call of ``atom in least_model(db)`` (query), ``view_update``
with a single insert or delete goal, ``revise`` or ``contract``, always
against an unchanged base database.  A run makes whole passes over the
workload's pool of requests until --seconds are used (at least MIN_PASSES).
Every time is scaled to a reference machine speed measured by Gauge during
the run, and a request's latency is its median pass.  Every answer is
checked against the naive oracle in tests/oracles.py after the timed
region, and for the default seed against the pinned per-request digests
in bench/digests.json.

--trace 0 prints the end-to-end metrics.  --trace 1 replays a fixed prefix
of the pool untraced and then traced (bench/tracer.py) and prints the
per-layer metrics; it also runs the workload's probe (see PROBES in
bench/workloads.py).  The last line of standard output is the JSON result;
the line before it records the run's details, unscaled figures included.

    python3 bench/run.py --pin --workload W   rewrites W's pinned digests

The process re-executes itself with PYTHONHASHSEED=0: set iteration order
changes the work the engine does (not its answers), and a pinned hash seed
makes per-layer counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HASH_SEED = "0"
DEFAULT_SEED = 1
MIN_PASSES = 3  # timed passes over the pool, so each latency is a median of three or more
HARD_STOP_S = 120.0  # no timed pass starts after this
REQUEST_LIMIT_S = 20.0  # a request still running after this is cut off and fails
POOL_BUILD_LIMIT_S = 120.0
# Set-up passes: this many before the timed loop and one after each timed
# pass; setup_s is the median pass, so it samples the whole run's machine
# speed, as the latencies do.
SETUP_FIRST_PASSES = 5
# The speed gauge times fixed reference work every GAUGE_EVERY_S, between
# requests; request and set-up times are scaled to a machine on which the
# reference work takes GAUGE_REF_S (about this machine's median speed).
GAUGE_EVERY_S = 0.2
GAUGE_REF_S = 0.0005

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "digests.json"
WORKLOADS = ("chain", "corpus")  # the pools are built in workloads.py


def _reexec_with_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], env)


def _import_program():
    """The checkout's own vud package and oracles, or exit 2."""
    src = ROOT / "src"
    if not (src / "vud" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.stderr.write("bench: %s holds no src/vud package and tests/oracles.py\n" % ROOT)
        sys.exit(2)
    sys.path[:0] = [str(BENCH_DIR), str(src)]
    import vud

    if Path(vud.__file__).resolve().parent != (src / "vud").resolve():
        sys.stderr.write("bench: imported vud from %s, not from the checkout\n" % vud.__file__)
        sys.exit(2)
    from checks import load_oracles

    return vud, load_oracles(ROOT)


def _reference_work() -> int:
    """Fixed pure-Python work of about half a millisecond: building,
    hashing and looking up small tuples, as the engine's inner loops do."""
    seen = set()
    hits = 0
    for i in range(500):
        key = ("p%d" % (i % 61), (i % 7, i % 11))
        if key in seen:
            hits += 1
        else:
            seen.add(key)
    return hits + len(sorted(seen))


class Gauge:
    """The machine's speed, from timings of _reference_work.

    A shared machine's speed can drift by more than half over seconds to
    minutes, for a whole run, so neither run length nor repeated passes
    average it out.  A time measured just after sample i is scaled to the
    time it would have taken at the reference speed, using the median of
    samples i-1 .. i+2 (the two on either side of it).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.at = 0.0
        self.tick(force=True)

    def tick(self, force: bool = False) -> int:
        """Take a sample when one is due (or forced); the latest's index."""
        if force or time.perf_counter() - self.at >= GAUGE_EVERY_S:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                _reference_work()
                best = min(best, time.perf_counter() - start)
            self.samples.append(best)
            self.at = time.perf_counter()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        return GAUGE_REF_S / statistics.median(self.samples[max(0, index - 1) : index + 3])


class RequestTimeout(Exception):
    """Raised into a request that outlived REQUEST_LIMIT_S."""


def _cut_off(signum, frame):
    raise RequestTimeout("request ran longer than %.0f s" % REQUEST_LIMIT_S)


@contextlib.contextmanager
def _time_limit():
    signal.signal(signal.SIGALRM, _cut_off)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _build_pool(workload: str, seed: int):
    """The workload's pool, built in a child process: corpus goals are
    picked with the naive oracle, whose memory must not count in
    peak_rss_mb."""
    from workloads import pool_from_json

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--emit-pool"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=POOL_BUILD_LIMIT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(2)
    return pool_from_json(done.stdout)


class Runner:
    """One workload's pool, parsed databases and request execution."""

    def __init__(self, vud, oracles, workload: str, seed: int) -> None:
        self.vud = vud
        self.oracles = oracles
        self.workload = workload
        self.seed = seed
        self.pool = _build_pool(workload, seed)
        self.dbs: list = []
        self.verified: dict[tuple[int, int], str] = {}  # request -> digest seen
        self.problems: list[str] = []

    def setup(self) -> float:
        """Parse, validate and stratify every database of the pool; the
        seconds taken."""
        vud = self.vud
        gc.collect()
        start = time.perf_counter()
        dbs = [vud.Database.parse(text) for text in self.pool.texts]
        for db in dbs:
            if vud.validate(db):
                raise ValueError("generated database is not well formed:\n%s" % vud.format_database(db))
            vud.stratify(db.rules)
        elapsed = time.perf_counter() - start
        self.dbs = dbs
        return elapsed

    def execute(self, req):
        vud = self.vud
        db = self.dbs[req.db]
        if req.op == "query":
            return req.goal in vud.least_model(db)
        if req.op in ("insert", "delete"):
            goals = {"inserts" if req.op == "insert" else "deletes": (req.goal,)}
            return vud.view_update(db, vud.UpdateRequest(**goals), variant=req.variant)
        if req.op == "revise":
            return vud.revise(db, req.goal)
        return vud.contract(db, req.goal)

    def timed(self, req) -> tuple[float, tuple[str, object]]:
        """Seconds taken and the answer's summary (see checks.summarize)."""
        from checks import summarize

        start = time.perf_counter()
        try:
            with _time_limit():
                answer = self.execute(req)
        except Exception as exc:  # a failed request is recorded, not fatal
            answer = exc
        elapsed = time.perf_counter() - start
        return elapsed, summarize(req.op, answer)

    def record(self, key: tuple[int, int], req, summary: tuple[str, object], pins) -> bool:
        """Check one summarized answer; True when the request failed."""
        from checks import verify

        d, payload = summary
        failed = False
        if pins is not None and d != pins[key[0]][key[1]]:
            self.problems.append("round %d request %d (%s %s): digest %s, pinned %s"
                                 % (key[0], key[1], req.op, req.goal, d, pins[key[0]][key[1]]))
            failed = True
        seen = self.verified.get(key)
        if seen is None:
            reason = verify(self.oracles, req.op, self.dbs[req.db], req.goal, payload)
            if reason is not None:
                self.problems.append("round %d request %d: %s" % (key[0], key[1], reason))
                failed = True
            self.verified[key] = d
        elif seen != d:
            self.problems.append("round %d request %d: answer changed on repeat" % key)
            failed = True
        return failed

    def pins(self) -> list[list[str]] | None:
        """The pinned digests of the default seed; None for other seeds."""
        if self.seed != DEFAULT_SEED:
            return None
        pinned = json.loads(PINS.read_text()).get(self.workload) if PINS.is_file() else None
        if pinned is None or [len(r) for r in pinned] != [len(r) for r in self.pool.rounds]:
            self.problems.append("no pinned digests for this pool; run with --pin")
            return None
        return pinned


def run_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, int, int]:
    from workloads import OPS

    gauge = Gauge()
    setup_runs: list[tuple[float, int]] = []  # (seconds, gauge sample before)

    def set_up() -> None:
        g = gauge.tick(force=True)
        setup_runs.append((runner.setup(), g))
        gauge.tick(force=True)

    for _ in range(SETUP_FIRST_PASSES):
        set_up()
    requests = [((r, i), req) for r, rnd in enumerate(runner.pool.rounds) for i, req in enumerate(rnd)]
    runs: list[list[tuple[float, int]]] = [[] for _ in requests]  # (seconds, gauge sample before)
    # the first pass's answer of each request, and how many later passes
    # answered differently; memory does not grow with the pass count
    first: list = [None] * len(requests)
    changed = [0] * len(requests)
    pass_times: list[float] = []
    # a pass starts only while it is expected to end within the run's
    # seconds, once MIN_PASSES are done
    while len(pass_times) < MIN_PASSES or sum(pass_times) + pass_times[-1] <= seconds:
        if pass_times and sum(pass_times) >= HARD_STOP_S:
            break
        gc.collect()
        g = gauge.tick(force=True)
        start = time.perf_counter()
        for j, (key, req) in enumerate(requests):
            dt, summary = runner.timed(req)
            runs[j].append((dt, g))
            if first[j] is None:
                first[j] = summary
            elif summary[0] != first[j][0]:
                changed[j] += 1
            g = gauge.tick()
        pass_times.append(time.perf_counter() - start)
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pins = runner.pins()
    failed = 0
    for j, (key, req) in enumerate(requests):
        if runner.record(key, req, first[j], pins):
            failed += len(runs[j])
        elif changed[j]:
            runner.problems.append("round %d request %d: answer changed on repeat" % key)
            failed += changed[j]
    attempted = sum(len(r) for r in runs)

    def figures(scaled: bool) -> dict:
        def sec(t: float, g: int) -> float:
            return t * gauge.factor(g) if scaled else t

        # a request's time is its median pass
        per_request = [statistics.median(sec(t, g) for t, g in r) for r in runs]
        # requests answered per second; the time of failed requests stays
        # in the denominator
        out = {"throughput_rps": ((attempted - failed) / attempted * len(requests) / sum(per_request), "1/s")}
        for op in OPS:
            ms = [1000.0 * t for (_, req), t in zip(requests, per_request) if req.op == op]
            out[op + "_p50_ms"] = (statistics.median(ms), "ms")
            out[op + "_p90_ms"] = (_percentile(ms, 90), "ms")
        out["setup_s"] = (statistics.median(sec(t, g) for t, g in setup_runs), "s")
        return out

    metrics = figures(scaled=True)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    info = {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "setup_passes": len(setup_runs),
        "samples": {op: sum(req.op == op for _, req in requests) for op in OPS},
        "digests_pinned": pins is not None,
        "gauge_ms": {"min": 1000.0 * min(gauge.samples), "median": 1000.0 * statistics.median(gauge.samples),
                     "max": 1000.0 * max(gauge.samples), "count": len(gauge.samples)},
        "unscaled": {k: v for k, (v, _) in figures(scaled=False).items()},
    }
    return metrics, info, attempted, failed


def run_traced(runner: Runner) -> tuple[dict, dict, int, int]:
    from tracer import Tracer
    from workloads import PROBES, TRACE_ROUNDS

    runner.setup()
    rounds = runner.pool.rounds[: TRACE_ROUNDS[runner.workload]]
    requests = [((r, i), req) for r, rnd in enumerate(rounds) for i, req in enumerate(rnd)]

    # rounds alternate untraced and traced, so drift in machine speed
    # falls on both sides of the overhead ratio alike
    tracer = Tracer()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for rnd in rounds:
        gc.collect()
        start = time.perf_counter()
        plain += [runner.timed(req)[1] for req in rnd]
        plain_s += time.perf_counter() - start
        gc.collect()
        tracer.install()
        try:
            start = time.perf_counter()
            traced += [runner.timed(req)[1] for req in rnd]
            traced_s += time.perf_counter() - start
        finally:
            tracer.uninstall()

    pins = runner.pins()
    failed = 0
    for (key, req), a, b in zip(requests, plain, traced):
        bad = runner.record(key, req, a, pins)
        if a[0] != b[0]:
            runner.problems.append("round %d request %d: traced answer differs" % key)
            bad = True
        failed += bad

    # one traced set-up pass over the replayed rounds' databases, so the
    # parse/validate/stratify layer shows in the per-layer split
    used = sorted({req.db for rnd in rounds for req in rnd})
    tracer.install()
    try:
        for i in used:
            db = runner.vud.Database.parse(runner.pool.texts[i])
            runner.vud.validate(db)
            runner.vud.stratify(db.rules)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics(len(requests))
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    for name, (workload, make) in PROBES.items():
        probe_failed, probe_s = 0, 0.0
        if workload == runner.workload:
            text, goal = make()
            db = runner.vud.Database.parse(text)
            start = time.perf_counter()
            try:
                with _time_limit():
                    runner.vud.view_update(db, runner.vud.UpdateRequest(inserts=(goal,)))
            except runner.vud.UnrealizableError:
                pass
            except Exception as exc:  # the probe exists to catch exactly this
                probe_failed = 1
                runner.problems.append("probe %s: %s" % (name, type(exc).__name__))
            probe_s = time.perf_counter() - start
        metrics["probe.%s.failed" % name] = (probe_failed, "count")
        metrics["probe.%s.s" % name] = (probe_s, "s")
    info = {
        "traced_requests": len(requests),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "digests_pinned": pins is not None,
    }
    return metrics, info, len(requests), failed


def pin(runner: Runner) -> None:
    """Run the whole pool once and store its answer digests."""
    runner.setup()
    rows = []
    for r, rnd in enumerate(runner.pool.rounds):
        row = []
        for i, req in enumerate(rnd):
            summary = runner.timed(req)[1]
            if runner.record((r, i), req, summary, None):
                raise SystemExit("bench: refusing to pin, %s" % runner.problems[-1])
            row.append(summary[0])
        rows.append(row)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins[runner.workload] = rows
    # one round per line
    body = ",\n".join(
        "%s: [\n%s\n]" % (json.dumps(w), ",\n".join(json.dumps(row) for row in pins[w]))
        for w in sorted(pins)
    )
    PINS.write_text("{\n" + body + "\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned digests of the default seed")
    parser.add_argument("--emit-pool", action="store_true", help="print the workload's pool as JSON and exit")
    args = parser.parse_args(argv)

    _reexec_with_hash_seed()
    vud, oracles = _import_program()
    if args.emit_pool:
        from workloads import build_pool, pool_to_json

        print(pool_to_json(build_pool(args.workload, args.seed, oracles.naive_model)))
        return 0
    runner = Runner(vud, oracles, args.workload, args.seed)
    if args.pin:
        if args.seed != DEFAULT_SEED:
            parser.error("digests are pinned for seed %d only" % DEFAULT_SEED)
        pin(runner)
        return 0
    if args.trace:
        metrics, info, attempted, failed = run_traced(runner)
    else:
        metrics, info, attempted, failed = run_end_to_end(runner, args.seconds)
    # a probe's failure is reported as its own metric, not as a failed
    # workload request
    wrong = [p for p in runner.problems if not p.startswith("probe ")]
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                python_hash_seed=os.environ.get("PYTHONHASHSEED"), problems=runner.problems[:20])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
