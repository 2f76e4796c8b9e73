"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py [--seed N]

Runs every workload with --trace 1 (and corpus once with --trace 0 for
the end-to-end schema) and passes when:

  - each run reports correct answers and no failed request; a traced run
    marks itself incorrect when a traced answer's digest differs from the
    untraced one, so this also checks that tracing changes no answer;
  - each run reports exactly the metrics BENCHMARK.json names for its mode,
    trace.overhead_share among them;
  - every per-layer metric is non-zero on at least one workload, except
    those listed in EXPECTED_ZERO.

Exit status 0 on success, 1 with the reasons otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

EXPECTED_ZERO = {
    # no request of these workloads runs a repair search out of budget
    "revision.repair_constraints.exhausted",
    # 1 at the seed commit; 0 once deep proofs stop recursing
    "probe.deep_chain.failed",
    # 1 at the seed commit; 0 once an exhausted world budget is reported
    # instead of raised
    "probe.corpus_budget.failed",
}


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (" ".join(cmd), done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    errors: list[str] = []
    nonzero: set[str] = set()
    runs = [(w["name"], 1) for w in spec["workloads"]] + [("corpus", 0)]
    for workload, trace in runs:
        result = run(workload, args.seed, trace)
        label = "%s --trace %d" % (workload, trace)
        if not result["correct"] or result["failed"]:
            errors.append("%s: correct=%s failed=%d" % (label, result["correct"], result["failed"]))
        got = set(result["metrics"])
        if got != names[trace]:
            errors.append("%s: missing %s, unexpected %s"
                          % (label, sorted(names[trace] - got), sorted(got - names[trace])))
        if trace:
            nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
        print("%s: ok=%s attempted=%d" % (label, result["correct"], result["attempted"]))
    zero = names[1] - nonzero - EXPECTED_ZERO
    if zero:
        errors.append("per-layer metrics zero on every workload: %s" % ", ".join(sorted(zero)))
    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
