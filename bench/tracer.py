"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps the public functions of each layer (the modules under
src/vud/) and records, per function, the number of calls and the self time:
the span's duration minus the time of wrapped calls made inside it.  Work
counts and waste ratios are read from arguments and return values.

Modules import each other's functions by name (``from .semantics import
least_model``), so a function is replaced in every ``vud.*`` module that
binds it, not only where it is defined.  uninstall() puts every binding
back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = {
    "lang": ("parse", "ground_program", "stratify"),
    "semantics": ("fixpoint_model", "check_ic", "build_proof_tree", "reduct"),
    "explain": ("local_explanations", "missing_support"),
    "deletion": (
        "deletion_program",
        "materialized_program",
        "build_tableau",
        "deletion_candidates",
        "strongly_minimal",
    ),
    "insertion": ("insertion_worlds", "insertion_candidates", "magic_query"),
    "revision": ("repair_constraints", "rationality_report", "kernel_change"),
    "hitting": ("minimal_hitting_sets",),
    "engine": ("view_update",),
}

# Counters reported per traced request, besides calls and self time.
COUNTS = (
    "lang.ground_program.instances",
    "semantics.check_ic.violations",
    "explain.local_explanations.sets",
    "explain.missing_support.sets",
    "deletion.build_tableau.expansions",
    "deletion.build_tableau.open_branches",
    "deletion.deletion_candidates.candidates",
    "insertion.insertion_worlds.worlds",
    "insertion.insertion_candidates.candidates",
    "revision.repair_constraints.found",
    "revision.repair_constraints.exhausted",
    "hitting.minimal_hitting_sets.subsets",
    "hitting.minimal_hitting_sets.sets",
    "engine.view_update.alternatives",
    "engine.view_update.unrealizable",
)


def function_names() -> list[str]:
    return ["%s.%s" % (m, f) for m, fs in LAYERS.items() for f in fs]


class _Frame:
    __slots__ = ("name", "child_s", "open_branches", "worlds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0
        self.open_branches = 0  # of tableaux built directly inside this call
        self.worlds = 0  # of insertion worlds found inside this call


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peak_live = 0
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import vud
        import vud.lang

        modules = [m for n, m in sorted(sys.modules.items()) if n == "vud" or n.startswith("vud.")]
        for module, names in LAYERS.items():
            home = sys.modules["vud." + module]
            for fname in names:
                name = "%s.%s" % (module, fname)
                if name == "lang.parse":
                    descriptor = vud.lang.Database.__dict__["parse"]
                    wrapped = classmethod(self._wrap(name, descriptor.__func__))
                    self._restore.append((vud.lang.Database, "parse", descriptor))
                    setattr(vud.lang.Database, "parse", wrapped)
                    continue
                original = getattr(home, fname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        from vud.engine import UnrealizableError

        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "hitting.minimal_hitting_sets":
                # the family may be a one-shot iterable; read it once here
                family = tuple(args[0] if args else kwargs.pop("family"))
                args = (family,) + args[1:]
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except UnrealizableError:
                if name == "engine.view_update":
                    self.counts["engine.view_update.unrealizable"] += 1
                raise
            finally:
                span = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - frame.child_s
                if parent is not None:
                    parent.child_s += span
            self._observe(name, args, result, frame, parent)
            return result

        return wrapper

    def _observe(self, name, args, result, frame: _Frame, parent: _Frame | None) -> None:
        c = self.counts
        if name == "lang.ground_program":
            c["lang.ground_program.instances"] += len(result)
        elif name == "semantics.check_ic":
            c["semantics.check_ic.violations"] += len(result)
        elif name in ("explain.local_explanations", "explain.missing_support"):
            c[name + ".sets"] += len(result)
        elif name == "deletion.build_tableau":
            branches = len(result.open())
            c["deletion.build_tableau.expansions"] += result.expansions
            c["deletion.build_tableau.open_branches"] += branches
            self.peak_live = max(self.peak_live, result.peak_live)
            if parent is not None and parent.name == "deletion.deletion_candidates":
                parent.open_branches += branches
        elif name == "deletion.deletion_candidates":
            c["deletion.deletion_candidates.candidates"] += len(result)
            if frame.open_branches:
                c["deletion.kept"] += len(result)
                c["deletion.kept_of"] += frame.open_branches
        elif name == "deletion.strongly_minimal":
            c["deletion.strongly_minimal.passed"] += bool(result)
        elif name == "insertion.insertion_worlds":
            c["insertion.insertion_worlds.worlds"] += len(result)
            for outer in reversed(self._stack):
                if outer.name == "insertion.insertion_candidates":
                    outer.worlds += len(result)
                    break
        elif name == "insertion.insertion_candidates":
            c["insertion.insertion_candidates.candidates"] += len(result)
            if frame.worlds:
                c["insertion.kept"] += len(result)
                c["insertion.kept_of"] += frame.worlds
        elif name == "revision.repair_constraints":
            c["revision.repair_constraints.found"] += len(result.transactions)
            c["revision.repair_constraints.exhausted"] += bool(result.exhausted)
        elif name == "hitting.minimal_hitting_sets":
            union = frozenset().union(*(frozenset(s) for s in args[0] if s))
            c["hitting.minimal_hitting_sets.subsets"] += 2 ** len(union)
            c["hitting.minimal_hitting_sets.sets"] += len(result)
        elif name == "engine.view_update":
            c["engine.view_update.alternatives"] += len(result.alternatives)

    # -- report --------------------------------------------------------------

    def metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-request calls, self time and counts; ratios and maxima as is."""
        out: dict[str, tuple[float, str]] = {}
        for name in function_names():
            out[name + ".calls"] = (self.calls[name] / requests, "calls/req")
            out[name + ".self_s"] = (self.self_s[name] / requests, "s/req")
        for name in COUNTS:
            out[name] = (self.counts[name] / requests, "count/req")
        c = self.counts
        out["deletion.build_tableau.peak_live"] = (self.peak_live, "count")
        out["deletion.kept_ratio"] = (_ratio(c["deletion.kept"], c["deletion.kept_of"]), "ratio")
        out["deletion.strongly_minimal.pass_ratio"] = (
            _ratio(c["deletion.strongly_minimal.passed"], self.calls["deletion.strongly_minimal"]),
            "ratio",
        )
        out["insertion.kept_ratio"] = (_ratio(c["insertion.kept"], c["insertion.kept_of"]), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
