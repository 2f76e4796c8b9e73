import functools
import sys

import pytest
from hypothesis import HealthCheck, settings

from vud import engine, insertion, lang, revision, semantics

# the database strategies filter aggressively (consistent constraints,
# goals that must or must not be derivable), which can trip the filter
# health check on an unlucky run even though generation stays fast
settings.register_profile(
    "vud",
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("vud")


# A program on which inserting v3(b,a) runs the world search into
# MAX_STATES: v3(b,a) needs every one of c1, ..., c15, each of which has
# two ways in, so the worlds double with every subgoal, 2^15 base parts.
BUDGET_PROBE_TEXT = "v3(b,a) :- %s.\n" % ", ".join("c%d" % i for i in range(1, 16)) + "".join(
    "c%d :- x%d.\nc%d :- y%d.\n" % (i, i, i, i) for i in range(1, 16)
)


@pytest.fixture
def budget_probe_text() -> str:
    return BUDGET_PROBE_TEXT


@pytest.fixture
def search_steps(monkeypatch) -> list[int]:
    """The step calls of every breadth-first search run while the test
    does, one entry per search, in the order the searches start."""
    counts: list[int] = []
    real = lang.breadth_first

    def counted(seeds, step, log, *args, **kwargs):
        index = len(counts)
        counts.append(0)

        def counted_step(state, depth):
            counts[index] += 1
            return step(state, depth)

        return real(seeds, counted_step, log, *args, **kwargs)

    for module in (lang, engine, insertion, revision):
        monkeypatch.setattr(module, "breadth_first", counted)
    return counts


def _recorded(monkeypatch, real) -> list[tuple]:
    """The (rules, atoms, universe) of every call of the evaluator entry
    real made while the test runs, in call order, wrapped in every vud
    module that binds it."""
    calls: list[tuple] = []

    @functools.wraps(real)
    def recorded(rules, atoms, universe):
        calls.append((tuple(rules), frozenset(atoms), frozenset(universe)))
        return real(rules, atoms, universe)

    for name, module in list(sys.modules.items()):
        if (name == "vud" or name.startswith("vud.")) and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, recorded)
    return calls


@pytest.fixture
def model_computations(monkeypatch) -> list[tuple]:
    """The (rules, facts, universe) of every fixpoint_model call made while
    the test runs, in call order."""
    return _recorded(monkeypatch, semantics.fixpoint_model)


@pytest.fixture
def firing_computations(monkeypatch) -> list[tuple]:
    """The (rules, model, universe) of every firing_instances call made
    while the test runs, in call order."""
    return _recorded(monkeypatch, semantics.firing_instances)


@pytest.fixture
def magic_queries(monkeypatch) -> list:
    """The goal of every goal-guarded evaluation (insertion.magic_query)
    started while the test runs, in call order."""
    goals: list = []
    real = insertion.magic_query

    def counted(db, goal):
        goals.append(goal)
        return real(db, goal)

    monkeypatch.setattr(insertion, "magic_query", counted)
    return goals
