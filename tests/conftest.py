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


# A random program (three constants, body-only variables, view cycles) on
# which inserting v3(b,a) runs the request's searches into MAX_STATES.
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


@pytest.fixture
def model_computations(monkeypatch) -> list[tuple]:
    """The (rules, facts, universe) of every fixpoint_model call made while
    the test runs, in call order; universe is None when the call names
    none."""
    calls: list[tuple] = []
    real = semantics.fixpoint_model

    @functools.wraps(real)
    def recorded(rules, facts, universe=None):
        calls.append((tuple(rules), frozenset(facts), None if universe is None else frozenset(universe)))
        return real(rules, facts, universe)

    for name, module in list(sys.modules.items()):
        if (name == "vud" or name.startswith("vud.")) and getattr(module, "fixpoint_model", None) is real:
            monkeypatch.setattr(module, "fixpoint_model", recorded)
    return calls
