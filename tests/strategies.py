"""Shared hypothesis strategies producing small random databases,
long_chain_text, a fixed family of long ones, and the bench corpus
workload's generator configuration."""

from hypothesis import assume
from hypothesis import strategies as st

from vud.lang import Atom, Database, Literal, Rule, fact
from vud.randgen import GeneratorConfig
from vud.semantics import least_model

# the configuration of bench/workloads.CORPUS_CONFIG
BENCH_CORPUS = GeneratorConfig(
    view_count=4, base_count=4, constant_count=4, extra_body_vars=0,
    negation=True, constraints=True, acyclic=True,
)

BASE = ["a", "b", "c", "d"]
VIEW = ["p", "q", "r"]


@st.composite
def positive_dbs(draw, max_rules: int = 6, with_ic: bool = False):
    """Propositional databases without negation.  Rule bodies may mention
    view predicates freely, so positive recursion and cycles do occur."""
    rules = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rules))):
        head = draw(st.sampled_from(VIEW))
        preds = draw(st.lists(st.sampled_from(BASE + VIEW), min_size=1, max_size=3, unique=True))
        rules.append(Rule(Atom(head), tuple(Literal(Atom(p)) for p in preds)))
    facts = [fact(b) for b in BASE if draw(st.booleans())]
    ics = []
    if with_ic and draw(st.booleans()):
        banned = draw(st.sampled_from(BASE))
        ics.append(Rule(None, (Literal(Atom(banned)),)))
        facts = [f for f in facts if f.head != Atom(banned)]
    return Database(tuple(rules) + tuple(facts) + tuple(ics))


@st.composite
def stratified_dbs(draw, max_rules: int = 6, with_ic: bool = False):
    """Propositional databases where negation only looks at base predicates,
    so every draw is stratifiable."""
    rules = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rules))):
        head = draw(st.sampled_from(VIEW))
        pos = draw(st.lists(st.sampled_from(BASE + VIEW), min_size=1, max_size=3, unique=True))
        body = [Literal(Atom(p)) for p in pos]
        for n in draw(st.lists(st.sampled_from(BASE), max_size=2, unique=True)):
            if n not in pos:
                body.append(Literal(Atom(n), negated=True))
        rules.append(Rule(Atom(head), tuple(body)))
    facts = [fact(b) for b in BASE if draw(st.booleans())]
    ics = []
    if with_ic and draw(st.booleans()):
        banned = draw(st.sampled_from(BASE))
        ics.append(Rule(None, (Literal(Atom(banned)),)))
        facts = [f for f in facts if f.head != Atom(banned)]
    return Database(tuple(rules) + tuple(facts) + tuple(ics))


view_goals = st.sampled_from([Atom(v) for v in VIEW])


@st.composite
def dbs_with_derivable_goal(draw, negation: bool = False, with_ic: bool = False):
    """A database together with a view atom that holds in its model."""
    db = draw(stratified_dbs(with_ic=with_ic) if negation else positive_dbs(with_ic=with_ic))
    derivable = sorted(a for a in least_model(db) if a.pred in VIEW)
    assume(derivable)
    return db, draw(st.sampled_from(derivable))


@st.composite
def dbs_with_underivable_goal(draw, negation: bool = False, with_ic: bool = False):
    """A database together with a view atom absent from its model but
    mentioned by some rule head."""
    db = draw(stratified_dbs(with_ic=with_ic) if negation else positive_dbs(with_ic=with_ic))
    model = least_model(db)
    missing = sorted(Atom(v) for v in db.view_predicates if Atom(v) not in model)
    assume(missing)
    return db, draw(st.sampled_from(missing))


def long_chain_text(n: int, drop: int | None = None) -> str:
    """p0 :- a0, p1.  ...  p(n-1) :- a(n-1), pn.  pn :- an.  with every a_i
    stored but a_drop: the propositional chain of the benchmark's chain
    workload."""
    lines = ["p%d :- a%d, p%d." % (i, i, i + 1) for i in range(n)]
    lines.append("p%d :- a%d." % (n, n))
    lines += ["a%d." % i for i in range(n + 1) if i != drop]
    return "\n".join(lines) + "\n"
