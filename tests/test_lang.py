"""Parser, printer, grounding, stratification, validation, the antichain
filter."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vud import lang
from vud.lang import (
    Atom,
    Database,
    Literal,
    NotStratifiableError,
    ParseError,
    Rule,
    Transaction,
    antichain,
    fact,
    format_database,
    ground_program,
    ground_rule,
    parse_program,
    stratify,
    validate,
)
from vud.randgen import GeneratorConfig, random_database
from vud.semantics import least_model

from oracles import antichain_pairwise

DATA = Path(__file__).resolve().parents[1] / "data"


def test_parse_basic_shapes():
    db = Database.load(str(DATA / "basic.dl"))
    assert len(db.rules) == 10
    assert len(db.idb) == 6
    assert db.edb == {Atom("a"), Atom("e"), Atom("f")}
    assert len(db.ic) == 1
    assert db.ic[0] == Rule(None, (Literal(Atom("b")),))
    assert db.view_predicates == {"p", "q"}
    assert db.base_predicates == {"a", "b", "e", "f"}


def test_parse_preserves_clause_order():
    db = Database.load(str(DATA / "basic.dl"))
    heads = [r.head.pred for r in db.idb]
    assert heads == ["p", "q", "p", "q", "p", "q"]
    assert db.idb[0].body == (Literal(Atom("a")), Literal(Atom("e")))


def test_parse_staff_eq_head_becomes_denial():
    db = Database.load(str(DATA / "staff.dl"))
    assert len(db.rules) == 7
    assert len(db.idb) == 1
    assert len(db.edb) == 4
    assert len(db.ic) == 2
    for denial in db.ic:
        assert denial.head is None
        assert denial.body[-1] == Literal(Atom("eq", ("Y", "Z")), negated=True)
    assert db.universe() == {"infor1", "infor2", "matthias", "gerhard", "delhibabu", "aravindan"}


def test_database_derivations_computed_once():
    db = Database.load(str(DATA / "staff.dl"))
    twin = Database.load(str(DATA / "staff.dl"))
    for derive in (Database.universe, lambda d: d.view_predicates, lambda d: d.base_predicates, least_model):
        assert derive(db) is derive(db)
    # kept derivations take no part in equality or hashing
    assert db == twin and hash(db) == hash(twin)


def test_round_trip_on_files():
    for name in ("basic.dl", "staff.dl"):
        db = Database.load(str(DATA / name))
        assert Database.parse(format_database(db)) == db


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_program("p :- q\nr.")
    assert err.value.line == 2

    with pytest.raises(ParseError):
        parse_program("p(X,.")
    with pytest.raises(ParseError):
        parse_program("p @ q.")
    with pytest.raises(ParseError):
        parse_program("not.")
    with pytest.raises(ParseError):
        parse_program("p :- .")


class _KeepsNothing(dict):
    """A statement memo that stores nothing, so every statement is parsed."""

    def __setitem__(self, key, value):
        pass


def _parse_without_memo(monkeypatch, text: str):
    with monkeypatch.context() as m:
        m.setattr(lang, "_STATEMENTS", _KeepsNothing())
        return parse_program(text)


def _error(parse, text: str) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value), err.value.line, err.value.col


def _programs() -> list[str]:
    texts = [path.read_text() for path in sorted(DATA.glob("*.dl"))]
    configs = [GeneratorConfig(), GeneratorConfig(negation=True, constraints=True),
               GeneratorConfig(extra_body_vars=1, negation=True)]
    texts += [format_database(random_database(seed, c)) for c in configs for seed in range(40)]
    return texts


def test_kept_rule_statements_parse_as_without_the_memo(monkeypatch):
    """Every rule statement parsed before comes back as the same object,
    equal to what parsing it afresh gives; facts are parsed every time."""
    for text in _programs():
        fresh = _parse_without_memo(monkeypatch, text)
        first, again = parse_program(text), parse_program(text)
        assert first == again == fresh
        assert all((a is b) != a.is_fact for a, b in zip(first, again))
        assert not any(a is b for a, b in zip(first, fresh))


@pytest.mark.parametrize("bad", [
    "p :- q\nr.",
    "p(X) :- q(X), .",
    "p :- q(a.b).",
    ":- .",
    "eq(X,Y) :- .",
    "p(X) :- q(X), not.",
    "p :- q",
    "p :- q.\nr",
    "p :- q.\np :- q r.",
])
def test_malformed_statements_fail_where_they_are(monkeypatch, bad):
    """A statement that fails to parse is never kept: it fails with the same
    line and column on its first parse, on a repeat and after other
    statements, kept ones among them, in another text."""
    expected = _error(lambda t: _parse_without_memo(monkeypatch, t), bad)
    assert _error(parse_program, bad) == expected
    assert _error(parse_program, bad) == expected
    # two lines and three columns further on, after a rule statement kept
    # from another parse
    kept = parse_program("a.\np :- q.\n")
    shifted = _error(parse_program, "a.\np :- q.\n   " + bad)
    assert lang._STATEMENTS.get(("p", ":-", "q", ".")) is kept[1]
    _, line, col = expected
    assert shifted[1:] == (line + 2, col + 3 if line == 1 else col)
    assert shifted == _error(lambda t: _parse_without_memo(monkeypatch, t), "a.\np :- q.\n   " + bad)


def test_comments_and_whitespace_ignored():
    db = Database.parse("% header\np. % trailing\n\n  q :- p.\n")
    assert len(db.rules) == 2


def test_ground_rule_counts():
    staff = Database.load(str(DATA / "staff.dl"))
    rule = staff.idb[0]
    consts = sorted(staff.universe())
    instances = list(ground_rule(rule, consts))
    # three variables over six constants, checked against a plain product count
    assert len(instances) == sum(1 for _ in itertools.product(consts, repeat=3))
    assert len(instances) == 216
    assert all(r.is_fact or not r.variables() for r in instances)
    assert len(set(instances)) == 216

    prop = Rule(Atom("p"), (Literal(Atom("a")),))
    assert list(ground_rule(prop, consts)) == [prop]


def test_ground_program_is_flat_and_ordered():
    rules = parse_program("p(X) :- q(X).\nr(X,Y) :- q(X), q(Y).\n")
    out = ground_program(rules, ["a", "b"])
    assert len(out) == 2 + 4
    assert out[0].head == Atom("p", ("a",))


def test_stratify_positive_program_is_single_stratum():
    db = Database.load(str(DATA / "basic.dl"))
    strata = stratify(db.rules)
    assert len(strata) == 1
    assert strata[0] == {"p", "q", "a", "b", "e", "f"}


def test_stratify_layers_negation():
    rules = parse_program("p :- a.\nr :- not p, b.\ns :- not r.\n")
    strata = stratify(rules)
    level = {p: i for i, s in enumerate(strata) for p in s}
    assert level["p"] < level["r"] < level["s"]
    assert level["a"] == 0 and level["b"] == 0


def test_stratify_rejects_negative_cycles():
    with pytest.raises(NotStratifiableError):
        stratify(parse_program("p :- not p."))
    with pytest.raises(NotStratifiableError):
        stratify(parse_program("s :- not t.\nt :- not s.\n"))
    # positive recursion is fine
    strata = stratify(parse_program("p :- q.\nq :- p.\n"))
    assert len(strata) == 1


def test_validate_accepts_shipped_databases():
    for name in ("basic.dl", "staff.dl"):
        assert validate(Database.load(str(DATA / name))) == ()


def test_validate_flags_problems():
    kinds = lambda db: {v.kind for v in validate(db)}

    assert "unsafe-rule" in kinds(Database.parse("p(X) :- q."))
    assert "unsafe-rule" in kinds(Database.parse("p :- q, not r(X)."))
    assert "unsafe-rule" in kinds(Database.parse(":- not p(X)."))
    assert "non-ground-fact" in kinds(Database((fact("p", "X"),)))
    assert "view-fact" in kinds(Database.parse("p :- q.\np.\n"))
    assert "eq-misuse" in kinds(Database((fact("eq", "a", "a"),)))
    assert "eq-misuse" in kinds(Database((Rule(Atom("eq", ("X", "X")), (Literal(Atom("p", ("X",))),)),)))
    assert "eq-misuse" in kinds(Database.parse("p :- q(X), eq(X,X,X)."))
    assert "arity-mismatch" in kinds(Database.parse("p(a).\np(a,b).\n"))


def test_with_edb_replaces_facts_only():
    db = Database.load(str(DATA / "basic.dl"))
    new = db.with_edb([Atom("e"), Atom("f")])
    assert new.edb == {Atom("e"), Atom("f")}
    assert new.idb == db.idb
    assert new.ic == db.ic
    # facts land in sorted order after the unchanged rules
    assert [r.head for r in new.rules if r.is_fact] == [Atom("e"), Atom("f")]


def test_eq_in_body_is_kept():
    rules = parse_program("p(X,Y) :- q(X), q(Y), not eq(X,Y).")
    assert rules[0].body[2] == Literal(Atom("eq", ("X", "Y")), negated=True)


_names = st.sampled_from(["p", "q", "r", "base0", "base1"])
_terms = st.sampled_from(["a", "b", "c0", "X", "Y", "Z"])
_atoms = st.builds(Atom, _names, st.tuples() | st.tuples(_terms) | st.tuples(_terms, _terms))
_literals = st.builds(Literal, _atoms, st.booleans())
_rules = st.one_of(
    st.builds(Rule, _atoms, st.just(())),
    st.builds(Rule, _atoms | st.none(), st.lists(_literals, min_size=1, max_size=4).map(tuple)),
)


@given(st.lists(_rules, max_size=12).map(tuple))
def test_print_parse_round_trip(rules):
    db = Database(rules)
    assert Database.parse(format_database(db)) == db


# --- the antichain filter, against the pairwise one ---------------------------


def _random_sets(rng: random.Random, pool: list[Atom]) -> list[frozenset[Atom]]:
    """Distinct random subsets of a small pool, so members often nest."""
    members = [frozenset(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(rng.randint(0, 30))]
    return list(dict.fromkeys(members))


def test_antichain_matches_pairwise_filter_on_sets():
    rng = random.Random(11)
    dropped = 0
    for _ in range(300):
        pool = [Atom("a%d" % i) for i in range(rng.randint(1, 7))]
        family = _random_sets(rng, pool)
        got = antichain(family)
        assert got == antichain_pairwise(family), family
        dropped += len(family) - len(got)
    assert dropped


def test_antichain_matches_pairwise_filter_on_transactions():
    rng = random.Random(12)
    dropped = 0
    for _ in range(300):
        pool = [Atom("a%d" % i) for i in range(rng.randint(1, 6))]
        family = list(dict.fromkeys(
            Transaction(adds, removes)
            for adds, removes in zip(_random_sets(rng, pool), _random_sets(rng, pool))
        ))
        got = antichain(family)
        assert got == antichain_pairwise(family), family
        dropped += len(family) - len(got)
    assert dropped


def test_antichain_compares_no_members_of_one_size(monkeypatch):
    """Distinct members of one size cannot be subsets of each other, so the
    filter keeps them all without comparing any two."""
    compared = []
    order = Transaction.__le__
    monkeypatch.setattr(Transaction, "__le__", lambda self, other: compared.append(self) or order(self, other))
    family = [Transaction(frozenset(), frozenset({Atom("a%d" % i)})) for i in range(50)]
    assert antichain(family) == family
    assert compared == []
    # a smaller member is still compared with every larger one
    assert antichain(family + [Transaction()]) == [Transaction()]
    assert len(compared) == 50


def test_transaction_subset_order():
    a, b = Atom("a"), Atom("b")
    small = Transaction(frozenset({a}), frozenset())
    big = Transaction(frozenset({a}), frozenset({b}))
    assert small <= big and not big <= small
    assert not Transaction(frozenset(), frozenset({a})) <= big
    assert len(big) == big.size == 2
