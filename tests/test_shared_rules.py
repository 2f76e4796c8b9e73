"""Rule objects shared between databases parsed from the same rule text,
and the compiled programs and kept forms that live as long as they do."""

import gc
import weakref
from collections import OrderedDict

from vud import insertion, semantics
from vud.engine import UpdateRequest, view_update
from vud.insertion import insertion_candidates
from vud.lang import Atom, Database, Rule, Transaction, format_database
from vud.randgen import chain_database
from vud.revision import contract, revise
from vud.semantics import check_ic, kept_form, least_model

from strategies import long_chain_text

# helper rules (the long body folds), a negation and a denial, over
# predicates no other test uses, so no other database holds these rules
TEXT = "sp(X) :- sa(X), sb(X), sc(X).\nsq(X) :- sp(X), not sd(X).\n:- sd(X), se(X).\n"


class _Marker:
    """A form that records nothing: it lives exactly as long as the
    compiled program it is kept with."""

    def __init__(self, rules) -> None:
        pass


def test_databases_parsed_from_the_same_rule_text_share_their_rules_and_program():
    one = Database.parse(TEXT + "sa(k).\n")
    two = Database.parse("% the same rules over other facts\n" + TEXT + "sb(k).\nsd(j).\n")
    assert all(r is s for r, s in zip(one.idb + one.ic, two.idb + two.ic))
    assert one.idb is not two.idb
    assert semantics._compiled(one.idb) is semantics._compiled(two.idb)
    assert semantics._compiled(one.ic) is semantics._compiled(two.ic)
    assert insertion._form(one) is insertion._form(two)
    assert kept_form(one.idb, _Marker) is kept_form(two.idb, _Marker)
    # facts are parsed afresh
    assert Database.parse("sa(k).\n").rules[0] is not one.rules[-1]


def test_compiled_program_and_forms_go_with_the_last_database_of_their_rules():
    dbs = [Database.parse(TEXT + "sa(k).\nsb(k).\n"), Database.parse(TEXT + "sc(k).\n")]
    assert insertion_candidates(dbs[0], Atom("sp", ("k",)))
    form = insertion._form(dbs[0])
    assert form.helpers
    marker = weakref.ref(kept_form(dbs[0].idb, _Marker))
    refs = [weakref.ref(r) for r in dbs[0].idb + dbs[0].ic + form.helpers]
    del form
    dbs.pop(0)
    gc.collect()
    # the other database still holds the rules, so the program stays
    assert marker() is not None and all(r() is not None for r in refs)
    assert insertion_candidates(dbs[0], Atom("sp", ("k",)))
    assert kept_form(dbs[0].idb, _Marker) is marker()
    del dbs
    gc.collect()
    assert marker() is None
    assert [r() for r in refs] == [None] * len(refs)


def test_a_repeated_rule_statement_answers_as_two_equal_rules():
    text = "p :- a, q.\np :- a, q.\nq :- b.\nq :- c.\na.\nb.\nc.\n"
    db = Database.parse(text)
    assert db.idb[0] is db.idb[1]
    # the clauses as separate objects, as a parse without the memo gives
    apart = Database(tuple(Rule(r.head, r.body) for r in db.rules))
    assert apart.idb[0] is not apart.idb[1] and apart == db
    assert least_model(db) == least_model(apart) == {Atom(x) for x in "abcpq"}
    assert check_ic(db) == check_ic(apart) == ()
    cuts = (Transaction(removals=frozenset({Atom("a")})),
            Transaction(removals=frozenset({Atom("b"), Atom("c")})))
    for variant in ("minimal", "materialized"):
        got = view_update(db, UpdateRequest(deletes=(Atom("p"),)), variant=variant)
        want = view_update(apart, UpdateRequest(deletes=(Atom("p"),)), variant=variant)
        assert got.alternatives == want.alternatives == cuts
    assert contract(db, Atom("q")) == contract(apart, Atom("q"))
    cut = Database.parse("p :- a, q.\np :- a, q.\nq :- b.\nq :- c.\n")
    cut_apart = Database(tuple(Rule(r.head, r.body) for r in cut.rules))
    got = view_update(cut, UpdateRequest(inserts=(Atom("p"),)))
    assert got.alternatives == view_update(cut_apart, UpdateRequest(inserts=(Atom("p"),))).alternatives
    assert revise(cut, Atom("p")) == revise(cut_apart, Atom("p"))


def _chain_texts() -> list[str]:
    """The rule shapes of the chain workload, each full and with one
    link's facts removed: two-support chains of 5, 6 and 7 links and
    single-support chains of 12, 18 and 24."""
    texts = []
    for n in (5, 6, 7):
        full = format_database(chain_database(n))
        texts += [full, "".join(l for l in full.splitlines(True) if l not in ("a2.\n", "b2.\n"))]
    for n in (12, 18, 24):
        texts += [long_chain_text(n), long_chain_text(n, 3)]
    return texts


def _chain_pass(dbs: list[Database]) -> None:
    """The chain workload's requests on each full chain and its cut copy."""
    for full, cut in zip(dbs[::2], dbs[1::2]):
        top = Atom("p1") if "b1" in full.base_predicates else Atom("p0")
        least_model(full)
        for variant in ("minimal", "materialized"):
            view_update(full, UpdateRequest(deletes=(top,)), variant=variant)
        view_update(cut, UpdateRequest(inserts=(top,)))
        revise(cut, top)
        contract(full, top)


def test_reparsed_chain_shapes_find_their_compiled_programs(monkeypatch):
    """Parsing the chain shapes a second time, while the first parse's
    databases live, gives them the same rules, so the pass that follows
    finds every program compiled and evicts none from the cache."""

    class Counting(OrderedDict):
        evictions = 0

        def popitem(self, last=True):
            Counting.evictions += 1
            return super().popitem(last)

    monkeypatch.setattr(semantics, "_COMPILED", Counting())
    first = [Database.parse(text) for text in _chain_texts()]
    _chain_pass(first)
    # first stays alive, as the bench's last pass does while it re-parses
    again = [Database.parse(text) for text in _chain_texts()]
    kept = dict(semantics._COMPILED)
    Counting.evictions = 0
    _chain_pass(again)
    assert Counting.evictions == 0
    assert dict(semantics._COMPILED) == kept
