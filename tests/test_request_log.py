"""A request's SearchLog keeps the changed databases the request reaches.

Transaction.apply and undo_each, given the request's log, return the
instance the request built before for the same fact set, with the model and
the violations it keeps.  These tests answer every request of the settled
corpora (tests/test_settled.py) a second time with the log dropped from
apply, so every changed database is built afresh, and require the same
answers; and they check that nothing the log keeps outlives the request.
"""

import gc
import weakref

from vud import engine
from vud.engine import UnrealizableError, UpdateRequest, view_update
from vud.lang import Atom, Database, SearchLog, Transaction

from test_settled import _answers, _databases


def test_kept_databases_give_the_fresh_answers(monkeypatch):
    dbs = _databases()
    kept = {name: _answers(db) for name, db in dbs}
    apply = Transaction.apply
    monkeypatch.setattr(Transaction, "apply", lambda self, db, log=None: apply(self, db))
    for name, db in dbs:
        # a fresh copy, so nothing computed in the first run is reused
        assert _answers(Database(db.rules)) == kept[name], name


def test_log_reuses_an_instance_only_with_the_same_rules():
    db = Database.parse("p :- a, not b.\na.\nb.\n")
    log = SearchLog()
    cut = Transaction(frozenset(), frozenset({Atom("b")}))
    first = cut.apply(db, log)
    assert first is not db and cut.apply(db, log) is first
    both = Transaction(frozenset(), frozenset({Atom("a"), Atom("b")}))
    assert next(both.undo_each(db, {Atom("a")}, log)) is first
    assert cut.apply(db) is not first
    # an equal database with rules of its own gets an instance of its own
    twin = Database(db.rules)
    other = cut.apply(twin, log)
    assert other is not first and other.idb is twin.idb and other == first


def test_nothing_the_log_keeps_outlives_the_request(monkeypatch):
    logs = []

    class RecordedLog(engine.SearchLog):
        def __init__(self, **fields) -> None:
            super().__init__(**fields)
            logs.append(self)

    monkeypatch.setattr(engine, "SearchLog", RecordedLog)
    db = Database.parse("p :- a, not b.\np :- c, d.\nq :- c, not e.\na.\nc.\nd.\n:- q, f.\n")
    result = view_update(db, UpdateRequest(deletes=(Atom("p"),)))
    # storing b breaks the denial, and nothing else makes b true
    try:
        view_update(Database.load("data/basic.dl"), UpdateRequest(inserts=(Atom("b"),)))
    except UnrealizableError as e:
        # a traceback keeps the request's frames alive, as it would any local
        error = e.with_traceback(None)
    assert len(logs) == 2 and all(log.databases for log in logs)
    kept = [weakref.ref(d) for log in logs for d in log.databases.values()]
    assert any(r() is result.database for r in kept)
    refs = [weakref.ref(log) for log in logs]
    del logs[:]
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert [r() for r in kept if r() is not None] == [result.database]
    assert str(error).startswith("cannot realise +b")
