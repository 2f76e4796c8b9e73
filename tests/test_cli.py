"""Command line and REPL behaviour, including the session invariants:
replaying history reproduces the current database, save then load is an
identity, undo restores the previous fact set exactly, and batch mode
reports the same transactions the REPL lists."""

import io
from pathlib import Path

import pytest

from vud.cli import Session, cmd_repl, main, parse_atom
from vud.lang import Atom, Database

DATA = Path(__file__).resolve().parent.parent / "data"
BASIC = str(DATA / "basic.dl")
STAFF = str(DATA / "staff.dl")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_true(capsys):
    code, out, _ = run(capsys, "query", BASIC, "p")
    assert code == 0
    assert out == "true\n"


def test_query_false(capsys):
    code, out, _ = run(capsys, "query", BASIC, "b")
    assert code == 0
    assert out == "false\n"


def test_query_eq_is_decided_on_its_arguments(capsys):
    assert run(capsys, "query", BASIC, "eq(a,a)") == (0, "true\n", "")
    assert run(capsys, "query", BASIC, "eq(a,b)") == (0, "false\n", "")
    assert run(capsys, "query", BASIC, "eq(a)") == (1, "", "error: eq takes exactly two arguments\n")


CHAIN_TEXT = "p1 :- a1, p2.\np1 :- b1, p2.\np2 :- a2.\np2 :- b2.\na1.\nb1.\na2.\nb2.\n"


def test_query_on_a_monotone_database_is_goal_directed(tmp_path, capsys, magic_queries):
    chain = tmp_path / "chain.dl"
    chain.write_text(CHAIN_TEXT)
    assert run(capsys, "query", str(chain), "p1") == (0, "true\n", "")
    chain.write_text("".join(line + "\n" for line in CHAIN_TEXT.splitlines() if line not in ("a2.", "b2.")))
    assert run(capsys, "query", str(chain), "p1") == (0, "false\n", "")
    assert magic_queries == [Atom("p1"), Atom("p1")]
    # eq is decided on its arguments, not by the database
    assert run(capsys, "query", BASIC, "eq(a,a)") == (0, "true\n", "")
    assert len(magic_queries) == 2


def test_query_wrong_arity_exits_1(capsys):
    # the message an update with the same atom gives
    wrong = (1, "", "error: p takes 0 arguments, got p(a)\n")
    assert run(capsys, "query", BASIC, "p(a)") == wrong
    assert run(capsys, "update", BASIC, "--delete", "p(a)") == wrong


def test_model_lists_sorted_atoms(capsys):
    code, out, _ = run(capsys, "model", BASIC)
    assert code == 0
    assert out.splitlines() == ["a", "e", "f", "p", "q"]


def test_check_summary(capsys):
    code, out, _ = run(capsys, "check", STAFF)
    assert code == 0
    assert out == "ok: 1 rules, 2 constraints, 4 facts, 1 strata\n"


def test_update_delete_applies_first_alternative(capsys):
    code, out, _ = run(capsys, "update", BASIC, "--delete", "p")
    assert code == 0
    assert out.splitlines() == ["-a.", "edb: {e, f}"]


def test_update_insert_staff(capsys):
    code, out, _ = run(
        capsys, "update", STAFF, "--insert", "staff_chair(aravindan,gerhard)"
    )
    assert code == 0
    assert out.splitlines()[0] == "+staff_group(aravindan,infor2)."


def test_update_all_lists_materialized_alternatives(capsys):
    code, out, _ = run(
        capsys, "update", BASIC, "--delete", "p", "--variant", "materialized", "--all"
    )
    assert code == 0
    assert out.splitlines() == ["1: -a.", "2: -a, -e.", "3: -a, -e, -f."]


def test_update_tsv(capsys):
    code, out, _ = run(capsys, "update", BASIC, "--delete", "p", "--format", "tsv")
    assert code == 0
    assert out == "1\t-\ta\n"


def test_update_goal_that_would_invalidate_the_database_exits_1(capsys):
    for goal, reason in (("eq(a,b)", "eq is built in"), ("staff_group(aravindan)", "takes 2 arguments")):
        code, out, err = run(capsys, "update", STAFF, "--insert", goal)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and reason in err


def test_update_unrealizable_exits_2(capsys):
    code, out, err = run(capsys, "update", BASIC, "--insert", "q", "--delete", "p")
    assert code == 2
    assert out == ""
    assert "cannot realise" in err


def test_update_out_of_budget_exits_2(tmp_path, capsys, budget_probe_text):
    path = tmp_path / "probe.dl"
    path.write_text(budget_probe_text)
    code, out, err = run(capsys, "update", str(path), "--insert", "v3(b,a)")
    assert code == 2
    assert out == ""
    assert "search budget ran out" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "head, subgoal, goal, want",
    [("p", "a%d", "p", "1: +a0."), ("p(X)", "a%d(X)", "p(k)", "1: +a0(k).")],
    ids=["ground", "variable-head"],
)
def test_update_insert_through_a_1500_literal_body(tmp_path, capsys, head, subgoal, goal, want):
    # every subgoal but the first stored: folding the body into binary
    # rules once recursed per literal and overflowed Python's stack
    n = 1500
    arg = "(k)" if "(" in head else ""
    text = "%s :- %s.\n" % (head, ", ".join(subgoal % i for i in range(n)))
    text += "".join("a%d%s.\n" % (i, arg) for i in range(1, n))
    path = tmp_path / "long.dl"
    path.write_text(text)
    code, out, err = run(capsys, "update", str(path), "--insert", goal, "--all")
    assert (code, out.splitlines(), err) == (0, [want], "")


def test_update_insert_through_two_gaps_of_a_1500_literal_body(tmp_path, capsys):
    # a0 and a750 missing: deciding the helper atom of p's folded body nests
    # one helper per stored subgoal down to a750, about 750 deep
    n = 1500
    text = "p :- %s.\n" % ", ".join("a%d" % i for i in range(n))
    text += "".join("a%d.\n" % i for i in range(1, n) if i != 750)
    path = tmp_path / "gaps.dl"
    path.write_text(text)
    code, out, err = run(capsys, "update", str(path), "--insert", "p", "--all")
    assert (code, out.splitlines(), err) == (0, ["1: +a0, +a750."], "")


def test_round_limit_is_no_option(capsys):
    # argparse mistakes leave through the parser's own SystemExit
    with pytest.raises(SystemExit) as exit_:
        main(["update", BASIC, "--delete", "p", "--max-iter", "3"])
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "vud: error: unrecognized arguments: --max-iter 3" in err.splitlines()
    assert "Traceback" not in err


def test_unstratifiable_exits_3(tmp_path, capsys):
    path = tmp_path / "cyc.dl"
    path.write_text("p :- not q, a.\nq :- not p, a.\na.\n")
    code, _, err = run(capsys, "model", str(path))
    assert code == 3
    assert "negation" in err


def test_invalid_program_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.dl"
    path.write_text("p(X) :- q.\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "unsafe-rule" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "model", str(DATA / "nope.dl"))
    assert code == 1
    assert "error" in err


def test_file_not_utf8_exits_1(capsys, tmp_path):
    path = tmp_path / "latin1.dl"
    path.write_bytes("p(caf\u00e9).\n".encode("latin-1"))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "utf-8" in err


def test_nonground_query_atom_exits_1(capsys):
    code, _, err = run(capsys, "query", BASIC, "p(X)")
    assert code == 1
    assert "variables" in err


def test_parse_atom_accepts_trailing_dot():
    assert parse_atom("staff_chair(a, b).") == Atom("staff_chair", ("a", "b"))
    assert parse_atom("p") == Atom("p")


def session(path=BASIC, **kwargs) -> Session:
    return Session(Database.load(path), **kwargs)


def test_repl_lists_without_applying():
    s = session()
    text = s.execute("delete p.")
    assert text.splitlines() == ["1: -a.", "choose <n> to apply"]
    # nothing applied until choose
    assert s.db == s.initial
    assert s.execute("query p.") == "true"


def test_repl_choose_applies_and_updates_history():
    s = session()
    s.execute("delete p.")
    text = s.execute("choose 1")
    assert text.splitlines() == ["applied: -a.", "edb: {e, f}"]
    assert s.execute("query p.") == "false"
    assert len(s.history) == 1


def test_repl_history_replay_reproduces_db():
    s = session()
    s.execute("delete p.")
    s.execute("choose 1")
    s.execute("insert q.")
    s.execute("choose 1")
    assert s.replay() == s.db


def test_repl_undo_restores_edb_exactly():
    s = session()
    before = s.db.edb
    s.execute("delete p.")
    s.execute("choose 1")
    assert s.db.edb != before
    out = s.execute("undo")
    assert s.db.edb == before
    assert out == "edb: {a, e, f}"


def test_repl_undo_on_empty_history():
    s = session()
    assert s.execute("undo") == "nothing to undo"


def test_repl_save_load_identity(tmp_path):
    s = session()
    s.execute("delete p.")
    s.execute("choose 1")
    path = tmp_path / "saved.dl"
    s.execute("save %s" % path)
    assert Database.load(str(path)) == s.db


def test_repl_show_commands():
    s = session()
    assert s.execute("show model").splitlines() == ["a", "e", "f", "p", "q"]
    ic = s.execute("show ic")
    assert ":- b." in ic and "satisfied" in ic
    tree = s.execute("show tree a.")
    assert "(success)" in tree
    assert s.execute("show tree p.").splitlines() == [
        "p",
        "  a, e",
        "    e",
        "      [] (success)",
        "  b, f (failure)",
        "  q",
        "    a, f",
        "      f",
        "        [] (success)",
        "    b, e (failure)",
        "    a",
        "      [] (success)",
    ]


def test_repl_query_eq_agrees_with_its_proof_tree():
    s = session()
    assert s.execute("query eq(a,a).") == "true"
    assert s.execute("show tree eq(a,a).").splitlines() == ["eq(a,a)", "  [] (success)"]
    assert s.execute("query eq(a,b).") == "false"
    assert s.execute("show tree eq(a).") == "error: eq takes exactly two arguments"


def test_repl_query_and_tree_reject_wrong_arity():
    s = session()
    assert s.execute("query p(a).") == "error: p takes 0 arguments, got p(a)"
    assert s.execute("show tree p(a).") == "error: p takes 0 arguments, got p(a)"
    assert s.execute("show tree a(b,c).") == "error: a takes 0 arguments, got a(b,c)"


def test_repl_error_handling():
    s = session()
    assert s.execute("frobnicate").startswith("error")
    assert s.execute("choose 1").startswith("error")
    assert s.execute("query p").startswith("error")  # missing dot
    assert s.execute("insert b.").startswith("error: cannot realise")
    assert s.execute("insert eq(a,b).").startswith("error: eq is built in")
    assert s.execute("insert p(a).").startswith("error: p takes 0 arguments")
    # session still usable afterwards
    assert s.execute("query p.") == "true"


def test_repl_save_to_missing_directory_keeps_session(tmp_path):
    s = session()
    missing = tmp_path / "no" / "such" / "x.dl"
    reply = s.execute("save %s" % missing)
    assert reply.startswith("error: ") and str(missing) in reply
    assert s.execute("query p.") == "true"


def test_repl_matches_batch_transactions(capsys):
    _, batch_out, _ = run(
        capsys, "update", BASIC, "--delete", "p", "--variant", "materialized", "--all"
    )
    s = session(variant="materialized")
    listing = s.execute("delete p.").splitlines()[:-1]
    assert listing == batch_out.splitlines()


def test_repl_loop_over_streams():
    db = Database.load(BASIC)
    inp = io.StringIO("query p.\ndelete p.\nchoose 1\nquery p.\nquit\n")
    out = io.StringIO()

    class Args:
        variant = "minimal"

    assert cmd_repl(db, Args(), out, inp) == 0
    text = out.getvalue()
    assert text.count("vud> ") == 5
    assert "true" in text and "false" in text and "applied: -a." in text
