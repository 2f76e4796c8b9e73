"""Command line front end.

Batch subcommands (check, model, query, update) load a database file,
do one thing and exit.  ``repl`` keeps a session open so alternatives
can be inspected before one is applied.  Both paths call the same
engine entry points with the same defaults, so a batch update and the
corresponding REPL choose produce identical transactions.

Exit codes: 0 success, 1 parse or validation failure, 2 no realising
transaction found (the message says when the search budget ran out
first), 3 database not stratifiable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import IO

from .lang import (
    EQ,
    Atom,
    Database,
    Literal,
    NotStratifiableError,
    ParseError,
    Transaction,
    check_arity,
    format_database,
    stratify,
    validate,
)
from .semantics import build_proof_tree, check_ic, eq_holds, least_model, render_proof_tree
from .engine import UnrealizableError, UpdateRequest, view_update
from .insertion import derivable


def parse_atom(text: str) -> Atom:
    """Read one ground atom written as in a program, trailing dot optional;
    an eq atom needs its two arguments."""
    body = text.strip()
    if body.endswith("."):
        body = body[:-1].rstrip()
    if not body:
        raise ValueError("empty atom")
    db = Database.parse(body + ".")
    if len(db.rules) != 1 or not db.rules[0].is_fact:
        raise ValueError("%r is not a single atom" % text)
    atom = db.rules[0].head
    assert atom is not None
    if not atom.is_ground:
        raise ValueError("atom %s contains variables" % atom)
    if atom.pred == EQ and len(atom.args) != 2:
        raise ValueError("eq takes exactly two arguments")
    return atom


def load_database(path: str, err: IO[str]) -> Database | None:
    """Parse, validate and stratify a program file.

    Prints the validation problems and returns None when there are any.
    Parse and I/O errors and NotStratifiableError propagate to main, which
    exits 1 or 3.
    """
    db = Database.load(path)
    problems = validate(db)
    if problems:
        for v in problems:
            print("%s: %s" % (v.kind, v.message), file=err)
        return None
    stratify(db.rules)
    return db


def _truth(db: Database, atom: Atom) -> str:
    """The answer to a query: eq is decided on its arguments, any other
    atom by insertion.derivable; an atom of another arity than db's is an
    error."""
    check_arity(db, atom)
    holds = eq_holds(Literal(atom)) if atom.pred == EQ else derivable(db, atom)
    return "true" if holds else "false"


def _edb_line(db: Database) -> str:
    return "edb: {%s}" % ", ".join(str(a) for a in sorted(db.edb))


def _transaction_lines(tx: Transaction) -> list[str]:
    lines = ["+%s." % a for a in sorted(tx.additions)]
    lines += ["-%s." % a for a in sorted(tx.removals)]
    return lines or ["no change."]


def _alternative_lines(txs: tuple[Transaction, ...]) -> list[str]:
    return ["%d: %s." % (i, tx) for i, tx in enumerate(txs, start=1)]


def _tsv_rows(txs: tuple[Transaction, ...]) -> list[str]:
    rows = []
    for i, tx in enumerate(txs, start=1):
        adds = " ".join(str(a) for a in sorted(tx.additions)) or "-"
        dels = " ".join(str(a) for a in sorted(tx.removals)) or "-"
        rows.append("%d\t%s\t%s" % (i, adds, dels))
    return rows


def cmd_check(db: Database, args: argparse.Namespace, out: IO[str]) -> int:
    strata = stratify(db.rules)
    print(
        "ok: %d rules, %d constraints, %d facts, %d strata"
        % (len(db.idb), len(db.ic), len(db.edb), len(strata)),
        file=out,
    )
    return 0


def cmd_model(db: Database, args: argparse.Namespace, out: IO[str]) -> int:
    for atom in sorted(least_model(db)):
        print(atom, file=out)
    return 0


def cmd_query(db: Database, args: argparse.Namespace, out: IO[str]) -> int:
    print(_truth(db, parse_atom(args.atom)), file=out)
    return 0


def cmd_update(db: Database, args: argparse.Namespace, out: IO[str]) -> int:
    request = UpdateRequest(
        inserts=tuple(parse_atom(a) for a in args.insert),
        deletes=tuple(parse_atom(a) for a in args.delete),
    )
    result = view_update(db, request, variant=args.variant)
    if args.format == "tsv":
        rows = _tsv_rows(result.alternatives if args.all else (result.chosen,))
        for row in rows:
            print(row, file=out)
        return 0
    if args.all:
        for line in _alternative_lines(result.alternatives):
            print(line, file=out)
        return 0
    for line in _transaction_lines(result.chosen):
        print(line, file=out)
    print(_edb_line(result.database), file=out)
    return 0


@dataclass
class Session:
    """Interactive state: a database plus the applied-transaction history.

    The current database is always reproducible by replaying history
    from the initial one, which is what undo relies on.
    """

    initial: Database
    variant: str = "minimal"
    db: Database = field(init=False)
    history: list[Transaction] = field(default_factory=list)
    pending: tuple[Transaction, ...] = ()
    done: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.db = self.initial

    def replay(self) -> Database:
        db = self.initial
        for tx in self.history:
            db = tx.apply(db)
        return db

    def execute(self, line: str) -> str:
        """Run one command, returning the text to show."""
        try:
            return self._dispatch(line.strip())
        except (ValueError, OSError, UnrealizableError) as exc:
            return "error: %s" % exc

    def _dispatch(self, line: str) -> str:
        if not line:
            return ""
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "quit":
            self.done = True
            return ""
        if word == "query":
            return _truth(self.db, parse_atom(self._dotted(rest)))
        if word in ("insert", "delete"):
            atom = parse_atom(self._dotted(rest))
            request = (
                UpdateRequest(inserts=(atom,))
                if word == "insert"
                else UpdateRequest(deletes=(atom,))
            )
            result = view_update(self.db, request, variant=self.variant)
            self.pending = result.alternatives
            lines = _alternative_lines(self.pending)
            lines.append("choose <n> to apply")
            return "\n".join(lines)
        if word == "choose":
            return self._choose(rest)
        if word == "show":
            return self._show(rest)
        if word == "save":
            if not rest:
                return "error: save needs a path"
            with open(rest, "w", encoding="utf-8") as fh:
                fh.write(format_database(self.db))
            return "saved %s" % rest
        if word == "undo":
            if not self.history:
                return "nothing to undo"
            self.history.pop()
            self.db = self.replay()
            self.pending = ()
            return _edb_line(self.db)
        return "error: unknown command %r" % word

    @staticmethod
    def _dotted(rest: str) -> str:
        if not rest.endswith("."):
            raise ValueError("expected a trailing '.' after the atom")
        return rest

    def _choose(self, rest: str) -> str:
        if not self.pending:
            return "error: nothing to choose from"
        try:
            index = int(rest)
        except ValueError:
            return "error: choose needs a number"
        if not 1 <= index <= len(self.pending):
            return "error: choose a number between 1 and %d" % len(self.pending)
        tx = self.pending[index - 1]
        self.history.append(tx)
        self.db = tx.apply(self.db)
        self.pending = ()
        return "applied: %s.\n%s" % (tx, _edb_line(self.db))

    def _show(self, rest: str) -> str:
        if rest == "model":
            return "\n".join(str(a) for a in sorted(least_model(self.db))) or "(empty)"
        if rest == "ic":
            if not self.db.ic:
                return "no constraints"
            lines = ["%s." % r for r in self.db.ic]
            violated = check_ic(self.db)
            if violated:
                lines += ["violated: %s." % r for r in violated]
            else:
                lines.append("all constraints satisfied")
            return "\n".join(lines)
        if rest.startswith("tree "):
            atom = parse_atom(rest[len("tree "):])
            check_arity(self.db, atom)
            return render_proof_tree(build_proof_tree(self.db, atom))
        return "error: show model, show tree <atom>, or show ic"


def cmd_repl(
    db: Database, args: argparse.Namespace, out: IO[str], inp: IO[str]
) -> int:
    session = Session(db, variant=args.variant)
    while True:
        out.write("vud> ")
        out.flush()
        line = inp.readline()
        if not line:
            break
        text = session.execute(line)
        if text:
            print(text, file=out)
        if session.done:
            break
    return 0


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for unrealizable updates, so command line
    # mistakes report as ordinary parse failures instead
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vud", description="deductive database view updates")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="program file")
        return p

    with_file("check", "validate a program file")
    with_file("model", "print the perfect model")
    q = with_file("query", "test whether a ground atom holds")
    q.add_argument("atom")

    u = with_file("update", "change the facts so view atoms (dis)appear")
    u.add_argument("--insert", action="append", default=[], metavar="ATOM")
    u.add_argument("--delete", action="append", default=[], metavar="ATOM")
    u.add_argument("--variant", choices=("minimal", "materialized"), default="minimal")
    u.add_argument("--all", action="store_true", help="list every alternative instead of applying the first")
    u.add_argument("--format", choices=("text", "tsv"), default="text")

    r = with_file("repl", "interactive session")
    r.add_argument("--variant", choices=("minimal", "materialized"), default="minimal")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        db = load_database(args.file, err)
        if db is None:
            return 1
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=err)
        return 1
    except NotStratifiableError as exc:
        print("error: %s" % exc, file=err)
        return 3
    try:
        if args.command == "check":
            return cmd_check(db, args, out)
        if args.command == "model":
            return cmd_model(db, args, out)
        if args.command == "query":
            return cmd_query(db, args, out)
        if args.command == "update":
            return cmd_update(db, args, out)
        if args.command == "repl":
            return cmd_repl(db, args, out, sys.stdin)
    except UnrealizableError as exc:
        print("error: %s" % exc, file=err)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=err)
        return 1
    raise AssertionError("unhandled command %r" % args.command)


if __name__ == "__main__":
    raise SystemExit(main())
