"""Command-line interface.

    kahlercheck analyze <file> [--json] [--explain] [--oracle]
    kahlercheck batch <dir> [--json]
    kahlercheck fixtures <dir>

Exit codes: 0 success, 1 I/O failure while writing fixtures, 2 usage
error, unreadable or unparseable input, or a parse or analysis that
failed (for example with a MemoryError; reported as one line, never a
traceback), 3 oracle mismatch.

``main`` parses each command line with one parser kept for the process,
so in-process callers build it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fixtures, report
from .obstructions import ObstructionReport
from .presentation import ParseError, parse_presentation


# Longest single write of an analyze document, in characters.  Text-mode
# stdout encodes each write whole, so slicing bounds that copy.
WRITE_SLICE = 1 << 20


class UnreadableInput(Exception):
    """An input file that could not be read; it has no location."""


def _load(path: Path):
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; locate it as the parser would.
        lines = (data[:exc.start].decode("utf-8") + "\ufffd").splitlines()
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                         len(lines), len(lines[-1])) from exc
    return parse_presentation(text)


def cmd_analyze(path: Path, as_json: bool, explain: bool, oracle: bool,
                out=None, err=None) -> int:
    out, err = out or sys.stdout, err or sys.stderr
    try:
        pres = _load(path)
        doc = report.build_report(pres)
        mismatch = report.oracle_mismatch(pres, doc) if oracle else None
        if mismatch is None:
            text = (report.render_json(doc) if as_json
                    else report.render_text(doc, explain=explain))
    except Exception as exc:   # e.g. MemoryError: a report line, not a traceback
        print(f"{path}: {_failure(exc)}", file=err)
        return 2
    if mismatch is not None:
        print(f"{path}: {mismatch}", file=err)
        return 3
    for start in range(0, len(text), WRITE_SLICE):
        out.write(text[start:start + WRITE_SLICE])
    return 0


def _failure(exc: Exception) -> str:
    """The one line a failed file reports after its path or name.

    A ParseError or UnreadableInput is its message; any other exception
    is ``Type: message``, or ``Type`` without one.
    """
    detail = str(exc)
    if isinstance(exc, (ParseError, UnreadableInput)):
        return detail
    return type(exc).__name__ + (": " + detail if detail else "")


def _batch_rows(paths: list[Path]) -> tuple[list[tuple[str, ObstructionReport]],
                                           list[tuple[str, str]]]:
    rows: list[tuple[str, ObstructionReport]] = []
    errors: list[tuple[str, str]] = []
    for path in paths:
        try:
            rows.append((path.name, report.build_report(_load(path))))
        except Exception as exc:   # e.g. MemoryError: one file never aborts the batch
            errors.append((path.name, _failure(exc)))
    return rows, errors


def cmd_batch(directory: Path, as_json: bool, out=None, err=None) -> int:
    out, err = out or sys.stdout, err or sys.stderr
    if not directory.is_dir():
        print(f"{directory}: not a directory", file=err)
        return 2
    try:
        paths = sorted(p for p in directory.iterdir()
                       if p.is_file() and not p.name.startswith("."))
    except OSError as exc:
        print(f"{directory}: cannot read {directory}: {exc.strerror or exc}", file=err)
        return 2
    rows, errors = _batch_rows(paths)
    if as_json:
        payload = {
            "schema": 1,
            "rows": [
                {"name": name, "n": doc.n, "s": doc.s, "q": doc.q,
                 "dim_gamma2_gamma3": doc.dim2, "overall": doc.overall.value}
                for name, doc in rows
            ],
            "errors": [{"name": name, "error": msg} for name, msg in errors],
        }
        out.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    else:
        width = max([len("name")] + [len(name) for name, _ in rows])
        out.write(f"{'name'.ljust(width)}  {'n':>3} {'s':>3} {'q':>3} "
                  f"{'dim2':>5}  overall\n")
        for name, doc in rows:
            out.write(f"{name.ljust(width)}  {doc.n:>3} {doc.s:>3} {doc.q:>3} "
                      f"{doc.dim2:>5}  {doc.overall.value}\n")
        for name, msg in errors:
            out.write(f"error: {name}: {msg}\n")
    return 2 if errors else 0


def cmd_fixtures(directory: Path, out=None, err=None) -> int:
    out, err = out or sys.stdout, err or sys.stderr
    try:
        written = fixtures.write_corpus(directory)
    except OSError as exc:
        print(f"{directory}: {exc.strerror or exc}", file=err)
        return 1
    print(f"wrote {len(written)} files to {directory}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlercheck",
        description="Two-step nilpotent invariants of finitely presented "
                    "groups, with Kahler fundamental-group obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one presentation file")
    p_analyze.add_argument("file", type=Path)
    p_analyze.add_argument("--json", action="store_true", help="emit JSON")
    p_analyze.add_argument("--explain", action="store_true",
                           help="include fired inequalities and the dual differential")
    p_analyze.add_argument("--oracle", action="store_true",
                           help="re-verify dimensions through the independent evaluator")

    p_batch = sub.add_parser("batch", help="summarize a directory of files")
    p_batch.add_argument("dir", type=Path)
    p_batch.add_argument("--json", action="store_true", help="emit JSON")

    p_fixtures = sub.add_parser("fixtures", help="write the bundled corpus")
    p_fixtures.add_argument("dir", type=Path)
    return parser


# The parser ``main`` uses, built on its first call and then kept for the
# process: building one costs more than parsing a command line with it,
# and parsing leaves it unchanged (each call gets a new namespace).
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """Run one command; out and err default to sys.stdout and sys.stderr at call time."""
    args = _parser().parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args.file, args.json, args.explain, args.oracle,
                           out=out, err=err)
    if args.command == "batch":
        return cmd_batch(args.dir, args.json, out=out, err=err)
    if args.command == "fixtures":
        return cmd_fixtures(args.dir, out=out, err=err)
    raise AssertionError(f"unhandled command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())
