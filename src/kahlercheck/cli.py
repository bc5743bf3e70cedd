"""Command-line interface.

    kahlercheck analyze <file> [--json] [--explain] [--oracle]
    kahlercheck batch <dir> [--json]
    kahlercheck fixtures <dir>

Exit codes: 0 success, 1 usage or I/O failure while writing fixtures,
2 unreadable or unparseable input, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures, report
from .obstructions import ObstructionReport
from .presentation import ParseError, parse_presentation


def _load(path: Path):
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}", 0, 0) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; locate it as the parser would.
        lines = (data[:exc.start].decode("utf-8") + "\ufffd").splitlines()
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                         len(lines), len(lines[-1])) from exc
    return parse_presentation(text)


def cmd_analyze(path: Path, as_json: bool, explain: bool, oracle: bool,
                out=sys.stdout, err=sys.stderr) -> int:
    try:
        pres = _load(path)
    except ParseError as exc:
        print(f"{path}: {exc}", file=err)
        return 2
    doc = report.build_report(pres)
    if oracle:
        mismatch = report.oracle_mismatch(pres, doc)
        if mismatch is not None:
            print(f"{path}: {mismatch}", file=err)
            return 3
    if as_json:
        out.write(report.render_json(doc))
    else:
        out.write(report.render_text(doc, explain=explain))
    return 0


def _batch_rows(directory: Path) -> tuple[list[tuple[str, ObstructionReport]],
                                          list[tuple[str, str]]]:
    rows: list[tuple[str, ObstructionReport]] = []
    errors: list[tuple[str, str]] = []
    for path in sorted(p for p in directory.iterdir()
                       if p.is_file() and not p.name.startswith(".")):
        try:
            rows.append((path.name, report.build_report(_load(path))))
        except ParseError as exc:
            errors.append((path.name, str(exc)))
    return rows, errors


def cmd_batch(directory: Path, as_json: bool,
              out=sys.stdout, err=sys.stderr) -> int:
    if not directory.is_dir():
        print(f"{directory}: not a directory", file=err)
        return 2
    rows, errors = _batch_rows(directory)
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


def cmd_fixtures(directory: Path, out=sys.stdout, err=sys.stderr) -> int:
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


def main(argv: list[str] | None = None,
         out=sys.stdout, err=sys.stderr) -> int:
    args = build_parser().parse_args(argv)
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
