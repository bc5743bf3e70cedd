"""Command-line interface.

    kahlercheck analyze <file> [--json] [--explain] [--oracle]
    kahlercheck batch <dir> [--json]
    kahlercheck fixtures <dir>

Exit codes: 0 success, 1 I/O failure while writing fixtures, or stdout
from ``kahlercheck.__main__.main``, which ``python -m kahlercheck`` and
the console script both run (one line, none for a closed pipe; a
process started with stdout closed prints the line and runs no
command), 2 usage error, unreadable or unparseable input, or a parse or
analysis that failed (for example with a MemoryError, also one raised
while ``__main__.main`` loads this module; reported as one line, never
a traceback), 3 oracle mismatch.

``main`` parses each command line with one parser kept for the process,
so in-process callers build it once.

``batch`` analyzes its files in interleaved shares, one per usable CPU:
it forks a child for each share but the first, which it runs itself,
and prints the rows in name order, the same bytes as one serial pass;
``--json`` writes them from one template per row (``_json_document``).
"""

from __future__ import annotations

import argparse
import errno
import functools
import marshal
import os
import sys
import threading
from json.encoder import encode_basestring
from pathlib import Path

from . import fixtures, report
from .presentation import ParseError, parse_presentation


class UnreadableInput(Exception):
    """An input file that could not be read; it has no location."""


def _load(path: Path):
    try:
        data = _read(path)
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


def _read(path: Path) -> bytes:
    """The bytes of a file, read with ``os.read`` until EOF: no file
    object, no ``fstat``, no ``lseek``.  A file of one read is that one
    chunk, not a copy (``bytes.join`` of one item returns it)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def cmd_analyze(path: Path, as_json: bool, explain: bool, oracle: bool, out, err) -> int:
    """Analyze one file, then write its document to out chunk by chunk.

    A failed chunk leaves those before it written; an OSError from
    ``out.write`` propagates, for ``__main__.main`` to report."""
    try:
        doc = report.build_report(_load(path))
        mismatch = report.oracle_mismatch(doc) if oracle else None
        chunks = report.json_chunks(doc) if as_json else report.text_chunks(doc, explain)
    except Exception as exc:   # e.g. MemoryError: a report line, not a traceback
        print(f"{path}: {_failure(exc)}", file=err)
        return 2
    if mismatch is not None:
        print(f"{path}: {mismatch}", file=err)
        return 3
    while True:
        try:
            chunk = next(chunks, None)
        except Exception as exc:   # the chunks before it stay written
            print(f"{path}: {_failure(exc)}", file=err)
            return 2
        if chunk is None:
            return 0
        out.write(chunk)


def _failure(exc: Exception) -> str:
    """The one line a failed file reports after its path or name.

    A ParseError or UnreadableInput is its message; any other exception
    is ``Type: message``, or ``Type`` without one.
    """
    detail = str(exc)
    if isinstance(exc, (ParseError, UnreadableInput)):
        return detail
    return type(exc).__name__ + (": " + detail if detail else "")


def _summaries(paths: list[Path]) -> list[tuple]:
    """One row per file: ``(name, n, s, q, dim2, overall)``, or
    ``(name, message)`` for a file that failed."""
    rows: list[tuple] = []
    for path in paths:
        name = _shown(path.name)
        try:
            doc = report.build_report(_load(path))
            rows.append((name, doc.n, doc.s, doc.q, doc.dim2, doc.overall.value))
        except Exception as exc:   # e.g. MemoryError: one file never aborts the batch
            rows.append((name, _shown(_failure(exc))))
    return rows


def _shown(text: str) -> str:
    """text with each undecodable path byte escaped as stderr shows it."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or tell."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _batch_rows(paths: list[Path]) -> list[tuple]:
    """``_summaries(paths)``, worked out in interleaved shares, one per
    usable CPU.

    Share w is ``paths[w::shares]``.  The parent forks a child for each
    share but the first, which it runs itself; a child sends its rows
    back through a pipe as ``marshal`` data.  A share whose child could
    not be forked, failed or sent data that does not load is run again
    by the parent, so the rows are those of one serial pass.  No child
    is forked for one share, or while another thread runs: forking a
    process with threads is unsafe.
    """
    shares = min(_cpus(), len(paths))
    if shares < 2 or threading.active_count() > 1:
        return _summaries(paths)
    children: dict[int, tuple[int, int]] = {}   # share -> (pid, read end of its pipe)
    try:
        for w in range(1, shares):
            try:
                children[w] = _forked(paths[w::shares])
            except OSError:   # no process to spare: the parent runs the rest
                break
        rows: list = [None] * len(paths)
        for w in range(shares):
            share = _received(*children.pop(w)) if w in children else None
            rows[w::shares] = share if share is not None else _summaries(paths[w::shares])
    finally:
        for pid, fd in children.values():   # left only if the parent raised
            os.close(fd)
            os.kill(pid, 9)   # SIGKILL
            os.waitpid(pid, 0)
    return rows


def _forked(paths: list[Path]) -> tuple[int, int]:
    """Fork a child that writes ``marshal.dumps(_summaries(paths))`` to a
    pipe; its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(_summaries(paths)))
            code = 0
        finally:
            # never flush the stdio buffers copied from the parent, never
            # return into the caller
            os._exit(code)
    os.close(write)
    return pid, read


def _received(pid: int, fd: int) -> list | None:
    """The rows a child sent, or None if it failed; the child is reaped."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()   # to EOF first: a share can outgrow the pipe buffer
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        return None
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return None


def _listed(directory: Path) -> list[Path]:
    """The files of directory that ``batch`` reads, in name order: each
    entry whose name does not start with a dot and that is a file, or a
    link to one.

    The types come from ``os.scandir``, so a file costs no ``stat``.  The
    paths are the children ``iterdir`` makes: ``directory / name`` would
    parse each name and intern it, and a process that runs ``batch`` again
    and again would churn the interpreter's table of interned strings.
    """
    with os.scandir(directory) as entries:
        files = {e.name for e in entries if not e.name.startswith(".") and _is_file(e)}
    return sorted((p for p in directory.iterdir() if p.name in files),
                  key=lambda p: p.name)


def _is_file(entry: os.DirEntry) -> bool:
    """``Path.is_file`` of the entry: a link that leads nowhere (missing,
    through a file, or in a loop) is not a file; other errors raise."""
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            return False
        raise


def cmd_batch(directory: Path, as_json: bool, out, err) -> int:
    if not directory.is_dir():
        print(f"{directory}: not a directory", file=err)
        return 2
    try:
        paths = _listed(directory)
    except OSError as exc:
        print(f"{directory}: cannot read {directory}: {exc.strerror or exc}", file=err)
        return 2
    rows = _batch_rows(paths)
    good = [row for row in rows if len(row) == 6]
    errors = [row for row in rows if len(row) == 2]
    if as_json:
        out.write(_json_document(good, errors))
    else:
        width = max([len("name")] + [len(row[0]) for row in good])
        out.write(f"{'name'.ljust(width)}  {'n':>3} {'s':>3} {'q':>3} "
                  f"{'dim2':>5}  overall\n")
        for name, n, s, q, dim2, overall in good:
            out.write(f"{name.ljust(width)}  {n:>3} {s:>3} {q:>3} {dim2:>5}  {overall}\n")
        for name, msg in errors:
            out.write(f"error: {name}: {msg}\n")
    return 2 if errors else 0


_JSON_ROW = ('    {{\n      "name": {},\n      "n": {},\n      "s": {},\n      "q": {},\n'
             '      "dim_gamma2_gamma3": {},\n      "overall": {}\n    }}')
_JSON_ERROR = '    {{\n      "name": {},\n      "error": {}\n    }}'


def _json_document(good: list[tuple], errors: list[tuple]) -> str:
    """``json.dumps({"schema": 1, "rows": ..., "errors": ...}, indent=2,
    ensure_ascii=False) + "\\n"`` of the summary rows, from the templates
    above; each string goes through ``encode_basestring``, as in
    ``json.dumps`` with ``ensure_ascii=False``."""
    rows = [_JSON_ROW.format(encode_basestring(name), n, s, q, dim2, encode_basestring(overall))
            for name, n, s, q, dim2, overall in good]
    failed = [_JSON_ERROR.format(encode_basestring(name), encode_basestring(msg))
              for name, msg in errors]
    return (f'{{\n  "schema": 1,\n  "rows": {_json_list(rows)},\n'
            f'  "errors": {_json_list(failed)}\n}}\n')


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def cmd_fixtures(directory: Path, out, err) -> int:
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
    out, err = out or sys.stdout, err or sys.stderr
    if args.command == "analyze":
        return cmd_analyze(args.file, args.json, args.explain, args.oracle, out, err)
    if args.command == "batch":
        return cmd_batch(args.dir, args.json, out, err)
    if args.command == "fixtures":
        return cmd_fixtures(args.dir, out, err)
    raise AssertionError(f"unhandled command {args.command!r}")

