"""Hostile inputs, each run as a child ``python -m kahlercheck`` under bounds.

Every row holds its input files, the command line, an address-space bound
in KiB (as ``ulimit -v`` counts it), a wall-time bound, the exit code and
the lines the child must print.  The bound is set with ``RLIMIT_AS`` in
the child alone, so it covers the interpreter as well as the analysis.
Most bounds are about 4x the address space the row needs on Python 3.10,
3.11 and 3.13, so that a regression reaches them; a bound the row had
before is never loosened (``plain_tokens`` keeps 100 MB at 2x its need).
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from kahlercheck.fixtures import CORPUS, surface_text

import cases

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "data" / "batch_golden.txt"


class Row(NamedTuple):
    name: str
    files: dict       # file name (bytes where it is not UTF-8) -> text or bytes
    argv: tuple
    kib: int          # address-space bound
    seconds: float    # wall-time bound
    code: int
    out: tuple = ()   # lines stdout must hold
    err: tuple = ()   # stderr, line by line


class Result(NamedTuple):
    code: int
    out: str
    err: str
    seconds: float
    rss_mib: float   # 0 for a child killed at its time bound


def gens(n):
    return " ".join(f"x{i}" for i in range(n))


def chain(n, link):
    """The relators ``link.format(i, i + 1)`` for i < n - 1."""
    return " | ".join(link.format(i, i + 1) for i in range(n - 1))


def analyze(name, text, kib, seconds, out=(), flags=(), code=0, err=()):
    return Row(name, {"input.pres": text}, ("analyze", "input.pres", *flags),
               kib, seconds, code, out, err)


def refused(name, text, message, kib=100_000):
    return analyze(name, text, kib, 10, code=2, err=(f"input.pres: {message}",))


BATCH_FILES = {
    **{f"{name}.pres": text for name, text in CORPUS},
    "non_ascii.pres": "gens: x\nrels: x é\n",
    "non_utf8.pres": b"gens: x\nrels: x\xff\n",
    b"a\xff.pres": "gens: x y\nrels: (x,y)\n",
}
ERRORS = {"non_ascii.pres": "line 2, column 9: unexpected character 'é'",
          "non_utf8.pres": "line 2, column 8: invalid UTF-8 byte 0xff"}
PLAIN_TOKENS = "gens: x y\nrels: " + "x y " * 500000 + "\n"

ROWS = [
    Row("batch", BATCH_FILES, ("batch", "."), 75_000, 10, 2, (
        *GOLDEN.read_text(encoding="utf-8").splitlines(),
        "a\\udcff.pres                2   1   2     0  INCONCLUSIVE",
        *(f"error: {name}: {message}" for name, message in ERRORS.items()))),
    Row("batch_json", BATCH_FILES, ("batch", ".", "--json"), 75_000, 10, 2, (
        *(f'      "name": "{name}.pres",' for name, _ in CORPUS),
        '      "name": "a\\\\udcff.pres",',
        *(line for name, message in ERRORS.items()
          for line in (f'      "name": "{name}",', f'      "error": "{message}"')))),
    refused("deep_nest", cases.DEEP_NEST,
            "line 2, column 107: parentheses nested deeper than 100"),
    # refused once its commutator words near the letter limit, at 91-95 MB
    refused("long_nest", cases.LONG_NEST,
            "line 2, column 18: relator longer than 1000000 letters", 400_000),
    refused("huge_power", cases.HUGE_POWER,
            "line 2, column 12: relator longer than 1000000 letters"),
    refused("long_exponent", cases.LONG_EXPONENT,
            "line 2, column 9: exponent of 5000 digits is too long"),
    refused("non_utf8", b"gens: x\nrels: x\xff\n", "line 2, column 8: invalid UTF-8 byte 0xff"),
    # C(q,2) is 12,497,500 and 7140, but the degree-2 work is one sparse
    # relation, in the oracle's joint span as well
    *(analyze("wide_5000" + "_oracle" * oracle, f"gens: {gens(5000)}\nrels: (x0,x1)\n",
              80_000, 10, ("  dim W = 1", "  dim Gamma2/Gamma3 = 12497499",
                           "  surface genus match: none", "  dim V1 = 5000  dim V2 = 12497499"),
              flags=("--oracle",) * oracle)
      for oracle in (False, True)),
    *(analyze("wide_120" + "_oracle" * oracle, f"gens: {gens(120)}\nrels: (x0,x1) x2\n",
              80_000, 10, ("  dim Gamma2/Gamma3 = 7021",), flags=("--oracle",) * oracle)
      for oracle in (False, True)),
    # a 40.8 MB document, streamed a differential row at a time: it needs
    # 14,901-19,472 KiB on Python 3.10-3.13, so the bound is about 3x its
    # need, where the document held as one string needed 95,644-99,453 KiB
    analyze("free_60_json", f"gens: {gens(60)}\nrels:\n", 60_000, 10,
            ('  "dim_gamma2_gamma3": 1770,', '    "dimV2": 1770,', '  "overall": "NOT_KAHLER"'),
            flags=("--json",)),
    # 100,000 names (690 KB): each duplicate check is one lookup
    analyze("names_100000", f"gens: {gens(100000)}\nrels: (x0,x1)\n", 240_000, 10, (
        "  dim Gamma2/Gamma3 = 4999949999", "  dim V1 = 100000  dim V2 = 4999949999"),
        flags=("--oracle",)),
    analyze("surface_1000", surface_text(1000), 80_000, 10, (
        "  dim Gamma2/Gamma3 = 1998999", "  surface genus match: 1000")),
    # at the 1,000,000-letter limit: the copies of (x y) are concatenated,
    # never normalized again, and both evaluators fold 2 letters
    analyze("power_500000", "gens: x y\nrels: (x y)^500000\n", 150_000, 20,
            ("  dim Gamma2/Gamma3 = 0",), flags=("--oracle",)),
    # its root z (x y) z^-1 is found without a search and certified a
    # block at a time, with no copy of its core held
    analyze("conjugated_power_oracle", "gens: x y z\nrels: z (x y)^499990 z^-1\n", 170_000, 10,
            ("  dim Gamma2/Gamma3 = 1",), flags=("--oracle",)),
    # the copies of x y x merge: x y x^2 y ... x^2 y x, built as it is
    analyze("merged_power_oracle", "gens: x y\nrels: (x y x)^333333\n", 220_000, 20,
            ("  dim Gamma2/Gamma3 = 0",), flags=("--oracle",)),
    # the same letters as 2 MB of plain tokens: each letter shares its
    # generator's one tuple
    *(analyze("plain_tokens" + "_oracle" * oracle, PLAIN_TOKENS, 100_000, 20,
              ("  dim Gamma2/Gamma3 = 0",), flags=("--oracle",) * oracle)
      for oracle in (False, True)),
    # 2999 relators on 3000 generators: no s x n exponent matrix
    analyze("commutator_chain_3000",
            f"gens: {gens(3000)}\nrels: {chain(3000, '(x{},x{})')}\n", 100_000, 10,
            ("  dim Gamma2/Gamma3 = 4495501",)),
    # relators x_i x_{i+1}^2 of rank s: degree 1 builds no s x s block
    analyze("squares_1200", f"gens: {gens(1200)}\nrels: {chain(1200, 'x{} x{}^2')}\n",
            80_000, 10, ("  q (rational abelianization rank) = 1", "  dim Gamma2/Gamma3 = 0")),
    analyze("squares_3000", f"gens: {gens(3000)}\nrels: {chain(3000, 'x{} x{}^2')}\n",
            100_000, 10, ("  dim Gamma2/Gamma3 = 0",)),
    # with (x0,x1) the rank is below s: degree 2 eliminates the chain again,
    # forward, never rewriting a row
    analyze("squares_3000_commutator",
            f"gens: {gens(3000)}\nrels: {chain(3000, 'x{} x{}^2')} | (x0,x1)\n", 100_000, 5,
            ("  dim ker d0 = 1", "  dim Gamma2/Gamma3 = 0")),
    # the oracle spans V ^ Q^n by a basis, so no row of its joint span is
    # eliminated to zero
    analyze("chain_400_oracle",
            f"gens: {gens(400)}\nrels: {chain(400, 'x{} x{}^2')} | (x0,x1)\n", 180_000, 10,
            ("  dim ker d0 = 1", "  dim Gamma2/Gamma3 = 0"), flags=("--oracle",)),
    # every pair of generators meets in the integer pushforward
    analyze("long_800", f"gens: {gens(800)}\nrels: {gens(800)} | (x0,x1)\n", 400_000, 5,
            ("  dim Gamma2/Gamma3 = 318800",)),
]
BY_NAME = {row.name: row for row in ROWS}


# A launcher (started with -S, for speed) forks the child, which sets its
# bounds and becomes ``python -m kahlercheck ARGV``, and writes the child's
# exit code and ``ru_maxrss`` (from ``os.wait4``) to the file descriptor FD.
# A child spawned from the test process itself would count that process's
# pages in its peak RSS.
LAUNCH = """
import os, resource, sys
fd, kib, one_cpu, *argv = sys.argv[1:]
pid = os.fork()
if pid == 0:
    resource.setrlimit(resource.RLIMIT_AS, (int(kib) * 1024,) * 2)
    if one_cpu == "1":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.execv(sys.executable, [sys.executable, "-m", "kahlercheck", *argv])
_, status, usage = os.wait4(pid, 0)
os.write(int(fd), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def run(row, directory, one_cpu=False):
    """Run ``row`` in ``directory`` under its bounds; a child past its time is killed."""
    directory.mkdir(exist_ok=True)
    for name, data in row.files.items():
        (directory / os.fsdecode(name)).write_bytes(
            data.encode("utf-8") if isinstance(data, str) else data)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8:strict")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.TemporaryFile() as usage:
        argv = [sys.executable, "-S", "-c", LAUNCH, str(usage.fileno()), str(row.kib),
                str(int(one_cpu)), *row.argv]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=directory, stdout=out, stderr=err, env=env,
                                pass_fds=(usage.fileno(),), start_new_session=True)
        try:
            proc.wait(timeout=row.seconds)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        seconds = time.monotonic() - start
        for stream in (out, err, usage):
            stream.seek(0)
        code, rss_kib = map(int, usage.read().split() or (proc.returncode, 0))
        return Result(code, out.read().decode("utf-8", "backslashreplace"),
                      err.read().decode("utf-8", "backslashreplace"), seconds, rss_kib / 1024)


def describe(row, result):
    first = result.err.partition("\n")[0]
    return (f"{row.name}: exit {result.code} in {result.seconds:.2f} s at "
            f"{result.rss_mib:.1f} MiB peak RSS, first stderr line {first!r}; "
            f"bounds {row.seconds} s and {row.kib} KiB of address space")


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_hostile_input(tmp_path, row):
    result = run(row, tmp_path)
    why = describe(row, result)
    assert "Traceback" not in result.out + result.err, why
    assert (result.code, result.seconds <= row.seconds) == (row.code, True), why
    lines = set(result.out.splitlines())
    assert [line for line in row.out if line not in lines] == [], why
    assert result.err.splitlines() == list(row.err), why


def test_batch_on_one_cpu_prints_the_same(tmp_path):
    # one usable CPU forks no child
    row = BY_NAME["batch"]
    every, one = run(row, tmp_path / "every"), run(row, tmp_path / "one", one_cpu=True)
    assert (one.code, one.out, one.err) == (every.code, every.out, every.err)


@pytest.mark.parametrize("name", ["wide_120", "wide_5000"])
def test_oracle_prints_what_plain_prints(tmp_path, name):
    oracle = BY_NAME[f"{name}_oracle"]
    plain = run(BY_NAME[name], tmp_path / "plain")
    checked = run(oracle, tmp_path / "oracle")
    assert (checked.code, checked.out, checked.err) == (0, plain.out, ""), \
        describe(oracle, checked)


def test_the_address_space_bound_bites(tmp_path):
    # the plain-token relator needs 45-48 MiB of address space
    row = BY_NAME["plain_tokens"]._replace(kib=30_000)
    result = run(row, tmp_path)
    assert (result.code, result.out, result.err) == (2, "", "input.pres: MemoryError\n"), \
        describe(row, result)


def test_running_out_of_memory_while_loading(tmp_path):
    # a stub ``fractions`` that raises MemoryError when the program imports it
    (tmp_path / "fractions.py").write_text("raise MemoryError\n", encoding="utf-8")
    # ``python -m kahlercheck``, and what the ``kahlercheck`` console script runs
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{SRC}")
    for launch in (("-m", "kahlercheck"),
                   ("-c", "from kahlercheck.__main__ import main; main()")):
        proc = subprocess.run([sys.executable, *launch, "analyze", "x.pres"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "kahlercheck: cannot start: MemoryError\n"), launch
        assert "Traceback" not in proc.stderr
