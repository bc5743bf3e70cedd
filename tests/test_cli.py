import contextlib
import hashlib
import io
import json
import marshal
import os
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from kahlercheck import cli, nilpotent, presentation, report
from kahlercheck.cli import build_parser, main
from kahlercheck.presentation import parse_presentation
from kahlercheck.fixtures import (
    CORPUS,
    chain_link_text,
    free_abelian_text,
    surface_text,
)

import cases

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
# A 401-digit power of one letter is one letter long.
BIG_EXPONENT = "gens: x y\nrels: x^1" + "0" * 400 + " y\n"
LADDER = {
    **{f"surface_g{g}": surface_text(g) for g in (5, 10, 14)},
    **{f"chain_link_{m}": chain_link_text(m) for m in (8, 14, 18)},
    **{f"abelian_z{n}": free_abelian_text(n) for n in (6, 10)},
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def corpus_dir(tmp_path):
    code, _, _ = run(["fixtures", str(tmp_path / "corpus")])
    assert code == 0
    return tmp_path / "corpus"


def write(tmp_path, text, name="input.pres"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- analyze -------------------------------------------------------------------

def test_analyze_surface_text(corpus_dir):
    code, out, err = run(["analyze", str(corpus_dir / "surface_g2.pres")])
    assert code == 0 and err == ""
    assert "q (rational abelianization rank) = 4" in out
    assert "dim Gamma2/Gamma3 = 5" in out
    assert "overall: NOT_NONFIBERED_KAHLER" in out
    assert "NOT_KAHLER" not in out.replace("NOT_NONFIBERED_KAHLER", "")


def test_analyze_writes_to_a_redirected_stdout(tmp_path):
    # main looks sys.stdout and sys.stderr up when it runs, not at import
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["fixtures", str(tmp_path)]) == 0
        wrote = out.getvalue()
        path = str(tmp_path / "surface_g2.pres")
        assert main(["analyze", path]) == 0
    assert wrote == f"wrote {len(CORPUS)} files to {tmp_path}\n"
    assert err.getvalue() == ""
    assert out.getvalue()[len(wrote):] == run(["analyze", path])[1]


def test_analyze_combined_route(corpus_dir):
    code, out, _ = run(["analyze", str(corpus_dir / "chain_plus_power.pres"),
                        "--explain"])
    assert code == 0
    assert "overall: NOT_KAHLER" in out
    assert "[Cor 5.8]" in out
    assert "[combined §5]" in out
    assert "s = 5 < k + 2(n-k-3) + (n-k-1) = 6" in out


def test_analyze_explain_includes_differential(corpus_dir):
    code, out, _ = run(["analyze", str(corpus_dir / "free_f2.pres"), "--explain"])
    assert code == 0
    assert "d(v1) = [1]" in out


def test_analyze_malformed_file(tmp_path):
    path = write(tmp_path, "gens: x\nrels: x^\n")
    code, out, err = run(["analyze", str(path)])
    assert code == 2 and out == ""
    assert "line 2" in err


def test_analyze_missing_file(tmp_path):
    for path in (tmp_path / "absent.pres", tmp_path):   # missing, a directory
        code, out, err = run(["analyze", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"{path}: cannot read {path}: ")
        assert "line 0" not in err


def test_analyze_oracle_agrees(corpus_dir):
    for name in ("surface_g2", "chain_link_4", "two_relator_q4"):
        code, out, err = run(["analyze", str(corpus_dir / f"{name}.pres"),
                              "--oracle"])
        assert code == 0 and err == ""


def test_analyze_oracle_mismatch_exit_code(corpus_dir, monkeypatch):
    monkeypatch.setattr(nilpotent, "commutator_quotient_dim", lambda pres: 99)
    code, out, err = run(["analyze", str(corpus_dir / "surface_g2.pres"),
                          "--oracle"])
    assert code == 3 and out == ""
    assert "oracle mismatch" in err


FAILURES = [
    (MemoryError(), "MemoryError"),
    (report.ReportInvariantError("consistency check failed: q = n - k"),
     "ReportInvariantError: consistency check failed: q = n - k"),
]


@pytest.mark.parametrize("owner, name, flags", [
    (report, "build_report", []),
    (nilpotent, "commutator_quotient_dim", ["--oracle"]),
    (report, "render_text", ["--explain"]),
    (report, "render_json", ["--json"]),
    (report, "format_presentation", []),   # the text is formatted only to print it
    (cli, "parse_presentation", []),   # e.g. a MemoryError building a long relator
])
@pytest.mark.parametrize("exc, message", FAILURES)
def test_analyze_reports_a_failed_analysis(corpus_dir, monkeypatch, owner, name,
                                           flags, exc, message):
    def failing(*args, **kwargs):
        raise exc
    monkeypatch.setattr(owner, name, failing)
    path = corpus_dir / "surface_g2.pres"
    code, out, err = run(["analyze", str(path), *flags])
    assert (code, out, err) == (2, "", f"{path}: {message}\n")


class WriteRecorder:
    """A text stream that keeps each write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_analyze_writes_a_large_document_in_slices(tmp_path, monkeypatch):
    # The free group on 30 generators: a --json document of about 2.5 MB.
    text = "gens: " + " ".join(f"x{i}" for i in range(30)) + "\nrels:\n"
    path = write(tmp_path, text)
    out, err = WriteRecorder(), io.StringIO()
    assert main(["analyze", str(path), "--json"], out=out, err=err) == 0
    expected = report.render_json(report.build_report(parse_presentation(text)))
    assert len(expected) > 2 * (1 << 20) and err.getvalue() == ""
    assert max(len(piece) for piece in out.writes) <= 1 << 20
    assert "".join(out.writes) == expected
    # the oracle check runs before the first write
    monkeypatch.setattr(nilpotent, "commutator_quotient_dim", lambda pres: 99)
    out = WriteRecorder()
    assert main(["analyze", str(path), "--json", "--oracle"], out=out, err=err) == 3
    assert out.writes == []


def test_analyze_json_document(corpus_dir):
    code, out, _ = run(["analyze", str(corpus_dir / "surface_g2.pres"), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "schema", "presentation", "n", "s", "k", "q", "dim_ker_d0",
        "dim_ker_d1", "dim_W", "dim_gamma2_gamma3", "grl_free",
        "surface_genus", "m_max", "excluded_genera", "minimal_model",
        "verdicts", "overall",
    ]
    assert doc["schema"] == 1
    assert doc["q"] == 4 and doc["dim_gamma2_gamma3"] == 5
    assert doc["surface_genus"] == 2
    assert doc["minimal_model"]["dimV1"] == 4
    assert doc["minimal_model"]["dimV2"] == 5
    assert all(isinstance(x, str)
               for row in doc["minimal_model"]["differential"] for x in row)
    assert doc["overall"] == "NOT_NONFIBERED_KAHLER"


def test_text_and_json_report_identical_numbers(corpus_dir):
    for name in ("chain_link_6", "two_relator_rank2", "abelian_z4"):
        _, text, _ = run(["analyze", str(corpus_dir / f"{name}.pres")])
        _, raw, _ = run(["analyze", str(corpus_dir / f"{name}.pres"), "--json"])
        doc = json.loads(raw)
        assert f"dim Gamma2/Gamma3 = {doc['dim_gamma2_gamma3']}" in text
        assert f"q (rational abelianization rank) = {doc['q']}" in text
        assert f"dim W = {doc['dim_W']}" in text
        assert f"overall: {doc['overall']}" in text


def test_analyze_matches_corpus_goldens(corpus_dir):
    # Regenerate with: for each corpus entry, write `analyze FILE --json` to
    # NAME.json and `analyze FILE --explain` to NAME.explain.txt.
    for name, _ in CORPUS:
        for flag, suffix in (("--json", ".json"), ("--explain", ".explain.txt")):
            code, out, err = run(["analyze", str(corpus_dir / f"{name}.pres"), flag])
            assert code == 0 and err == ""
            golden = (DATA / "corpus" / f"{name}{suffix}").read_bytes()
            assert out.encode("utf-8") == golden, f"{name}{suffix}"


def test_analyze_matches_ladder_goldens(tmp_path):
    # SHA-256 and UTF-8 byte length of `analyze FILE --json` and `--explain`
    # for each ladder presentation; regenerate with this loop.
    goldens = json.loads((DATA / "ladder.json").read_text(encoding="utf-8"))
    assert set(goldens) == set(LADDER)
    for name, text in LADDER.items():
        path = write(tmp_path, text, f"{name}.pres")
        for flag, key in (("--json", "json"), ("--explain", "explain")):
            code, out, err = run(["analyze", str(path), flag])
            assert code == 0 and err == ""
            data = out.encode("utf-8")
            expected = goldens[name][key]
            assert len(data) == expected["bytes"], f"{name} {key}"
            assert hashlib.sha256(data).hexdigest() == expected["sha256"], f"{name} {key}"


def test_analyze_long_power_relator(tmp_path):
    path = write(tmp_path, "gens: x y\nrels: (x y)^200000\n")
    code, out, err = run(["analyze", str(path), "--oracle"])
    assert code == 0 and err == ""
    assert "n = 2  s = 1  k = 1" in out


def test_analyze_big_exponent(tmp_path):
    path = write(tmp_path, BIG_EXPONENT)
    code, out, err = run(["analyze", str(path)])
    assert code == 0 and err == ""
    assert "rels: x^1" + "0" * 400 + " y\n" in out
    assert "q (rational abelianization rank) = 1" in out
    code, out, _ = run(["batch", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[1].split() == ["input.pres", "2", "1", "1", "0", "NOT_KAHLER"]


def test_analyze_exponent_past_int_digit_limit(tmp_path):
    path = write(tmp_path, cases.LONG_EXPONENT, "long.pres")
    code, out, err = run(["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == f"{path}: line 2, column 9: exponent of 5000 digits is too long\n"
    write(tmp_path, "gens: x y\nrels: (x,y)\n", "good.pres")
    code, out, _ = run(["batch", str(tmp_path)])
    assert code == 2
    assert out.splitlines()[1:] == [
        "good.pres    2   1   2     0  INCONCLUSIVE",
        "error: long.pres: line 2, column 9: exponent of 5000 digits is too long",
    ]


def test_analyze_non_ascii_input(tmp_path):
    bad = {"letter.pres": ("x é", "line 2, column 9: unexpected character 'é'"),
           "superscript.pres": ("x^²", "line 2, column 9: unexpected character '²'"),
           "arabic_digit.pres": ("x^٣", "line 2, column 9: unexpected character '٣'")}
    for name, (rels, message) in bad.items():
        path = write(tmp_path, f"gens: x\nrels: {rels}\n", name)
        code, out, err = run(["analyze", str(path)])
        assert code == 2 and out == ""
        assert err == f"{path}: {message}\n"
    write(tmp_path, "gens: x y\nrels: (x,y)\n", "good.pres")
    code, out, _ = run(["batch", str(tmp_path)])
    assert code == 2
    assert out.splitlines()[1:] == [
        "good.pres    2   1   2     0  INCONCLUSIVE",
        *(f"error: {name}: {message}" for name, (_, message) in sorted(bad.items())),
    ]


def test_analyze_report_numbers_past_int_digit_limit(tmp_path):
    # The degree-2 quotient has the entry -1/N^2, of 6000 digits, past the
    # interpreter's 4300-digit int-to-str limit; the elimination stays fast.
    n = int("7" * 3000)
    path = write(tmp_path, f"gens: x y z\nrels: (x^{n}, y^{n}) (x,z)\n", "big.pres")
    start = time.perf_counter()
    code, out, err = run(["analyze", str(path), "--json"])
    assert code == 0 and err == ""
    code, text, err = run(["analyze", str(path), "--explain"])
    assert code == 0 and err == ""
    assert time.perf_counter() - start < 10
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        entry = f"-1/{n * n}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert json.loads(out)["minimal_model"]["differential"] == [
        [entry, "1", "0"], ["0", "0", "1"]]
    assert f"  d(v1) = [{entry} 1 0]\n  d(v2) = [0 0 1]\n" in text
    # merged powers print a 4301-digit exponent, and batch keeps its row
    power = "x^" + "9" * 4300
    merged = write(tmp_path, f"gens: x\nrels: {power} {power}\n", "merged.pres")
    code, out, err = run(["analyze", str(merged)])
    assert code == 0 and err == ""
    assert "rels: x^1" + "9" * 4299 + "8\n" in out
    code, out, _ = run(["batch", str(tmp_path)])
    assert code == 0 and len(out.splitlines()) == 3


def test_analyze_is_deterministic(corpus_dir):
    path = str(corpus_dir / "chain_plus_power.pres")
    first = run(["analyze", path, "--json", "--explain"])
    second = run(["analyze", path, "--json", "--explain"])
    assert first == second


# --- batch ----------------------------------------------------------------------

def test_batch_matches_golden(corpus_dir):
    code, out, _ = run(["batch", str(corpus_dir)])
    assert code == 0
    golden = (DATA / "batch_golden.txt").read_text(encoding="utf-8")
    assert out == golden


def test_batch_formats_no_presentation(corpus_dir, monkeypatch):
    # batch prints no presentation text, so it never formats a word
    def failing(*args, **kwargs):
        raise AssertionError("format_word called")
    monkeypatch.setattr(presentation, "format_word", failing)
    rows = cli._summaries(cli._listed(corpus_dir))
    golden = (DATA / "batch_golden.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert [tuple(str(x) for x in row) for row in rows] == [
        tuple(line.split()) for line in golden]


def test_batch_empty_directory(tmp_path):
    code, out, _ = run(["batch", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[0].startswith("name")
    assert len(out.splitlines()) == 1


def test_batch_reports_bad_file(corpus_dir):
    bad = {
        "broken.pres": b"gens: x\nrels: (x\n",
        "deep_nest.pres": cases.DEEP_NEST.encode("ascii"),
        "bad_utf8.pres": b"gens: x\nrels: x\xff\n",
        "long_nest.pres": cases.LONG_NEST.encode("ascii"),
        "huge_power.pres": cases.HUGE_POWER.encode("ascii"),
    }
    for name, data in bad.items():
        (corpus_dir / name).write_bytes(data)
    code, out, _ = run(["batch", str(corpus_dir)])
    assert code == 2
    lines = out.splitlines()
    for name in bad:
        assert any(line.startswith(f"error: {name}: line ") for line in lines), name
    # good rows still present and sorted
    names = [line.split()[0] for line in lines[1:] if not line.startswith("error")]
    assert names == sorted(names)
    assert "surface_g2.pres" in names
    assert len(names) == len(CORPUS)


def unreadable(path, monkeypatch):
    read_bytes = Path.read_bytes

    def failing(self):
        if self == path:
            raise PermissionError(13, "Permission denied")
        return read_bytes(self)
    monkeypatch.setattr(Path, "read_bytes", failing)


def test_batch_reports_unreadable_file(corpus_dir, monkeypatch):
    target = corpus_dir / "surface_g2.pres"
    unreadable(target, monkeypatch)
    code, out, _ = run(["batch", str(corpus_dir)])
    assert code == 2
    assert (f"error: surface_g2.pres: cannot read {target}: Permission denied"
            in out.splitlines())
    assert "line 0" not in out


def test_batch_reports_unreadable_directory(corpus_dir, monkeypatch):
    def failing(path):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(cli.os, "scandir", failing)
    code, out, err = run(["batch", str(corpus_dir)])
    assert code == 2 and out == ""
    assert err == f"{corpus_dir}: cannot read {corpus_dir}: Permission denied\n"


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_batch_lists_the_files_that_path_lists(tmp_path):
    # the files, links followed, in the order of sorted Path objects; a dot
    # file, a directory and a link that leads nowhere are left out
    for name in ("b.pres", ".hidden.pres", "a.pres", os.fsdecode(b"c\xff.pres")):
        (tmp_path / name).write_text("gens: x\nrels: x\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    for link, target in (("link.pres", "a.pres"), ("broken.pres", "nowhere"),
                         ("loop.pres", "loop.pres"), ("through.pres", "a.pres/x"),
                         ("dir_link", "sub"), (".hidden_link", "a.pres")):
        os.symlink(target, tmp_path / link)
    listed = cli._listed(tmp_path)
    assert listed == sorted(p for p in tmp_path.iterdir()
                            if p.is_file() and not p.name.startswith("."))
    assert [p.name for p in listed] == [
        "a.pres", "b.pres", os.fsdecode(b"c\xff.pres"), "link.pres"]


@pytest.mark.parametrize("argv", [["bogus"], ["analyze"], []])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: kahlercheck")


def test_main_reuses_one_parser_and_no_state(corpus_dir, capsys):
    # Each command line gives in-process, in any order, what it gives as
    # the first call of a fresh interpreter.
    path = str(corpus_dir / "chain_link_4.pres")
    argvs = [["analyze", path, "--json"], ["analyze", path, "--explain", "--oracle"],
             ["analyze", path], ["batch", str(corpus_dir)], ["analyze", path, "--bogus"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from kahlercheck.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert fresh[-1][0] == 2 and fresh[-1][2].startswith("usage: kahlercheck")
    for i in [0, 1, 2, 3, 4, 2, 0, 4, 3, 1, 2]:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = main(argvs[i], out=out, err=err)
        except SystemExit as exc:
            code = exc.code
        usage = capsys.readouterr()
        assert (code, out.getvalue() + usage.out, err.getvalue() + usage.err) == fresh[i]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def out_of_memory(path, monkeypatch):
    def failing(pres):
        raise MemoryError
    monkeypatch.setattr(report, "build_report", failing)


@pytest.mark.parametrize("data, patch, message", [
    (b"gens: x\nrels: x^\n", None,
     "line 2, column 9: unexpected end of relator (expected int)"),
    (b"gens: x\nrels: x\xff\n", None, "line 2, column 8: invalid UTF-8 byte 0xff"),
    (b"gens: x\nrels: x^2\n", unreadable, "cannot read {path}: Permission denied"),
    (b"gens: x\nrels: x^2\n", out_of_memory, "MemoryError"),
])
def test_analyze_and_batch_report_a_failure_alike(tmp_path, monkeypatch, data, patch,
                                                 message):
    path = tmp_path / "bad.pres"
    path.write_bytes(data)
    if patch:
        patch(path, monkeypatch)
    message = message.format(path=path)
    code, out, err = run(["analyze", str(path)])
    assert (code, out, err) == (2, "", f"{path}: {message}\n")
    code, out, err = run(["batch", str(tmp_path)])
    assert (code, out.splitlines()[1:], err) == (2, [f"error: bad.pres: {message}"], "")


@pytest.mark.parametrize("exc, message", FAILURES)
def test_batch_records_any_per_file_exception(tmp_path, monkeypatch, exc, message):
    # one file of three fails inside the analysis; the others keep their rows
    write(tmp_path, "gens: x y\nrels: (x,y)\n", "a.pres")
    write(tmp_path, "gens: x y z\nrels: x y z\n", "b.pres")
    write(tmp_path, "gens: x\nrels: x^2\n", "c.pres")
    build_report = report.build_report

    def failing(pres):
        if pres.n == 3:
            raise exc
        return build_report(pres)
    monkeypatch.setattr(report, "build_report", failing)
    code, out, err = run(["batch", str(tmp_path)])
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:3]] == ["a.pres", "c.pres"]
    assert lines[3:] == [f"error: b.pres: {message}"]
    code, out, err = run(["batch", str(tmp_path), "--json"])
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert [row["name"] for row in doc["rows"]] == ["a.pres", "c.pres"]
    assert doc["errors"] == [{"name": "b.pres", "error": message}]


def test_batch_json(corpus_dir):
    code, out, _ = run(["batch", str(corpus_dir), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["rows"]) == len(CORPUS)
    by_name = {row["name"]: row for row in doc["rows"]}
    assert by_name["chain_link_4.pres"]["overall"] == "NOT_KAHLER"
    assert by_name["surface_g3.pres"]["dim_gamma2_gamma3"] == 14


def test_batch_on_missing_directory(tmp_path):
    code, _, err = run(["batch", str(tmp_path / "nowhere")])
    assert code == 2 and "not a directory" in err


def mixed_batch(tmp_path, monkeypatch):
    """The corpus beside a malformed, an unreadable and a failing file."""
    directory = tmp_path / "corpus"
    assert run(["fixtures", str(directory)])[0] == 0
    write(directory, "gens: x\nrels: (x\n", "broken.pres")
    write(directory, "gens: boom\nrels: boom^2\n", "fails.pres")
    unreadable(write(directory, "gens: x\nrels: x\n", "locked.pres"), monkeypatch)
    build_report = report.build_report

    def failing(pres):
        if pres.generators == ("boom",):
            raise MemoryError
        return build_report(pres)
    monkeypatch.setattr(report, "build_report", failing)
    return directory


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_is_the_same_on_any_number_of_cpus(tmp_path, monkeypatch):
    directory = mixed_batch(tmp_path, monkeypatch)
    results = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        results[cpus] = (run(["batch", str(directory)]),
                         run(["batch", str(directory), "--json"]))
        assert_no_child_left()
    assert results[1] == results[2] == results[3]
    text, doc = results[1]
    assert text[0] == doc[0] == 2 and text[2] == doc[2] == ""
    assert text[1].splitlines()[-3:] == [
        "error: broken.pres: line 2, column 9: "
        "unexpected end of relator (expected ',' or ')')",
        "error: fails.pres: MemoryError",
        f"error: locked.pres: cannot read {directory / 'locked.pres'}: Permission denied",
    ]
    assert len(json.loads(doc[1])["rows"]) == len(CORPUS)


def killed(monkeypatch):
    # only in a child: the parent runs the share again unpatched
    parent, build_report = os.getpid(), report.build_report

    def dying(pres):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return build_report(pres)
    monkeypatch.setattr(report, "build_report", dying)


def garbled(monkeypatch):
    monkeypatch.setattr(cli, "marshal", types.SimpleNamespace(
        dumps=lambda rows: b"\xff garbled", loads=marshal.loads))


def truncated(monkeypatch):
    monkeypatch.setattr(cli, "marshal", types.SimpleNamespace(
        dumps=lambda rows: marshal.dumps(rows)[:-1], loads=marshal.loads))


def no_fork(monkeypatch):
    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", failing)


@pytest.mark.parametrize("fault", [killed, garbled, truncated, no_fork])
def test_batch_runs_a_failed_share_itself(tmp_path, monkeypatch, fault):
    directory = mixed_batch(tmp_path, monkeypatch)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    serial = run(["batch", str(directory)]), run(["batch", str(directory), "--json"])
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    fault(monkeypatch)
    forked = run(["batch", str(directory)]), run(["batch", str(directory), "--json"])
    assert forked == serial
    assert_no_child_left()


def test_batch_does_not_fork_beside_another_thread(corpus_dir, monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    expected = run(["batch", str(corpus_dir)])

    def forbidden():
        raise AssertionError("forked beside another thread")
    monkeypatch.setattr(os, "fork", forbidden)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert run(["batch", str(corpus_dir)]) == expected
    finally:
        release.set()
        other.join()


def strict_run(argv):
    """``run`` with stdout a strict UTF-8 stream, as in any UTF-8 locale."""
    buffer, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8", errors="strict")
    code = main(argv, out=out, err=err)
    out.flush()
    return code, buffer.getvalue().decode("utf-8"), err.getvalue()


def test_batch_shows_a_name_that_is_not_utf8(tmp_path, monkeypatch):
    # an undecodable byte is escaped as stderr escapes it; a valid name,
    # non-ASCII or not, is written as it is
    for name, text in [(b"a\xff.pres", "gens: x y\nrels: (x,y)\n"),
                       ("é.pres".encode(), "gens: x\nrels: x^2\n"),
                       (b"b\xfe.pres", "gens: x\nrels: (x\n"),
                       (b"c\xfd.pres", "gens: x\nrels: x\n")]:
        (tmp_path / os.fsdecode(name)).write_text(text, encoding="utf-8")
    unreadable(tmp_path / os.fsdecode(b"c\xfd.pres"), monkeypatch)
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        results[cpus] = (strict_run(["batch", str(tmp_path)]),
                         strict_run(["batch", str(tmp_path), "--json"]))
        assert_no_child_left()
    assert results[1] == results[2]
    (code, out, err), (json_code, doc, json_err) = results[1]
    locked = f"{os.fsencode(tmp_path).decode('utf-8', 'backslashreplace')}/c\\udcfd.pres"
    assert (code, err, json_code, json_err) == (2, "", 2, "")
    assert out.splitlines() == [
        "name            n   s   q  dim2  overall",
        "a\\udcff.pres    2   1   2     0  INCONCLUSIVE",
        "é.pres          1   1   0     0  INCONCLUSIVE",
        "error: b\\udcfe.pres: line 2, column 9: "
        "unexpected end of relator (expected ',' or ')')",
        f"error: c\\udcfd.pres: cannot read {locked}: Permission denied",
    ]
    doc = json.loads(doc)
    assert [row["name"] for row in doc["rows"]] == ["a\\udcff.pres", "é.pres"]
    assert [e["name"] for e in doc["errors"]] == ["b\\udcfe.pres", "c\\udcfd.pres"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_console_script_reports_a_failed_write(corpus_dir):
    # a full device is one line on stderr, a closed pipe none; both exit 1
    argv = [sys.executable, "-m", "kahlercheck", "analyze",
            str(corpus_dir / "surface_g2.pres"), "--json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        1, "kahlercheck: cannot write output: No space left on device\n")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("command", ["analyze", "batch"])
def test_console_script_with_stdout_closed(corpus_dir, command):
    # no sys.stdout at all: a failed write, one line and exit 1
    target = corpus_dir / "surface_g2.pres" if command == "analyze" else corpus_dir
    argv = ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "kahlercheck",
            command, str(target)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        1, "kahlercheck: cannot write output: Bad file descriptor\n")


# --- fixtures ----------------------------------------------------------------------

def test_fixtures_writes_corpus(tmp_path):
    target = tmp_path / "corpus"
    code, out, _ = run(["fixtures", str(target)])
    assert code == 0
    files = sorted(p.name for p in target.iterdir())
    assert len(files) == len(CORPUS) >= 15
    assert "surface_g2.pres" in files


def test_fixtures_rerun_is_idempotent(tmp_path):
    target = tmp_path / "corpus"
    run(["fixtures", str(target)])
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    run(["fixtures", str(target)])
    after = {p.name: p.read_bytes() for p in target.iterdir()}
    assert before == after


def test_fixtures_unwritable_target(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code, _, err = run(["fixtures", str(blocker)])
    assert code == 1 and err != ""


# --- scripts -----------------------------------------------------------------------

def test_cli_import_loads_no_dataclasses():
    # -S: no site hooks, so every module loaded is one the package imports
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import kahlercheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_record_annotations_are_evaluated():
    # A string annotation costs a ForwardRef compile per field at import.
    import typing
    records = cases.tuple_records()
    assert sorted(record.__name__ for record in records) == [
        "AbelianizationData", "Expansion", "GradedLie2", "ObstructionReport",
        "RationalMatrix", "Rref", "Verdict"]
    for record in records:
        for name, annotation in record.__annotations__.items():
            assert not isinstance(annotation, (str, typing.ForwardRef)), (record, name)


def test_public_names_are_exported_in_order():
    # a record or function folded away must not linger in __all__
    import kahlercheck
    public = sorted(name for name, obj in vars(kahlercheck).items()
                    if not name.startswith("_") and not isinstance(obj, types.ModuleType))
    assert kahlercheck.__all__ == public


def test_search_script_runs_outside_repository(tmp_path):
    script = ROOT / "scripts" / "search_combined_exclusions.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "20", "1"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "combined-route exclusions in 20 random presentations" in proc.stdout
