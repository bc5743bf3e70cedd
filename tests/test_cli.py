import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kahlercheck import nilpotent
from kahlercheck.cli import main
from kahlercheck.fixtures import CORPUS

import cases

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
DEEP_NEST = "gens: x\nrels: " + "(" * 3000 + "x" + ")" * 3000 + "\n"


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
    code, _, err = run(["analyze", str(tmp_path / "absent.pres")])
    assert code == 2
    assert "cannot read" in err


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


def test_analyze_non_utf8_input(tmp_path):
    path = tmp_path / "bad.pres"
    path.write_bytes(b"gens: x\nrels: x\xff\n")
    code, out, err = run(["analyze", str(path)])
    assert code == 2 and out == ""
    assert "line 2, column 8: invalid UTF-8 byte 0xff" in err


def test_analyze_deep_nesting(tmp_path):
    path = write(tmp_path, DEEP_NEST)
    code, out, err = run(["analyze", str(path)])
    assert code == 2 and out == ""
    assert "line 2, column" in err and "nested deeper" in err


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


def test_batch_empty_directory(tmp_path):
    code, out, _ = run(["batch", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[0].startswith("name")
    assert len(out.splitlines()) == 1


def test_batch_reports_bad_file(corpus_dir):
    bad = {
        "broken.pres": b"gens: x\nrels: (x\n",
        "deep_nest.pres": DEEP_NEST.encode("ascii"),
        "bad_utf8.pres": b"gens: x\nrels: x\xff\n",
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

def test_search_script_runs_outside_repository(tmp_path):
    script = ROOT / "scripts" / "search_combined_exclusions.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "20", "1"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "combined-route exclusions in 20 random presentations" in proc.stdout
