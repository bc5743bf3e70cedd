"""Seeded operations and their reference checks for the two workloads.

Every input the program sees comes from ``data/references.json``, which
``make_references.py`` wrote once together with the reference output of
each input.  A run's seed only chooses from that pool and fixes the
order, so any seed yields inputs whose expected output is known.

An operation is one ``kahlercheck`` command line.  Its check returns
``None`` when the exit code, stdout and stderr match the references,
else a one-line description of the first difference.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data" / "references.json"

WORKLOADS = ("analyze", "screen")

SCREEN_GOOD = 300   # well-formed files per screen directory
SCREEN_BAD = 12     # malformed files per screen directory (fixed share)

LOCATED_ERROR = re.compile(r": line \d+, column \d+: ")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str, str], str | None]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def _golden_check(expected_exit: int, sha256: str, size: int,
                  extra: Callable[[str], str | None] | None = None):
    def check(code: int, out: str, err: str) -> str | None:
        if code != expected_exit:
            return f"exit {code}, expected {expected_exit}"
        if err:
            return f"unexpected stderr: {err.strip()[:200]}"
        if len(out) != size or digest(out) != sha256:
            return f"stdout differs from the reference ({len(out)} vs {size} chars)"
        return extra(out) if extra else None
    return check


def _json_int(out: str, key: str) -> int | None:
    """Top-level integer or null field of an ``analyze --json`` document."""
    m = re.search(rf'^  "{key}": (\d+|null),$', out, re.M)
    if m is None or m.group(1) == "null":
        return None
    return int(m.group(1))


def _closed_form_check(closed: dict[str, int]) -> Callable[[str], str | None]:
    """Compare against the family's closed forms, not against the pipeline."""
    fields = {"q": "q", "dim2": "dim_gamma2_gamma3", "surface_genus": "surface_genus"}

    def check(out: str) -> str | None:
        for name, expected in closed.items():
            got = _json_int(out, fields[name])
            if got != expected:
                return f"{name} = {got}, closed form gives {expected}"
        return None
    return check


def _write(path: Path, data: str | bytes) -> Path:
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return path


def families(refs: dict, work: Path) -> list[Op]:
    ops = []
    for item in refs["families"]:
        path = _write(work / f"{item['name']}.pres", item["text"])
        ops.append(Op(item["name"], ("analyze", str(path), "--json"),
                      _golden_check(0, item["sha256"], item["chars"],
                                    _closed_form_check(item["closed"]))))
    return ops


def long_relators(refs: dict, seed: int, work: Path) -> list[Op]:
    rng = random.Random(f"long_relators:{seed}")
    ops = []
    for slot in refs["long_relators"]:
        index = rng.randrange(len(slot["variants"]))
        item = slot["variants"][index]
        name = f"{slot['name']}.{index}"
        path = _write(work / f"{name}.pres", item["text"])
        ops.append(Op(name, ("analyze", str(path), "--explain", "--oracle"),
                      _golden_check(0, item["sha256"], item["chars"])))
    return ops


def analyze(refs: dict, seed: int, work: Path) -> list[Op]:
    """One ``analyze`` per file: the nine family files and one variant of
    each long-relator slot, in seeded order."""
    ops = families(refs, work) + long_relators(refs, seed, work)
    random.Random(f"analyze:{seed}").shuffle(ops)
    return ops


def screen(refs: dict, seed: int, work: Path) -> list[Op]:
    """One ``batch --json`` over a directory of seeded small files.

    The expected document is assembled from the per-file reference rows
    in the documented ``batch --json`` layout, so it is byte-exact for
    any draw from the pool.
    """
    rng = random.Random(f"screen:{seed}")
    # Random presentations differ widely in cost, so a plain sample of the
    # pool would make the pass time depend on the seed.  Instead the pool,
    # ordered by size, is cut into SCREEN_GOOD runs of similar files and one
    # file is drawn from each.
    pool = sorted(refs["screen"]["good"],
                  key=lambda item: (item["row"]["n"], item["row"]["s"], len(item["text"])))
    per = len(pool) // SCREEN_GOOD
    good = [rng.choice(pool[i * per:(i + 1) * per]) for i in range(SCREEN_GOOD)]
    bad = rng.sample(refs["screen"]["bad"], SCREEN_BAD)
    files = [(item, True) for item in good] + [(item, False) for item in bad]
    rng.shuffle(files)
    directory = work / "screen"
    directory.mkdir()
    rows, errors = [], []
    for i, (item, ok) in enumerate(files):
        name = f"p{i:03d}.pres"
        _write(directory / name, item["text"])
        if ok:
            rows.append({"name": name, **item["row"]})
        else:
            errors.append({"name": name, "error": item["error"]})
    expected = json.dumps({"schema": 1, "rows": rows, "errors": errors},
                          indent=2, ensure_ascii=False) + "\n"
    return [Op("batch", ("batch", str(directory), "--json"),
               _golden_check(2, digest(expected), len(expected)))]


BUILDERS = {"analyze": analyze, "screen": screen}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    return BUILDERS[workload](load_references(), seed, work)


# Inputs that the README promises to reject with a located error and exit
# code 2.  The program does not keep that promise for them yet, so they run
# beside the analyze workload as probes and are counted on their own
# rather than as failed operations of a measured workload.
PROBES = (
    ("deep_nest", "gens: x\nrels: " + "(" * 3000 + "x" + ")" * 3000 + "\n"),
    ("bad_utf8", b"gens: x\nrels: x\xff\n"),
)


def _located_error_check(code: int, out: str, err: str) -> str | None:
    if code != 2:
        return f"exit {code}, expected 2"
    if out or not LOCATED_ERROR.search(err):
        return "expected only a located error on stderr"
    return None


def probes(work: Path) -> list[Op]:
    return [
        Op(name, ("analyze", str(_write(work / f"{name}.pres", data))),
           _located_error_check)
        for name, data in PROBES
    ]
