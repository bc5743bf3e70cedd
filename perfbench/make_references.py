"""Write ``data/references.json``: the benchmark's input pool and the
reference output of every input, taken from the program as it is now.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are accepted as correct; the
benchmark then fails any later commit whose output differs by a byte.
The screen pool is drawn from the test suite's ``tests/randgen.py``.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from kahlercheck import cli  # noqa: E402
from kahlercheck.presentation import format_presentation  # noqa: E402
import randgen  # noqa: E402

from workloads import DATA, digest  # noqa: E402

POOL_SEED = 1994
SCREEN_GOOD_POOL = 900
SCREEN_BAD_POOL = 36


def names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def surface_text(g: int) -> str:
    gens = " ".join(f"a{i} b{i}" for i in range(1, g + 1))
    return f"gens: {gens}\nrels: " + " ".join(f"(a{i},b{i})" for i in range(1, g + 1)) + "\n"


def chain_link_text(m: int) -> str:
    rels = " | ".join(f"(x{i},x{i % m + 1})" for i in range(1, m + 1))
    return f"gens: {' '.join(names(m))}\nrels: {rels}\n"


def free_abelian_text(n: int) -> str:
    rels = " | ".join(f"(x{i},x{j})" for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return f"gens: {' '.join(names(n))}\nrels: {rels}\n"


FAMILIES = (
    [(f"surface_g{g}", surface_text(g),
      {"q": 2 * g, "dim2": comb(2 * g, 2) - 1, "surface_genus": g}) for g in (5, 10, 14)]
    + [(f"chain_link_{m}", chain_link_text(m),
        {"q": m, "dim2": comb(m, 2) - m}) for m in (8, 14, 18)]
    + [(f"free_abelian_{n}", free_abelian_text(n), {"q": n, "dim2": 0}) for n in (6, 8, 10)]
)

# Each slot fixes the generator count and the relator templates.  Variants
# only rename the generators (x1 x2 ... or y1 y2 ... and so on), keeping
# their order, so every variant of a slot runs exactly the same
# computation and costs the same; only the names in the output differ.
# Letting variants permute which generator plays which role instead made
# the pass time depend on the seed by up to 8%.  Roles within one template
# are distinct, so no letters merge across repetitions.
LONG_SLOTS = (
    ("power_xy", 2, ["(a b)^3000"]),
    ("g8_mixed", 8, ["((a,b) c)^80", "(d e^-1, f)^60", "(g h^2 a^-1)^100"]),
    ("g6_single", 6, ["((a,b) (c,d) e f^-1)^100"]),
    ("g4_pair", 4, ["(a b, c)^150", "((a,d) b)^150"]),
)
LONG_PREFIXES = ("x", "y", "u", "v")


def long_text(n: int, templates: list[str], prefix: str) -> str:
    gens = [f"{prefix}{i}" for i in range(1, n + 1)]
    roles = dict(zip("abcdefgh", gens))
    rels = [
        "".join(roles.get(ch, ch) if ch.isalpha() else ch for ch in t)
        for t in templates
    ]
    return f"gens: {' '.join(gens)}\nrels: {' | '.join(rels)}\n"


BAD_EDITS = (
    lambda g, r: (g, r + " zz"),             # unknown generator
    lambda g, r: (g, r + " @"),              # stray character
    lambda g, r: (g, r + " (x1"),            # unclosed parenthesis
    lambda g, r: (g, r + " x1^"),            # power without exponent
    lambda g, r: (g, r + " |"),              # dangling separator
    lambda g, r: (g + " x1", r),             # duplicate generator
    lambda g, r: (g.replace("gens:", "gen:"), r),
    lambda g, r: (g, None),                  # missing rels line
)


def bad_text(text: str, rng: random.Random) -> str:
    gens, rels = text.rstrip("\n").split("\n")
    gens, rels = rng.choice(BAD_EDITS)(gens, rels)
    prefix = "# screened input\n" * rng.randrange(3)
    return prefix + gens + "\n" + (rels + "\n" if rels is not None else "")


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def reference(path: Path, argv: list[str], expected_exit: int) -> dict:
    code, out, err = run(argv)
    if code != expected_exit or err:
        raise SystemExit(f"{path.name}: exit {code}: {err}")
    return {"sha256": digest(out), "chars": len(out)}


def main() -> int:
    work = HERE / "_work" / "references"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        refs: dict = {"families": [], "long_relators": [], "screen": {}}
        for name, text, closed in FAMILIES:
            path = work / f"{name}.pres"
            path.write_text(text, encoding="utf-8")
            refs["families"].append({"name": name, "text": text, "closed": closed,
                                     **reference(path, ["analyze", str(path), "--json"], 0)})
            print(name, file=sys.stderr)
        for slot, n, templates in LONG_SLOTS:
            variants = []
            for v, prefix in enumerate(LONG_PREFIXES):
                text = long_text(n, templates, prefix)
                path = work / f"{slot}.{v}.pres"
                path.write_text(text, encoding="utf-8")
                argv = ["analyze", str(path), "--explain", "--oracle"]
                variants.append({"text": text, **reference(path, argv, 0)})
                print(f"{slot}.{v}", file=sys.stderr)
            refs["long_relators"].append({"name": slot, "variants": variants})

        rng = random.Random(POOL_SEED)
        good = [format_presentation(randgen.random_presentation(rng))
                for _ in range(SCREEN_GOOD_POOL)]
        bad = [bad_text(rng.choice(good), rng) for _ in range(SCREEN_BAD_POOL)]
        directory = work / "screen"
        directory.mkdir()
        for i, text in enumerate(good + bad):
            (directory / f"p{i:04d}.pres").write_text(text, encoding="utf-8")
        code, out, _ = run(["batch", str(directory), "--json"])
        doc = json.loads(out)
        rows = {row.pop("name"): row for row in doc["rows"]}
        errors = {e["name"]: e["error"] for e in doc["errors"]}
        if code != 2 or len(rows) != len(good) or len(errors) != len(bad):
            raise SystemExit("screen pool: unexpected batch result")
        refs["screen"] = {
            "good": [{"text": t, "row": rows[f"p{i:04d}.pres"]}
                     for i, t in enumerate(good)],
            "bad": [{"text": t, "error": errors[f"p{len(good) + i:04d}.pres"]}
                    for i, t in enumerate(bad)],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DATA.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
