"""Shared worked-example presentations used across the test modules."""

from kahlercheck.fixtures import (
    chain_link_text,
    free_abelian_text,
    free_text,
    surface_text,
)
from kahlercheck.presentation import Presentation, parse_presentation


def free_group(n: int) -> Presentation:
    return parse_presentation(free_text(n))


def surface_group(g: int) -> Presentation:
    return parse_presentation(surface_text(g))


def chain_link_group(m: int) -> Presentation:
    return parse_presentation(chain_link_text(m))


def free_abelian_group(n: int) -> Presentation:
    return parse_presentation(free_abelian_text(n))


def cyclic_group(n: int) -> Presentation:
    return parse_presentation(f"gens: x\nrels: x^{n}")


TRIVIAL = parse_presentation("gens:\nrels:")

# single relator ((x,y),y), a depth-3 iterated commutator
BRACKET_DEPTH3 = parse_presentation("gens: x y\nrels: ((x,y),y)")

# two independent exponent rows on four generators
TWO_RELATOR_RANK2 = parse_presentation("gens: x y z t\nrels: x^3 y^-4 z^2 y | y^2 z^2")

# three independent exponent rows on five generators
THREE_RELATOR_RANK2 = parse_presentation(
    "gens: x1 x2 x3 x4 x5\nrels: x1 x2^2 x1 | x2 x3^2 x2 | x5 x4^2 x5"
)

# two commutator relators with q = 4 but dim2 = 4
TWO_RELATOR_Q4 = parse_presentation(
    "gens: x1 x2 x3 x4\nrels: (x1 x2, x3^2) | (x1 x3 x1, x4^3)"
)

# four-generator commutator chain plus one exponent relator; k = 1
CHAIN_PLUS_POWER = parse_presentation(
    "gens: x1 x2 x3 x4 x5\n"
    "rels: x1^2 x2^-2 x4^2 | (x1,x2) | (x2,x3) | (x3,x4) | (x4,x5)"
)

# Hostile inputs the parser refuses, each at a located character.
DEEP_NEST = "gens: x\nrels: " + "(" * 3000 + "x" + ")" * 3000 + "\n"
# 30 nested commutators ((x,y),y)...: 2^31 letters if built.
LONG_NEST = "gens: x y\nrels: " + "(" * 30 + "x,y)" + ",y)" * 29 + "\n"
HUGE_POWER = "gens: x y\nrels: (x y)^10000000\n"
# Past the interpreter's 4300-digit int() limit.
LONG_EXPONENT = "gens: x y\nrels: x^" + "9" * 5000 + "\n"
