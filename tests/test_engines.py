"""The three engines check each other on one knot at a time.

- Fronts against skein: tb(front) <= min_deg_a(F) - 1 of the front drawn
  as a PD diagram (``helpers.front_to_pd``), on random one-component
  front words.
- Skein against Fox: for a knot, F(a=1, z=2) = Delta(-1)^2 and
  F(a=1, z=-2) = 1, on random pretzel and braid-closure knot diagrams,
  with Delta from the Wirtinger presentation (``helpers.pd_alexander``).

A convention error that an engine shares with its own oracle passes the
engine's own tests; these identities tie the engines to one another.  The
inputs are seeded, so every run checks the same knots.
"""

import random
from fractions import Fraction

from diskfill import data_path
from diskfill.front import FrontWord, classical_invariants, orient, parse_front
from diskfill.kauffman import kauffman_F, tb_upper_bound, trace_diagram

from helpers import braid_pd, evaluate, front_to_pd, pd_alexander, pretzel_pd


def random_knot_fronts(rng, count, max_events=30):
    """``count`` random valid front words of one component and at most
    ``max_events`` events, mostly crossings."""
    found = []
    while len(found) < count:
        events, strands = [("L", 1)], 2
        while strands:
            if len(events) + strands // 2 >= max_events:
                kind = "R"
            else:
                kind = rng.choice("LLXXR" if strands == 2 else "LXXXR" if strands < 6 else "XXXR")
            if kind == "L":
                events.append(("L", rng.randint(1, strands + 1)))
                strands += 2
            else:
                events.append((kind, rng.randint(1, strands - 1)))
                strands -= 2 if kind == "R" else 0
        oriented = orient(FrontWord(tuple(events)))
        if oriented.n_components == 1:
            found.append(oriented)
    return found


def random_knot_diagrams(rng, count):
    """``count`` random knot diagrams: 3-strand pretzels with twists
    +-1..5, and closures of 2- to 4-strand braids of 4 to 12 letters."""
    found = []
    while len(found) < count:
        if rng.random() < 0.5:
            diagram = pretzel_pd([rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(3)])
        else:
            strands = rng.randint(2, 4)
            word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(4, 12))]
            diagram = braid_pd(strands, word)
        if trace_diagram(diagram).components == 1:
            found.append(diagram)
    return found


def at_a_equals_1(poly, z):
    """The Kauffman polynomial F at a = 1 and the given z."""
    return sum(c * Fraction(z) ** ez for (_, ez), c in poly.terms.items())


def test_front_tb_is_at_most_the_kauffman_bound():
    # 9_46's front has the largest tb of its knot, so its bound is sharp
    fronts = [orient(parse_front(data_path("9_46.front").read_text()))]
    fronts += random_knot_fronts(random.Random(11), 80)
    sharp = 0
    for oriented in fronts:
        [(tb, _)] = classical_invariants(oriented)
        bound = tb_upper_bound(front_to_pd(oriented.front))
        assert tb <= bound, oriented.front.events
        sharp += tb == bound
    # sharp on some, so a shift of either side shows
    assert 0 < sharp < len(fronts)


def test_kauffman_at_a_equals_1_matches_the_alexander_determinant():
    for diagram in random_knot_diagrams(random.Random(3), 24):
        f = kauffman_F(diagram)
        delta_at_minus_1 = evaluate(pd_alexander(diagram), -1)
        assert at_a_equals_1(f, 2) == delta_at_minus_1 ** 2, diagram.crossings
        assert at_a_equals_1(f, -2) == 1, diagram.crossings
