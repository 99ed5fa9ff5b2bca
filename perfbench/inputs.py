"""Input generators for the benchmark, independent of the package under test.

Everything here is plain data built from a ``random.Random``: PD codes of
pretzel diagrams, Wirtinger presentations, torus-knot groups, Tietze
variants of presentations, and Legendrian fronts of the connected sums
``L_n`` together with their composed filling certificates.  Nothing here
imports ``diskfill``; the text formats are the ones documented in the
package README.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- paper data ----------------------------------------------------------------

# The two doubly pinched disk exteriors of the paper and BS(1,2).
W22 = (("x1", "x2", "x3"), ((1, 2, -1, -2, 1, 2), (3, 2, -3, -2, 3, 2)), (1, -1, 1))
W12 = (("x1", "x2", "x3"), ((1, 2, -1, -2, 1, 2), (3, -2, -3, 2, 3, -2)), (1, -1, -1))
BS12 = (("x", "y"), ((-2, 1, 2, -1, -1),), (0, 1))

W22_ALEXANDER = "4*t^2 - 4*t + 1"
W12_ALEXANDER = "2*t^2 - 5*t + 2"

# Front of the mirror of 9_46 with tb = -1 and its two disk certificates.
FRONT_946 = (
    ("L", 1), ("L", 3), ("X", 2), ("L", 5), ("X", 4), ("X", 3), ("X", 3),
    ("X", 2), ("X", 4), ("X", 3), ("X", 3), ("X", 2), ("X", 4), ("R", 3),
    ("R", 1), ("R", 1),
)
CERT_D1 = (
    "PINCH 8 3", "MOVE r2a- 6 2", "MOVE r2d- 7 3", "MOVE slide 9",
    "MOVE r2c- 7 3", "MOVE r1a- 7 2", "MOVE slide 2", "MOVE slide 3",
    "MOVE r2b- 4 2", "MOVE slide 1", "MOVE r1b- 2 3", "MOVE slide 1",
    "DEATH 1", "DEATH 1",
)
CERT_D2 = (
    "PINCH 4 3", "MOVE r2d- 5 3", "MOVE slide 3", "MOVE r1a- 1 2",
    "MOVE slide 4", "MOVE r2c- 2 3", "MOVE r2c- 2 2", "MOVE r2d- 2 2",
    "MOVE r1b- 2 3", "MOVE slide 1", "DEATH 1", "DEATH 1",
)
FRONT_UNKNOT = (("L", 1), ("R", 1))
CERT_UNKNOT = ("DEATH 1",)

# summand name -> (front events, certificate steps, pinches, deaths)
SUMMANDS = {
    "d1": (FRONT_946, CERT_D1, 1, 2),
    "d2": (FRONT_946, CERT_D2, 1, 2),
    "unknot": (FRONT_UNKNOT, CERT_UNKNOT, 0, 1),
}

# The (-3,-3,3) pretzel is the mirror of 9_46; the trefoils as (1,1,1).
PD_946 = ((2, 1, 3, 4), (4, 3, 5, 6), (6, 5, 7, 8), (10, 2, 11, 12),
          (12, 11, 13, 14), (14, 13, 8, 16), (10, 19, 20, 1), (19, 21, 22, 20),
          (21, 16, 7, 22))
PD_TREFOIL_RH = ((3, 4, 2, 1), (4, 8, 6, 2), (8, 3, 1, 6))
PD_TREFOIL_LH = ((1, 3, 4, 2), (2, 4, 8, 6), (6, 8, 3, 1))


# -- union-find ------------------------------------------------------------------

class _Classes:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def join(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


# -- PD codes ----------------------------------------------------------------------

def pretzel_pd(twists):
    """PD code of the pretzel diagram P(twists), one vertical twist region each.

    Crossings are listed counterclockwise from the incoming under-strand.
    In a region with positive count the strand from the upper left passes
    under; with a negative count the strand from the upper right does.
    """
    edges = iter(range(1, 10**9))
    crossings = []
    tops, bottoms = [], []
    for k in twists:
        left, right = next(edges), next(edges)
        tops.append((left, right))
        for _ in range(abs(k)):
            low_left, low_right = next(edges), next(edges)
            if k > 0:
                crossings.append((left, low_left, low_right, right))
            else:
                crossings.append((right, left, low_left, low_right))
            left, right = low_left, low_right
        bottoms.append((left, right))
    classes = _Classes()
    for ends in (tops, bottoms):
        for i in range(len(twists)):
            classes.join(ends[i][1], ends[(i + 1) % len(twists)][0])
    return tuple(tuple(classes.find(e) for e in c) for c in crossings)


def mirror_pd(crossings):
    """Exchange over and under everywhere (rotate each tuple by one slot)."""
    return tuple((b, c, d, a) for a, b, c, d in crossings)


def render_pd(crossings):
    return "".join(f"X({a},{b},{c},{d})\n" for a, b, c, d in crossings)


@dataclass(frozen=True)
class Traversal:
    components: int
    signs: tuple  # per crossing, +1 or -1
    under_in: tuple  # per crossing, slot (0 or 2) where the under strand enters


def traverse(crossings):
    """Orient a PD diagram by walking each component from its least edge."""
    ends = {}
    for ci, c in enumerate(crossings):
        for slot, e in enumerate(c):
            ends.setdefault(e, []).append((ci, slot))
    entered = set()
    components = 0
    for start in sorted(ends):
        if ends[start][0] in entered or ends[start][1] in entered:
            continue
        components += 1
        ci, slot = ends[start][0]
        while (ci, slot) not in entered:
            entered.add((ci, slot))
            out = crossings[ci][(slot + 2) % 4]
            a, b = ends[out]
            ci, slot = b if a == (ci, (slot + 2) % 4) else a
    signs, under_in = [], []
    for ci in range(len(crossings)):
        u = 0 if (ci, 0) in entered else 2
        o = 1 if (ci, 1) in entered else 3
        signs.append(1 if o == (u + 3) % 4 else -1)
        under_in.append(u)
    return Traversal(components, tuple(signs), tuple(under_in))


def pretzel_components(twists):
    return traverse(pretzel_pd(twists)).components


def pretzel_determinant(twists):
    """|sum_i prod_{j != i} p_j|, the determinant of the pretzel link."""
    total = 0
    for i in range(len(twists)):
        prod = 1
        for j, p in enumerate(twists):
            if j != i:
                prod *= p
        total += prod
    return abs(total)


def random_pretzel(rng, crossings, components, strands=3, balanced=False):
    """Twist counts summing to ``crossings`` with that many link components.

    ``strands`` twist regions of at least three crossings each where the
    total allows it, random sizes and signs; ``balanced`` keeps the sizes
    within two of each other.  Determinant 1 is skipped: such knots have
    Alexander polynomial 1, which ends the minor search after a few minors
    and would make costs bimodal.
    """
    smallest = min(3, crossings // strands)
    for _ in range(10_000):
        cuts = sorted(rng.sample(range(1, crossings), strands - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [crossings])]
        if min(parts) < smallest or (balanced and max(parts) - min(parts) > 2):
            continue
        twists = tuple(p * rng.choice((1, -1)) for p in parts)
        if pretzel_components(twists) == components and pretzel_determinant(twists) > 1:
            return twists
    raise ValueError(f"no pretzel with {crossings} crossings, {components} components")


# -- presentations ------------------------------------------------------------------

def _free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def wirtinger(crossings):
    """Arc generators and one conjugation relator per crossing of a knot."""
    tr = traverse(crossings)
    arcs = _Classes()
    for c in crossings:
        arcs.join(c[1], c[3])
    names = sorted({arcs.find(e) for c in crossings for e in c})
    index = {a: i + 1 for i, a in enumerate(names)}
    relators = []
    for c, s, u in zip(crossings, tr.signs, tr.under_in):
        a_in = index[arcs.find(c[u])]
        a_out = index[arcs.find(c[(u + 2) % 4])]
        o = index[arcs.find(c[1])]
        relators.append(_free_reduce((s * o, a_in, -s * o, -a_out)))
    gens = tuple(f"a{i}" for i in range(1, len(names) + 1))
    return gens, tuple(relators), (1,) * len(gens)


def torus_group(p, q):
    """<a, b | a^p b^-q>, the T(p, q) knot group, with weights (q, p)."""
    return ("a", "b"), ((1,) * p + (-2,) * q,), (q, p)


def abelianize(word, weights):
    return sum(weights[abs(x) - 1] * (1 if x > 0 else -1) for x in word)


def random_word(rng, rank, length):
    while True:
        word = _free_reduce(
            [rng.randint(1, rank) * rng.choice((1, -1)) for _ in range(length)]
        )
        if word:
            return word


def stabilize(pres, word):
    """Tietze move adding a generator s = word, with relator s word^-1."""
    gens, relators, weights = pres
    s = len(gens) + 1
    rel = _free_reduce((s,) + tuple(-x for x in reversed(word)))
    return gens + (f"s{s}",), relators + (rel,), weights + (abelianize(word, weights),)


def conjugate(pres, i, word):
    gens, relators, weights = pres
    rels = list(relators)
    rels[i] = _free_reduce(tuple(word) + rels[i] + tuple(-x for x in reversed(word)))
    return gens, tuple(rels), weights


def invert(pres, i):
    gens, relators, weights = pres
    rels = list(relators)
    rels[i] = tuple(-x for x in reversed(rels[i]))
    return gens, tuple(rels), weights


def tietze_variant(rng, pres, rank, avoid_unit=False, conjugations=2):
    """Stabilize up to ``rank`` generators, conjugate, invert one relator, shuffle."""
    while len(pres[0]) < rank:
        word = random_word(rng, len(pres[0]), 3)
        if avoid_unit and abs(abelianize(word, pres[2])) == 1:
            continue
        pres = stabilize(pres, word)
    for _ in range(conjugations):
        i = rng.randrange(len(pres[1]))
        pres = conjugate(pres, i, random_word(rng, len(pres[0]), 1))
    pres = invert(pres, rng.randrange(len(pres[1])))
    gens, relators, weights = pres
    relators = list(relators)
    rng.shuffle(relators)
    return gens, tuple(relators), weights


def render_presentation(pres, with_map=True):
    gens, relators, weights = pres
    lines = ["gens: " + " ".join(gens)]
    for r in relators:
        lines.append("rel: " + _render_word(r, gens))
    if with_map:
        lines.append("map: " + " ".join(f"{g}={w}" for g, w in zip(gens, weights)))
    return "\n".join(lines) + "\n"


def _render_word(word, gens):
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        name = gens[abs(word[i]) - 1]
        exp = (j - i) * (1 if word[i] > 0 else -1)
        out.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(out)


def exponent_matrix(pres):
    gens, relators, _ = pres
    rows = []
    for r in relators:
        row = [0] * len(gens)
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


# -- fronts and certificates ----------------------------------------------------------

def connected_sum(summands):
    """Front and certificate of the connected sum of the named summands.

    Summands are spliced at the closing right cusp; the composed
    certificate pinches each splice neck first and then replays the
    summand certificates in order.  Returns (events, steps, pinches, deaths).
    """
    events, steps, pinches, deaths = SUMMANDS[summands[0]]
    events, steps = list(events), list(steps)
    for name in summands[1:]:
        f2, c2, p2, d2 = SUMMANDS[name]
        steps = [f"PINCH {len(events) - 1} 1"] + steps + list(c2)
        events = events[:-1] + list(f2[1:])
        pinches += p2 + 1
        deaths += d2
    return events, steps, pinches, deaths


def render_front(events):
    return "".join(f"{k} {p}\n" for k, p in events)


def render_certificate(steps, expect):
    return "\n".join([f"EXPECT {expect[0]} {expect[1]}"] + list(steps)) + "\n"


# Corruptions that fail exactly at the step they replace, whatever the word.
CORRUPTIONS = {
    "death-range": "DEATH 1000000",
    "pinch-empty": "PINCH 0 1000000",
    "move-mismatch": "MOVE r2a- 1000000 1",
    "slide-range": "MOVE slide 1000000",
}
