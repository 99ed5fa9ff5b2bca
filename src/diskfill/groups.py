"""Free-group words, finite presentations, and their computable invariants.

A word is a tuple of nonzero ints: letter ``k`` is the k-th generator
(1-based) and ``-k`` its inverse.  Words are kept freely reduced, and the
empty tuple is the identity.  A relator is a word set equal to the
identity; a relation u = v is stored as u v^-1.

The module computes the abelianization H1 through an exact integer Smith
normal form, found by least-entry pivoting with a divisibility check,
checks and constructs weight maps onto Z (the exponent of t assigned to
each generator), and enumerates homomorphisms into small symmetric groups
by a depth-first search.  The search checks each relator at the depth of
its highest generator, with each stretch of lower-generator runs already
multiplied into one permutation, and rejects an assignment at the first
symbol the relator moves.  A node follows each symbol through its image,
or through its inverse for a negative run, once per letter of a run of up
to three letters, and takes a power of its image only for a longer run;
it is still charged n steps per exponent.  Everything is pure and
immutable; the search yields in ``itertools.product`` order, so its
results are deterministic.
Permutations are read from and written to cycle notation here, and so
are witness files, one generator's image in cycles per line.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import namedtuple

from . import content_lines, read_int, shown
from .errors import BudgetError, InputError

__all__ = [
    "free_reduce",
    "parse_word",
    "Presentation",
    "PresentationFile",
    "parse_presentation",
    "parse_weights",
    "exponent_matrix",
    "smith_normal_form",
    "invariant_factors",
    "H1Summary",
    "h1",
    "validate_abelianization",
    "z_surjection",
    "identity_perm",
    "perm_mul",
    "perm_inv",
    "perm_from_cycles",
    "render_cycles",
    "parse_witness",
    "check_finite_hom",
    "is_image_abelian",
    "iter_homs",
]

MAX_HOM_STEPS = 20_000_000  # symbol steps one iter_homs call may take
# a descent folds each run with a call that costs about this many symbol steps
# whatever n is, so each folded run is charged n + FOLD_RUN_STEPS
FOLD_RUN_STEPS = 32
# x^k is stored as |k| letters, and a weight w spans |w| dense coefficients in
# Laurent division, so larger powers and weights are refused
MAX_EXPONENT = 1000
MAX_SYMBOLS = 10_000  # a permutation is a tuple of this many symbols at most


# -- words -------------------------------------------------------------------

def free_reduce(letters):
    """Freely reduce a letter sequence; the normal form for words."""
    out = []
    for x in letters:
        if x == 0:
            raise InputError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


_LETTER = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def parse_word(text, gens):
    """Parse ``x1 x2^-1 x1`` against an ordered generator list."""
    letters = []
    for tok in text.split():
        m = _LETTER.match(tok)
        if not m:
            raise InputError(f"bad word token {shown(tok)}")
        name, power = m.groups()
        if name not in gens:
            raise InputError(f"unknown generator {shown(name)}")
        e = 1 if power is None else read_int(power, f"exponent in {shown(tok)}",
                                             -MAX_EXPONENT, MAX_EXPONENT)
        k = gens.index(name) + 1
        letters.extend([k if e > 0 else -k] * abs(e))
    return free_reduce(letters)


# -- presentations -----------------------------------------------------------

class Presentation(namedtuple("Presentation", "gens relators")):
    """A finite group presentation with named generators."""

    def __new__(cls, gens, relators):
        if len(set(gens)) != len(gens):
            raise InputError("generator names must be distinct")
        relators = tuple(free_reduce(r) for r in relators)
        n = len(gens)
        for r in relators:
            for x in r:
                if not 1 <= abs(x) <= n:
                    raise InputError(f"letter {x} outside generator range 1..{n}")
        return tuple.__new__(cls, (tuple(gens), relators))

    @property
    def rank(self):
        return len(self.gens)

    @functools.cached_property
    def _relator_runs(self):
        """Each relator as (generator index, exponent) runs, for _evaluate_runs,
        split once per presentation rather than once per assignment."""
        return tuple(_word_runs(r) for r in self.relators)


# a parsed presentation file: the presentation plus any weight maps
PresentationFile = namedtuple("PresentationFile", "presentation maps")


def parse_presentation(text):
    """Parse the text format: ``gens:`` line, ``rel:`` and ``map:`` lines."""
    gens = None
    relators = []
    maps = []
    try:
        for lineno, line in content_lines(text):
            if line.startswith("gens:"):
                if gens is not None:
                    raise InputError("second gens: line")
                gens = tuple(line[len("gens:"):].split())
                if not gens:
                    raise InputError("empty generator list")
            elif line.startswith("rel:"):
                if gens is None:
                    raise InputError("rel: before gens:")
                relators.append(parse_word(line[len("rel:"):], gens))
            elif line.startswith("map:"):
                if gens is None:
                    raise InputError("map: before gens:")
                maps.append(parse_weights(line[len("map:"):], gens))
            else:
                raise InputError(f"unrecognized line {shown(line)}")
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}") from None
    if gens is None:
        raise InputError("missing gens: line")
    return PresentationFile(Presentation(gens, tuple(relators)), tuple(maps))


def parse_weights(text, gens):
    """Parse ``x1=1 x2=-1`` (or comma separated) into a weight tuple.

    Each weight lies in -MAX_EXPONENT..MAX_EXPONENT.
    """
    weights = {}
    for tok in text.replace(",", " ").split():
        if "=" not in tok:
            raise InputError(f"bad map entry {shown(tok)}")
        name, value = tok.split("=", 1)
        if name not in gens:
            raise InputError(f"unknown generator {shown(name)} in map")
        if name in weights:
            raise InputError(f"generator {shown(name)} mapped twice")
        weights[name] = read_int(value, f"weight {shown(value)} for {shown(name)}",
                                 -MAX_EXPONENT, MAX_EXPONENT)
    missing = [g for g in gens if g not in weights]
    if missing:
        raise InputError(f"map missing generators: {' '.join(missing)}")
    return tuple(weights[g] for g in gens)


def exponent_matrix(pres):
    """Signed exponent sums, one row per relator, one column per generator."""
    rows = []
    for r in pres.relators:
        row = [0] * pres.rank
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


# -- Smith normal form --------------------------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (d, u, v) with u * matrix * v == d, u and v unimodular, and
    the diagonal of d nonnegative with d[0] | d[1] | ... .  All
    arithmetic is exact.

    Each pass moves the least nonzero |entry| left to (t, t) and reduces
    its row and column by it; a remainder is smaller, so the next pass
    picks it.  When the pivot fails to divide an entry left, that entry's
    row is added to row t to make a remainder.  So t advances only past a
    pivot that divides everything after it, which is the chain.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [list(map(int, row)) for row in matrix]
    u = _identity(rows)
    v = _identity(cols)

    def add_row(src, dst, q):
        # row dst += q * row src
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        least = min(
            ((abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]),
            default=None,
        )
        if least is None:
            break
        _, i, j = least
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        for row in d + v:
            row[t], row[j] = row[j], row[t]
        p = d[t][t]
        for i in range(t + 1, rows):
            if q := d[i][t] // p:
                add_row(t, i, -q)
        for j in range(t + 1, cols):
            if q := d[t][j] // p:
                add_col(t, j, -q)
        if any(d[i][t] for i in range(t + 1, rows)) or any(d[t][t + 1:]):
            continue
        # a unit divides everything left; a row found is below t, never 0
        bad = abs(p) > 1 and next(
            (i for i in range(t + 1, rows) if any(x % p for x in d[i][t + 1:])), None
        )
        if bad:
            add_row(bad, t, 1)
            continue
        if p < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
        t += 1
    return d, u, v


def invariant_factors(matrix):
    d, _, _ = smith_normal_form(matrix)
    return [d[k][k] for k in range(min(len(d), len(d[0]) if d else 0)) if d[k][k]]


class H1Summary(namedtuple("H1Summary", "free_rank torsion")):
    """An abelian group: free rank plus torsion coefficients > 1."""

    __slots__ = ()

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def h1(pres):
    """Abelianization of the presented group, from Smith normal form."""
    m = exponent_matrix(pres)
    if not m:
        return H1Summary(pres.rank, ())
    factors = invariant_factors(m)
    torsion = tuple(f for f in factors if f > 1)
    return H1Summary(pres.rank - len(factors), torsion)


def validate_abelianization(pres, weights):
    """True when every relator's weighted exponent sum vanishes."""
    if len(weights) != pres.rank:
        raise InputError(
            f"map has {len(weights)} weights for {pres.rank} generators"
        )
    return not any(sum(w * e for w, e in zip(weights, row)) for row in exponent_matrix(pres))


def z_surjection(pres):
    """A weight map inducing a surjection onto Z modulo torsion.

    Requires H1 of free rank exactly 1; the map is read off from the
    Smith normal form change of basis, so its weights are primitive.
    """
    # a zero row stands in for no relators, so v is rank x rank either way
    d, _, v = smith_normal_form(exponent_matrix(pres) or [[0] * pres.rank])
    free_rank = pres.rank - sum(1 for k in range(min(len(d), pres.rank)) if d[k][k])
    if free_rank != 1:
        raise InputError(f"free rank is {free_rank}, need exactly 1 for a map onto Z")
    weights = tuple(row[pres.rank - 1] for row in v)
    first = next(w for w in weights if w)
    if first < 0:
        weights = tuple(-w for w in weights)
    # columns of a unimodular matrix are primitive, so the map is onto
    if math.gcd(*(abs(w) for w in weights)) != 1:
        raise ArithmeticError(f"Smith normal form gave a non-primitive map {weights}")
    if not validate_abelianization(pres, weights):
        raise ArithmeticError(f"Smith normal form gave a map {weights} that misses a relator")
    return weights


# -- finite permutation quotients ---------------------------------------------

def identity_perm(n):
    return tuple(range(n))


def perm_mul(p, q):
    """Compose left-to-right: (p * q)(i) = q(p(i))."""
    return tuple([q[x] for x in p])


def perm_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_from_cycles(text, n):
    """Parse cycle notation like ``(1 2 3)(4 5)`` on symbols 1..n.

    The cycles must be disjoint, so the result is a permutation.
    """
    if not re.fullmatch(r"(\s*\([^()]*\))*\s*", text):
        raise InputError(f"expected cycles like (1 2 3)(4 5), got {shown(text)}")
    perm = list(range(n))
    used = set()
    what = f"cycle symbol in {shown(text)}"
    for cycle in re.findall(r"\(([^()]*)\)", text):
        symbols = [read_int(s, what, 1, n) for s in cycle.replace(",", " ").split()]
        if len(set(symbols)) != len(symbols) or not used.isdisjoint(symbols):
            raise InputError(f"repeated symbol in cycles {shown(text)}")
        used.update(symbols)
        for i, s in enumerate(symbols):
            perm[s - 1] = symbols[(i + 1) % len(symbols)] - 1
    return tuple(perm)


def render_cycles(perm):
    """Cycle notation of a permutation of 0..n-1 on symbols 1..n, as
    ``perm_from_cycles`` reads it: each cycle once, from its least symbol,
    with fixed points left out, and ``()`` for the identity."""
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle = [i]
        while perm[cycle[-1]] != i:
            cycle.append(perm[cycle[-1]])
        seen.update(cycle)
        parts.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(parts) or "()"


def parse_witness(text, gens, n):
    """Parse a witness file: one ``gen (cycles)`` line per generator, in
    any order, into a tuple of permutations of n symbols in ``gens`` order."""
    images = {}
    try:
        for lineno, line in content_lines(text):
            name, *cycles = line.split(None, 1)
            if name not in gens:
                raise InputError(f"unknown generator {shown(name)}")
            if name in images:
                raise InputError(f"generator {shown(name)} listed twice")
            images[name] = perm_from_cycles("".join(cycles), n)
    except InputError as exc:
        raise InputError(f"witness line {lineno}: {exc}") from None
    missing = [g for g in gens if g not in images]
    if missing:
        raise InputError(f"witness missing generators: {' '.join(missing)}")
    return tuple(images[g] for g in gens)


def _perm_power(p, k):
    """p^k for any integer k.  p^1 is p and p^-1 one inversion.  Any other
    k walks each cycle of p once and shifts it by k mod the cycle's length,
    so a large |k| costs no more than a small one."""
    if k == 1:
        return p
    if k == -1:
        return perm_inv(p)
    out = [None] * len(p)
    for i in range(len(p)):
        if out[i] is None:
            cycle = [i]
            while p[cycle[-1]] != i:
                cycle.append(p[cycle[-1]])
            s = k % len(cycle)
            for x, y in zip(cycle, cycle[s:] + cycle[:s]):
                out[x] = y
    return tuple(out)


def _word_runs(word):
    """A word as (generator index, exponent) runs: x1^3 x2^-1 -> ((0, 3), (1, -1))."""
    return tuple(
        (abs(x) - 1, len(list(run)) * (1 if x > 0 else -1))
        for x, run in itertools.groupby(word)
    )


def _evaluate_runs(runs, images, n):
    """Evaluate runs at permutations of n symbols, one power per run."""
    acc = identity_perm(n)
    for g, k in runs:
        p = _perm_power(images[g], k)
        acc = tuple([p[x] for x in acc])  # perm_mul(acc, p), inlined
    return acc


def check_finite_hom(pres, images):
    """True when the assignment kills every relator."""
    if len(images) != pres.rank:
        raise InputError(
            f"assignment has {len(images)} permutations for {pres.rank} generators"
        )
    sizes = {len(p) for p in images}
    if len(sizes) > 1:
        raise InputError(f"permutations act on different symbol counts {sorted(sizes)}")
    n = sizes.pop() if sizes else 0
    ident = identity_perm(n)
    for p in images:
        if set(p) != set(ident):
            raise InputError(f"image {p} is not a permutation of 0..{n - 1}")
    return all(_evaluate_runs(r, images, n) == ident for r in pres._relator_runs)


def is_image_abelian(images):
    """True when all images pairwise commute; each distinct pair is compared once."""
    return all(perm_mul(p, q) == perm_mul(q, p)
               for p, q in itertools.combinations(dict.fromkeys(images), 2))


def _segments(runs, top):
    """A relator's runs cut into segments, one per run of its highest
    generator ``top``: (exponent, the stretch of lower runs after it).

    When every run of ``top`` is negative the relator is read as its
    inverse, which dies exactly when it does, so that a node needs no
    inverse of its image.  The runs are then rotated to start with a run
    of ``top``.  That conjugates the relator, which again keeps whether it
    dies."""
    if all(k < 0 for g, k in runs if g == top):
        runs = tuple((g, -k) for g, k in reversed(runs))
    i = next(j for j, (g, _) in enumerate(runs) if g == top)
    runs = runs[i:] + runs[:i]
    starts = [j for j, (g, _) in enumerate(runs) if g == top] + [len(runs)]
    return tuple((runs[a][1], runs[a + 1:b]) for a, b in zip(starts, starts[1:]))


def _kills(relators, perm, inv, powers, n):
    """True when every relator, given as (exponent, fixed permutation)
    segments, sends every symbol back to itself.  Each symbol is followed
    through the segments, and the first one moved decides.  An exponent k
    of 1 to 3 is k lookups in the top image ``perm``, of -1 to -3 as many
    in its inverse ``inv``, and any other one lookup in ``powers[k]``, that
    power of ``perm``."""
    for segments in relators:
        for i in range(n):
            x = i
            for k, fixed in segments:
                if k == 1:
                    x = fixed[perm[x]]
                elif k == -1:
                    x = fixed[inv[x]]
                elif k == 2:
                    x = fixed[perm[perm[x]]]
                elif k == -2:
                    x = fixed[inv[inv[x]]]
                elif k == 3:
                    x = fixed[perm[perm[perm[x]]]]
                elif k == -3:
                    x = fixed[inv[inv[inv[x]]]]
                else:
                    x = fixed[powers[k][x]]
            if x != i:
                return False
    return True


def iter_homs(pres, n):
    """Yield each homomorphism into S_n as images, in ``itertools.product`` order.

    A depth-first search assigns the generators in order and checks each
    relator once its highest generator has an image, cut into one segment
    per run of that generator (``_segments``).  A descent to depth d
    multiplies each segment's lower runs into one permutation; a node there
    follows symbol 0, 1, ... through the segments and stops at the first one
    moved.  It looks a run of up to three letters up in its image, or in its
    inverse when the run is negative, taken once per node when a segment
    needs it, and takes a power of its image only for a longer run.

    ``MAX_HOM_STEPS``, read once per call, bounds the symbol steps, each
    charged before it is taken: n for a node's permutation, for each
    exponent generator d has and for each segment it follows, n +
    ``FOLD_RUN_STEPS`` for each run a descent folds, and the rank for each
    hom.  An exponent's n stands for the inverse or power it may take, or
    for the extra lookups of a short run, so each step is at most a few
    lookups and the limit bounds time at every n and relator length; past
    it ``BudgetError`` says how far the search got."""
    if n < 1:
        raise InputError("symbol count must be positive")
    budget, rank, ident = MAX_HOM_STEPS, pres.rank, identity_perm(n)
    if not rank:
        yield ()
        return
    tops = [[r for r in pres._relator_runs if r and max(g for g, _ in r) == d]
            for d in range(rank)]
    plans = [[_segments(r, d) for r in rels] for d, rels in enumerate(tops)]
    # a node is charged n per exponent as written, before _segments inverts a relator
    exponents = [{k for r in rels for g, k in r if g == d} for d, rels in enumerate(tops)]
    node_steps = [n * (1 + len(exponents[d]) + sum(map(len, plans[d]))) for d in range(rank)]
    # a node takes its image's inverse for exponents -1..-3, and its powers beyond +-3
    followed = [{k for plan in p for k, _ in plan} for p in plans]
    inverted = [any(-4 < k < 0 for k in ks) for ks in followed]
    walked = [{k for k in ks if not -4 < k < 4} for ks in followed]
    # a node that passes its checks then folds the next depth's runs or yields its hom
    pass_steps = [(n + FOLD_RUN_STEPS) * sum(len(s) for p in plans[d] for _, s in p)
                  for d in range(1, rank)] + [rank]
    images = [None] * rank

    def folded(d):
        return [tuple((k, _evaluate_runs(stretch, images, n)) for k, stretch in plan)
                for plan in plans[d]]

    def spent():
        return BudgetError(f"hom search into S{n} stopped at {steps} steps, past its limit of "
                           f"{budget}, and found {found} homs; the deepest generator reached was "
                           f"{pres.gens[deepest]} ({deepest + 1} of {rank})")

    checks = [folded(0)] + [None] * (rank - 1)  # depth d's segments, folded at its last descent
    levels = [itertools.permutations(ident)]
    steps = found = deepest = 0
    while levels:
        depth = len(levels) - 1
        relators, cost = checks[depth], node_steps[depth]
        inverse, walks = inverted[depth], walked[depth]
        for perm in levels[depth]:
            steps, images[depth] = steps + cost, perm
            if steps > budget:
                raise spent()
            if relators and not _kills(relators, perm, inverse and perm_inv(perm),
                                       walks and {k: _perm_power(perm, k) for k in walks}, n):
                continue
            steps += pass_steps[depth]
            if steps > budget:
                raise spent()
            if depth + 1 < rank:
                deepest, checks[depth + 1] = max(deepest, depth + 1), folded(depth + 1)
                levels.append(itertools.permutations(ident))
                break
            found += 1
            yield tuple(images)
        else:
            levels.pop()
