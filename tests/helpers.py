"""Shared test machinery.

Independent reconstructions used as oracles: a front-word to PD-code
converter, Wirtinger presentations of PD codes (so Alexander polynomials
of diagrams can be computed through the group pipeline), pretzel/torus
and braid-closure PD generators, the pretzel skein polynomial by tangle
algebra, Tietze transformations, a plain skein evaluator with no
simplification that caches only on the exact PD code within one call,
the group-ring Fox calculus that abelianizes to the rows of an Alexander
matrix, the gcd of every (n-1)-minor of an Alexander matrix, exact Laurent
division over Q and evaluation at a rational point, a reader of the
polynomials ``str`` prints, the mirror of a PD
diagram and the a -> a^-1 rule it induces on Kauffman polynomials, the
parity union-find that once oriented fronts,
the front steps run on a copy of a word instead of in place,
isotopy moves that rewrite the word and then validate all of it, a
pinch and a death that trace their whole input every time, the
edge-incidence walk that once traced PD diagrams, the PD-shaped Kauffman
memo key minimized over every start dart, the token key built in full
for every under-strand start, the simplify that rebuilt the diagram
after every kink or bigon, the union-find smoothing it used, the
homomorphism count by brute force over every assignment, the cycle walk
that once took every power of a permutation, the front and certificate
parsers that loop over content lines, wide generated presentations, and
the one runner of ``diskfill`` commands in a child process.
"""

import itertools
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import diskfill
from diskfill import content_lines, read_int, shown
from diskfill.errors import InputError
from diskfill.front import (
    MOVE_KINDS,
    MOVE_TABLE,
    Death,
    FillingCertificate,
    FrontWord,
    Move,
    Pinch,
    _slide,
    _trace,
    _window,
    orient,
    validate,
)
from diskfill.fox import alexander_matrix, alexander_polynomial, laurent_det
from diskfill.groups import Presentation, check_finite_hom, free_reduce
from diskfill.kauffman import (
    LinkDiagram,
    _connected_pieces,
    delta_power,
    smooth_crossing,
    switch_crossing,
)
from diskfill.laurent import BiLaurent, IntLaurent, laurent_gcd, normalize_unit


# -- front word -> PD code ------------------------------------------------------

def front_to_pd(front):
    """Convert a front to a PD diagram (edges cut at crossings only)."""
    oriented = orient(front)
    dirs = oriented.directions
    active = []  # list of [strand_id, current_edge]
    next_edge = [0]
    joins = []
    crossings = []
    all_edges = set()

    def fresh():
        next_edge[0] += 1
        all_edges.add(next_edge[0])
        return next_edge[0]

    sid = 0
    for kind, p in front.events:
        if kind == "L":
            e = fresh()
            active[p - 1:p - 1] = [[sid, e], [sid + 1, e]]
            sid += 2
        elif kind == "R":
            (u, eu), (v, ev) = active[p - 1], active[p]
            joins.append((eu, ev))
            del active[p - 1:p + 1]
        else:  # crossing: top strand descends and is in front
            top, bot = active[p - 1], active[p]
            nw, sw = top[1], bot[1]
            se, ne = fresh(), fresh()
            top[1], bot[1] = se, ne
            if dirs[bot[0]] > 0:  # under strand traversed rightward
                crossings.append((sw, se, ne, nw))
            else:
                crossings.append((ne, nw, sw, se))
            active[p - 1], active[p] = bot, top
    # glue edges through right cusps
    parent = {e: e for e in all_edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in joins:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    tuples = tuple(tuple(find(e) for e in c) for c in crossings)
    present = {e for c in tuples for e in c}
    loops = len({find(e) for e in all_edges} - present)
    return LinkDiagram(tuples, loops)


# -- Wirtinger presentations ----------------------------------------------------

def wirtinger_presentation(diagram):
    """Arc generators and one conjugation relator per crossing."""
    if not diagram.crossings:
        raise InputError("crossingless diagrams have free Wirtinger groups")
    tr = incidence_trace(diagram)
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in diagram.crossings:
        rx, ry = find(c[1]), find(c[3])
        if rx != ry:
            parent[ry] = rx
    arcs = sorted({find(e) for c in diagram.crossings for e in c})
    index = {a: i + 1 for i, a in enumerate(arcs)}
    relators = []
    for ci, (c, s) in enumerate(zip(diagram.crossings, tr.signs)):
        into = tr.under_in[ci]
        a_in = index[find(c[into])]
        a_out = index[find(c[(into + 2) % 4])]
        o = index[find(c[1])]
        if s > 0:
            relators.append(free_reduce((o, a_in, -o, -a_out)))
        else:
            relators.append(free_reduce((-o, a_in, o, -a_out)))
    gens = tuple(f"a{i}" for i in range(1, len(arcs) + 1))
    return Presentation(gens, tuple(relators))


def pd_alexander(diagram):
    """Alexander polynomial of a knot diagram via its Wirtinger group.

    One Wirtinger relator is redundant, so it is dropped; all meridians
    share the weight 1.
    """
    pres = wirtinger_presentation(diagram)
    trimmed = Presentation(pres.gens, pres.relators[:-1])
    weights = (1,) * trimmed.rank
    return alexander_polynomial(alexander_matrix(trimmed, weights))


# -- Fox calculus in the group ring -----------------------------------------------
#
# A group-ring element is a dict mapping freely reduced words to nonzero
# integer coefficients.

def ring_add(a, b):
    out = dict(a)
    for w, c in b.items():
        c2 = out.get(w, 0) + c
        if c2:
            out[w] = c2
        else:
            out.pop(w, None)
    return out


def ring_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = free_reduce(w1 + w2)
            c = out.get(w, 0) + c1 * c2
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return out


def fox_derivative(word, gen):
    """d(word)/d(x_gen) as a group-ring element; gen is 1-based.

    Every prefix of a freely reduced word w is freely reduced, so a letter
    gen at index i contributes the prefix ``w[:i]`` and a letter -gen the
    prefix times gen^-1, ``w[:i + 1]``.  Two terms meet only for -gen
    followed by gen, which a reduced word never holds, so each is ±1.
    """
    w = free_reduce(word)
    out = {}
    for i, x in enumerate(w):
        if x == gen:
            out[w[:i]] = 1
        elif x == -gen:
            out[w[:i + 1]] = -1
    return out


def abelianize_word(word, weights):
    """Total t-exponent of a word under a weight map."""
    return sum(weights[abs(x) - 1] * (1 if x > 0 else -1) for x in word)


def abelianized_fox(word, gen, weights):
    """d(word)/d(x_gen) in the group ring, then each word sent to t^exponent."""
    return IntLaurent(
        [(abelianize_word(w, weights), c) for w, c in fox_derivative(word, gen).items()]
    )


# -- Alexander oracles ------------------------------------------------------------

def all_minors_gcd(matrix):
    """Gcd of every (n-1)-minor of an AlexanderMatrix, canonical unit form.

    The definition with no pruning: every row subset against every column
    subset, each minor through ``laurent_det``.
    """
    n = len(matrix.weights)
    k = n - 1
    if k == 0:
        return IntLaurent.constant(1)
    acc = IntLaurent()
    for rows in itertools.combinations(range(matrix.nrows), k):
        for cols in itertools.combinations(range(n), k):
            minor = laurent_det([[matrix.entries[i][j] for j in cols] for i in rows])
            if minor:
                acc = laurent_gcd(acc, minor) if acc else minor
    return normalize_unit(acc) if acc else IntLaurent()


def fraction_div_exact(p, q):
    """p / q in Z[t, t^-1] by long division over Q, else None (q nonzero)."""
    if not p:
        return IntLaurent()
    plo, phi = p.min_exp(), p.max_exp()
    qlo, qhi = q.min_exp(), q.max_exp()
    rem = [Fraction(p.coefficient(e)) for e in range(plo, phi + 1)]
    qc = [q.coefficient(e) for e in range(qlo, qhi + 1)]
    if len(rem) < len(qc):
        return None
    quot = [Fraction(0)] * (len(rem) - len(qc) + 1)
    for k in range(len(quot) - 1, -1, -1):
        f = rem[k + len(qc) - 1] / qc[-1]
        quot[k] = f
        for i, c in enumerate(qc):
            rem[k + i] -= f * c
    if any(rem) or any(f.denominator != 1 for f in quot):
        return None
    return IntLaurent({plo - qlo + i: int(f) for i, f in enumerate(quot)})


def evaluate(p, x):
    """An IntLaurent at a nonzero rational point, exactly."""
    x = Fraction(x)
    return sum((c * x ** e for e, c in p.terms.items()), Fraction(0))


_FACTOR = re.compile(r"([a-z])(?:\^(-?[0-9]+))?")


def read_poly(kind, text):
    """The IntLaurent or BiLaurent whose ``str`` is ``text``: terms joined
    by `` + `` and `` - ``, a leading ``-`` on a negative first term, and
    in a term an optional coefficient, then variables, joined by ``*``,
    ``^`` before each power other than 1.  Written apart from the package's
    renderer, so that a round trip through it checks the renderer."""
    variables = ("t",) if kind is IntLaurent else ("a", "z")
    words = text.split(" ")
    if len(words) % 2 == 0 or set(words[1::2]) - {"+", "-"}:
        raise ValueError(f"not a rendered polynomial: {text!r}")
    terms = []
    for i, (op, body) in enumerate(zip(["+", *words[1::2]], words[::2])):
        coeff = -1 if op == "-" or (i == 0 and body.startswith("-")) else 1
        factors = body.removeprefix("-" if i == 0 else "").split("*")
        if re.fullmatch("[0-9]+", factors[0]):
            coeff *= int(factors.pop(0))
        exps = dict.fromkeys(variables, 0)
        for factor in factors:
            m = _FACTOR.fullmatch(factor)
            if m is None or m[1] not in exps:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            exps[m[1]] += int(m[2] or 1)
        terms.append((exps["t"] if kind is IntLaurent else (exps["a"], exps["z"]), coeff))
    return kind(terms)


# -- pretzel and torus diagrams ---------------------------------------------------

def pretzel_pd(twists):
    """PD code of the pretzel link with the given twist counts.

    ``pretzel_pd([1] * k)`` is the (2, k) torus diagram; ``pretzel_pd([k])``
    closes one region on itself, an unknot with k kinks.  The sign of each
    twist count picks which strand of that region passes in front.
    """
    if not twists or any(k == 0 for k in twists):
        raise ValueError("twist counts must be nonzero")
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    crossings = []
    joins = []
    tops = []
    bottoms = []
    for k in twists:
        left, right = fresh(), fresh()
        tops.append((left, right))
        for _ in range(abs(k)):
            out_l, out_r = fresh(), fresh()
            if k > 0:  # left strand dips under toward the right
                crossings.append((left, out_l, out_r, right))
            else:
                crossings.append((right, left, out_l, out_r))
            left, right = out_l, out_r
        bottoms.append((left, right))
    n = len(twists)
    for i in range(n - 1):
        joins.append((tops[i][1], tops[i + 1][0]))
        joins.append((bottoms[i][1], bottoms[i + 1][0]))
    joins.append((tops[0][0], tops[n - 1][1]))
    joins.append((bottoms[0][0], bottoms[n - 1][1]))

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in joins:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    return LinkDiagram(tuple(tuple(find(e) for e in c) for c in crossings), 0)


def braid_pd(strands, word):
    """PD code of the closure of a braid on ``strands`` strands.

    Letter ``i`` (1-based) crosses the strands at positions i and i + 1,
    positively for ``i > 0`` and negatively for ``-i``; the closure of
    ``[1] * 3`` is the right-handed trefoil, of writhe 3.  A position no
    letter touches closes into a crossingless loop.
    """
    top = list(range(1, strands + 1))  # the edge leaving each position upward
    crossings = []
    for x in word:
        i = abs(x) - 1
        if not x or i >= strands - 1:
            raise ValueError(f"no braid letter {x} on {strands} strands")
        # strands run upward: a and b enter from below, c and d leave above
        a, b = top[i], top[i + 1]
        c = strands + 2 * len(crossings) + 1
        d = c + 1
        crossings.append((b, d, c, a) if x > 0 else (a, b, d, c))
        top[i], top[i + 1] = c, d
    close = {edge: j for j, edge in enumerate(top, start=1)}
    crossings = tuple(tuple(close.get(e, e) for e in c) for c in crossings)
    return LinkDiagram(crossings, sum(edge == j for edge, j in close.items()))


def pretzel_lambda(twists):
    """The regular-isotopy polynomial of ``pretzel_pd(twists)`` by tangle
    algebra, with no diagram and no recursion.

    A 4-ended tangle is a vector (c0, cinf, c1) over the skein module's
    basis: B0 (horizontal arcs), Binf (vertical arcs) and B1 (one
    crossing).  In the horizontal sum B0 is the unit, Binf + Binf =
    delta Binf, Binf + B1 = B1 + Binf = a Binf and B1 + B1 = -B0 + z B1 +
    z a Binf.  Turning a tangle by 90 degrees swaps B0 and Binf and sends
    B1 to B-1 = z (B0 + Binf) - B1.  A region with k > 0 is the turned
    horizontal sum of k B1 crossings, one with k < 0 of |k| B-1; the
    regions are summed horizontally and closed by the numerator N, with
    N(B0) = delta, N(Binf) = 1 and N(B1) = a^-1.
    """
    zero, one = BiLaurent(), BiLaurent.constant(1)
    z, a, delta = BiLaurent.z(1), BiLaurent.a(1), delta_power(1)

    def add(s, t):
        (s0, si, s1), (t0, ti, t1) = s, t
        return (s0 * t0 - s1 * t1,
                s0 * ti + si * t0 + si * ti * delta + (si * t1 + s1 * ti) * a + s1 * t1 * z * a,
                s0 * t1 + s1 * t0 + s1 * t1 * z)

    def turn(s):
        c0, ci, c1 = s
        return (ci + z * c1, c0 + z * c1, -c1)

    unit, b1 = (one, zero, zero), (zero, zero, one)
    total = unit
    for k in twists:
        crossing = b1 if k > 0 else turn(b1)
        region = unit
        for _ in range(abs(k)):
            region = add(region, crossing)
        total = add(total, turn(region))
    c0, ci, c1 = total
    return c0 * delta + ci + c1 * BiLaurent.a(-1)


# -- plain exponential skein oracle ------------------------------------------------

def naive_lambda(diagram, memo=None):
    """The regular-isotopy polynomial with no reductions and no memo key.

    Recurses on the first under-first crossing in traversal order exactly
    like the engine, but never simplifies.  Within one call it caches a
    value only under the exact ``(crossings, loops)`` tuple: equal tuples
    are equal diagrams, so a hit returns what the recursion would compute
    again.
    """
    if memo is None:
        memo = {}
    key = (diagram.crossings, diagram.loops)
    if key in memo:
        return memo[key]
    if not diagram.crossings:
        value = delta_power(diagram.loops - 1)
    else:
        value = _skein_step(diagram, memo)
    memo[key] = value
    return value


def _skein_step(diagram, memo):
    tr = incidence_trace(diagram)
    target = tr.target
    if target is None:
        return BiLaurent.a(-tr.writhe) * delta_power(tr.components - 1)
    z = BiLaurent.z(1)
    return (
        z * (naive_lambda(smooth_crossing(diagram, target, 0), memo)
             + naive_lambda(smooth_crossing(diagram, target, 1), memo))
        - naive_lambda(switch_crossing(diagram, target), memo)
    )


def naive_F(diagram):
    return BiLaurent.a(incidence_trace(diagram).writhe) * naive_lambda(diagram)


def mirror(diagram):
    """Swap over and under at every crossing."""
    return LinkDiagram(tuple([(b, c, d, a) for a, b, c, d in diagram.crossings]), diagram.loops)


def a_mirror(f):
    """Apply a -> a^-1, which takes F of a diagram to F of its mirror."""
    return BiLaurent({(-ea, ez): c for (ea, ez), c in f.terms.items()})


# -- PD walks by edge incidences ----------------------------------------------------

def _incidences(crossings):
    """Map edge -> list of (crossing index, slot), rebuilt on every call."""
    inc = {}
    for ci, c in enumerate(crossings):
        for slot, e in enumerate(c):
            inc.setdefault(e, []).append((ci, slot))
    return inc


@dataclass(frozen=True)
class IncidenceTrace:
    components: int
    writhe: int
    signs: tuple  # one per crossing
    first_under: tuple  # per crossing: True when the first visit goes under
    first_visit: tuple  # per crossing: traversal time of its earlier pass
    under_in: tuple  # per crossing: the slot (0 or 2) the under strand enters

    @property
    def target(self):
        """The crossing to switch: the earliest first visit among the
        crossings first visited on the under strand, or None."""
        ascending = [ci for ci, under in enumerate(self.first_under) if under]
        return min(ascending, key=self.first_visit.__getitem__, default=None)


def incidence_trace(diagram):
    """``kauffman.trace_diagram`` as it was before the dart map, with the
    per-crossing records it kept then: components start at their least
    edge label, entered at its first incidence, and each step looks the
    next crossing up in the incidence lists.  Wirtinger presentations
    read its signs and under slots, and the plain skein oracle its
    target."""
    crossings = diagram.crossings
    inc = _incidences(crossings)
    entered = {}
    seen_edges = set()
    ncomp = diagram.loops
    counter = 0
    for start in sorted(inc):
        if start in seen_edges:
            continue
        ncomp += 1
        edge = start
        endpoint = inc[start][0]
        while True:
            seen_edges.add(edge)
            ci, slot = endpoint
            entered[(ci, slot)] = counter
            counter += 1
            out_slot = (slot + 2) % 4
            out_edge = crossings[ci][out_slot]
            both = inc[out_edge]
            nxt = both[1] if both[0] == (ci, out_slot) else both[0]
            edge, endpoint = out_edge, nxt
            if edge == start and endpoint == inc[start][0]:
                break
    signs, first_under, first_visit, under_ins = [], [], [], []
    for ci in range(len(crossings)):
        under_in = 0 if (ci, 0) in entered else 2
        over_in = 1 if (ci, 1) in entered else 3
        signs.append(1 if over_in == (under_in + 3) % 4 else -1)
        first_under.append(entered[(ci, under_in)] < entered[(ci, over_in)])
        first_visit.append(min(entered[(ci, under_in)], entered[(ci, over_in)]))
        under_ins.append(under_in)
    return IncidenceTrace(
        ncomp, sum(signs), tuple(signs), tuple(first_under), tuple(first_visit), tuple(under_ins)
    )


def _all_starts_piece_code(crossings, piece, start):
    """Relabel the piece's edges along a traversal from ``start``, an
    (edge, incidence) pair, rebuilding the incidences on every call.  Later
    components start at the anchor ``kauffman._piece_code`` uses: the first
    crossing, in traversal order, whose other strand has no entered dart,
    at the slot after the entered one.  The anchor search runs after every
    component, the last one included."""
    inc = _incidences(crossings)
    labels = {}
    entered = {}  # dart -> None, in traversal order
    edge, endpoint = start
    while True:
        while endpoint not in entered:
            if edge not in labels:
                labels[edge] = len(labels)
            ci, slot = endpoint
            entered[endpoint] = None
            out_slot = (slot + 2) % 4
            out_edge = crossings[ci][out_slot]
            both = inc[out_edge]
            nxt = both[1] if both[0] == (ci, out_slot) else both[0]
            edge, endpoint = out_edge, nxt
        anchor = None
        for ci, slot in entered:
            other = {(ci, (slot + 1) % 4), (ci, (slot + 3) % 4)}
            if not other & entered.keys():
                anchor = (ci, (slot + 1) % 4)
                break
        if anchor is None:
            break
        edge, endpoint = crossings[anchor[0]][anchor[1]], anchor
    code = []
    for ci in piece:
        c = crossings[ci]
        under_in = 0 if (ci, 0) in entered else 2
        code.append(tuple(labels[c[(under_in + k) % 4]] for k in range(4)))
    code.sort()
    return tuple(code)


def all_starts_key(diagram):
    """The memo key minimized over all four start darts of every crossing.

    ``kauffman.canonical_key`` starts only at under-strand darts; with the
    same anchor for later components, the two must induce the same
    partition of diagrams.
    """
    crossings = diagram.crossings
    if not crossings:
        return ("loops", diagram.loops)
    inc = _incidences(crossings)
    piece_codes = []
    for piece in _connected_pieces(diagram):
        edges = {e for ci in piece for e in crossings[ci]}
        piece_codes.append(min(
            _all_starts_piece_code(crossings, piece, (e, endpoint))
            for e in edges
            for endpoint in inc[e]
        ))
    piece_codes.sort()
    return ("pd", tuple(piece_codes), diagram.loops)


def _token_code(crossings, start):
    """The full token code from the dart ``start``, walked with the
    incidence lists: per entered dart ``slot & 1`` on its crossing's first
    visit, ``2 + 2 * (first-visit index) + ((slot - first slot) % 4 == 3)``
    on the second, and -1 before each later link component, which starts
    at ``kauffman._piece_code``'s anchor."""
    inc = _incidences(crossings)
    tokens = []
    entered = {}  # dart -> None, in traversal order
    first = {}  # crossing -> (first-visit index, slot entered first)
    dart = start
    while True:
        while dart not in entered:
            entered[dart] = None
            ci, slot = dart
            if ci in first:
                index, first_slot = first[ci]
                tokens.append(2 + 2 * index + ((slot - first_slot) % 4 == 3))
            else:
                first[ci] = (len(first), slot)
                tokens.append(slot & 1)
            out = (ci, (slot + 2) % 4)
            both = inc[crossings[ci][out[1]]]
            dart = both[1] if both[0] == out else both[0]
        anchor = next(
            ((ci, (slot + 1) % 4) for ci, slot in entered
             if (ci, (slot + 1) % 4) not in entered and (ci, (slot + 3) % 4) not in entered),
            None,
        )
        if anchor is None:
            return tuple(tokens)
        tokens.append(-1)
        dart = anchor


def token_key(diagram):
    """``kauffman.canonical_key`` without its early exit: the full token
    code of every under-strand start (slots 0 and 2 of every crossing),
    the least of them per piece written as the string of code points
    token + 1, the pieces sorted."""
    crossings = diagram.crossings
    if not crossings:
        return ("loops", diagram.loops)
    codes = []
    for piece in _connected_pieces(diagram):
        least = min(_token_code(crossings, (ci, slot)) for ci in piece for slot in (0, 2))
        codes.append("".join(chr(token + 1) for token in least))
    codes.sort()
    return ("tokens", tuple(codes), diagram.loops)


def _remove_and_join(crossings, loops, removed, joins):
    """Delete crossings by index and identify edge pairs through a
    union-find, each class under the root of its first label.

    Edge classes that no longer touch any crossing closed up into loops.
    """
    keep = [c for i, c in enumerate(crossings) if i not in removed]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = set()
    for x, y in joins:
        touched.add(x)
        touched.add(y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    new_crossings = tuple(tuple(find(e) for e in c) for c in keep)
    present = {find(e) for c in new_crossings for e in c}
    closed = {find(x) for x in touched} - present
    return LinkDiagram(new_crossings, loops + len(closed))


def union_find_smoothing(diagram, i, which):
    """``kauffman.smooth_crossing`` as it was before it joined darts with
    ``simplify``'s ``_splice``: the same joins, as label pairs, through
    the union-find."""
    c = diagram.crossings[i]
    joins = [(c[0], c[1]), (c[2], c[3])] if which == 0 else [(c[0], c[3]), (c[1], c[2])]
    return _remove_and_join(diagram.crossings, diagram.loops, {i}, joins)


def stepwise_simplify(diagram):
    """``kauffman.simplify`` as it was before it edited crossing lists and
    a copy of the dart map in place: remove the first kink (by crossing,
    then slot), else the first cancellable bigon, build a whole
    ``LinkDiagram`` and rescan from crossing 0; the unit multiplies one
    a^-+1 per kink."""
    unit = BiLaurent.constant(1)
    while True:
        crossings, far = diagram.crossings, diagram.far
        kink = next(
            ((ci, s) for ci, c in enumerate(crossings) for s in range(4) if c[s] == c[(s + 1) % 4]),
            None,
        )
        if kink is not None:
            ci, s = kink
            c = crossings[ci]
            unit = unit * BiLaurent.a(-1 if s % 2 == 0 else 1)
            diagram = _remove_and_join(
                crossings, diagram.loops, {ci}, [(c[(s + 2) % 4], c[(s + 3) % 4])]
            )
            continue
        bigon = None
        for ci, a in enumerate(crossings):
            for s in range(4):
                (cx, sx), (cy, sy) = far[ci, s], far[ci, (s + 1) % 4]
                if cx == cy != ci and (sx - sy) % 4 in (1, 3) and s % 2 == sx % 2:
                    b = crossings[cx]
                    bigon = {ci, cx}, [(a[s ^ 2], b[sx ^ 2]), (a[(s + 3) % 4], b[sy ^ 2])]
                    break
            if bigon is not None:
                break
        if bigon is None:
            return diagram, unit
        diagram = _remove_and_join(crossings, diagram.loops, *bigon)


# -- Tietze transformations ---------------------------------------------------------

def conjugate_relator(pres, i, word):
    rels = list(pres.relators)
    rels[i] = free_reduce(tuple(word) + rels[i] + tuple(-x for x in reversed(word)))
    return Presentation(pres.gens, tuple(rels))


def invert_relator(pres, i):
    rels = list(pres.relators)
    rels[i] = tuple(-x for x in reversed(rels[i]))
    return Presentation(pres.gens, tuple(rels))


def permute_relators(pres, perm):
    rels = [pres.relators[j] for j in perm]
    return Presentation(pres.gens, tuple(rels))


def stabilize(pres, word, name="s"):
    """Add a generator equal to ``word``: new relator g * word^-1."""
    gens = pres.gens + (name,)
    g = len(gens)
    new_rel = free_reduce((g,) + tuple(-x for x in reversed(word)))
    return Presentation(gens, pres.relators + (new_rel,))


def stabilized_weights(pres, weights, word):
    return tuple(weights) + (abelianize_word(word, weights),)


# -- homomorphisms by brute force -------------------------------------------------

def brute_homs(pres, n):
    """Every homomorphism into the symmetric group on n symbols, found by
    checking all (n!)^rank assignments in ``itertools.product`` order."""
    perms = list(itertools.permutations(range(n)))
    for images in itertools.product(perms, repeat=pres.rank):
        if check_finite_hom(pres, images):
            yield images


def walk_power(p, k):
    """p^k for any integer k, walking each cycle of p once."""
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


# -- randomized inputs ---------------------------------------------------------------

def random_laurent(rng, span=4, size=4, coeff=6):
    return IntLaurent(
        {rng.randint(-span, span): rng.randint(-coeff, coeff) for _ in range(size)}
    )


def random_bilaurent(rng, span=3, size=4, coeff=5):
    terms = {}
    for _ in range(size):
        terms[(rng.randint(-span, span), rng.randint(-span, span))] = rng.randint(
            -coeff, coeff
        )
    return BiLaurent(terms)


def random_word(rng, rank, length):
    letters = []
    for _ in range(length):
        g = rng.randint(1, rank)
        letters.append(g if rng.random() < 0.5 else -g)
    return free_reduce(letters)


def random_move(rng, front, max_events=48):
    """Pick one applicable isotopy move at random.

    Growing moves are suppressed once the word reaches ``max_events`` so
    long random walks stay fast.
    """
    from diskfill.front import Move, apply_move

    events = front.events
    profile = front._profile
    top = max(profile) + 1
    growing = ("r1a+", "r1b+", "r2a+", "r2b+", "r2c+", "r2d+")
    shrinking = ("r1a-", "r1b-", "r2a-", "r2b-", "r2c-", "r2d-")
    neutral = ("slide", "r3")
    for _ in range(400):
        bucket = rng.random()
        if len(events) >= max_events:
            kinds = shrinking if bucket < 0.6 else neutral
        else:
            kinds = growing if bucket < 0.35 else shrinking if bucket < 0.6 else neutral
        kind = rng.choice(kinds)
        i = rng.randrange(len(events) + 1 if kind in growing else max(len(events), 1))
        p = rng.randint(1, top)
        if kind == "slide":
            move = Move("slide", i, 0)
        else:
            move = Move(kind, i, p)
        try:
            return move, stepped(apply_move, front, move)
        except InputError:
            continue
    raise AssertionError("no applicable move found")


# -- fronts: orientation by parity union-find, moves by full validation ---------

class _ParityUnionFind:
    """Strands joined with the parity of their relative direction."""

    def __init__(self):
        self.parent = []
        self.parity = []

    def add(self):
        self.parent.append(len(self.parent))
        self.parity.append(0)
        return len(self.parent) - 1

    def find(self, x):
        # returns (root, parity of x relative to root)
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        par = 0
        for y in reversed(path):
            par ^= self.parity[y]
            self.parent[y] = x
            self.parity[y] = par
        return x, self.parity[path[0]] if path else 0

    def union(self, x, y, rel):
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if (px ^ py) != rel:
                raise RuntimeError("front traversal direction conflict")
            return
        # keep the smaller root so component order follows creation order
        if ry < rx:
            rx, ry, px, py = ry, rx, py, px
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ rel


def parity_orient(front):
    """(directions, component_of, event_strands) of a valid front, as
    ``orient`` gives them, by joining the two branches of every cusp with
    opposite parity."""
    uf = _ParityUnionFind()
    event_strands = []
    active = []
    for kind, p in front.events:
        if kind == "L":
            u, v = uf.add(), uf.add()
            uf.union(u, v, 1)
            active[p - 1:p - 1] = [u, v]
        else:
            u, v = active[p - 1], active[p]
            if kind == "R":
                uf.union(u, v, 1)
                del active[p - 1:p + 1]
            else:
                active[p - 1], active[p] = v, u
        event_strands.append((u, v))
    roots = {}
    directions, component_of = [], []
    for s in range(len(uf.parent)):
        r, par = uf.find(s)
        # the smallest strand of a component is its root, met first here
        component_of.append(roots.setdefault(r, len(roots)))
        directions.append(1 if par == 0 else -1)
    return tuple(directions), tuple(component_of), tuple(event_strands)


def _instantiate(pattern, p):
    return tuple([(kind, p + off - 1) for kind, off in pattern])


def _match(events, index, pattern):
    got = tuple(_window(events, index, len(pattern)))
    if got != pattern:
        raise InputError(
            f"pattern mismatch at index {index}: expected {list(pattern)}, found {list(got)}"
        )


def rewrite_then_validate(front, move):
    """One isotopy move: rewrite the word, then validate all of it."""
    events = list(front.events)
    kind = move.kind
    if kind == "slide":
        events[move.index:move.index + 2] = _slide(front.events, move.index)
    elif kind == "r3":
        p = move.pos
        lhs = (("X", p), ("X", p + 1), ("X", p))
        rhs = (("X", p + 1), ("X", p), ("X", p + 1))
        got = _window(front.events, move.index, 3)
        if got == lhs:
            events[move.index:move.index + 3] = rhs
        elif got == rhs:
            events[move.index:move.index + 3] = lhs
        else:
            raise InputError(
                f"pattern mismatch at index {move.index}: expected a braid triple at {p}, found {list(got)}"
            )
    else:
        base, direction = kind[:-1], kind[-1]
        if base not in MOVE_TABLE or direction not in "+-":
            raise InputError(f"unknown move kind {kind!r}")
        lhs, rhs = MOVE_TABLE[base]
        if direction == "-":
            lhs, rhs = rhs, lhs
        lhs = _instantiate(lhs, move.pos)
        rhs = _instantiate(rhs, move.pos)
        _match(front.events, move.index, lhs)
        events[move.index:move.index + len(lhs)] = list(rhs)
    out = FrontWord(tuple(events))
    validate(out)
    return out


def stepped(step, front, *args):
    """``front`` after the in-place ``step`` (``apply_move``, ``pinch`` or
    ``death``), run on a copy of its events and profile; reading the
    profile validates ``front`` first.  The result carries the profile
    that the step left, unchecked, as a replay would."""
    events, counts = list(front.events), list(front._profile)
    step(events, counts, *args)
    word = FrontWord(tuple(events))
    word.__dict__["_profile"] = counts
    return word


def move_outcome(apply, *args):
    """The result of ``apply(*args)``, or the type and text of what it raised."""
    try:
        return apply(*args).events
    except (InputError, RuntimeError) as exc:
        return type(exc), str(exc)


def traced_death(front, component_index):
    """``front.death`` as it was before component 1 skipped the trace:
    find the component's events by orienting the whole front."""
    oriented = orient(front)
    ncomp = oriented.n_components
    if not 1 <= component_index <= ncomp:
        raise InputError(f"component {component_index} out of range 1..{ncomp}")
    target = component_index - 1
    indices = [
        i
        for i, strands in enumerate(oriented.event_strands)
        if oriented.component_of[strands[0]] == target
    ]
    events = front.events
    if len(indices) != 2 or indices[1] != indices[0] + 1:
        raise InputError(
            f"component {component_index} is not a standard unknot: "
            f"its events sit at {indices}"
        )
    i = indices[0]
    (k1, p1), (k2, p2) = events[i], events[i + 1]
    if k1 != "L" or k2 != "R" or p1 != p2:
        raise InputError(
            f"component {component_index} is not the standard unknot "
            f"[L {p1}, R {p2}]"
        )
    return FrontWord(events[:i] + events[i + 2:])


def traced_pinch(front, index, k):
    """``front.pinch`` as it was before it traced only the block around
    its column: one trace of the whole input validates it and gives the
    strands at the column."""
    validate(front)
    (dirs, comp, _), active = _trace(front.events, index)
    events = front.events
    if not 0 <= index <= len(events):
        raise InputError(f"pinch column {index} out of range 0..{len(events)}")
    if k < 1 or k + 1 > len(active):
        raise InputError(
            f"pinch needs strands {k},{k + 1} at column {index}, only {len(active)} present"
        )
    u, v = active[k - 1], active[k]
    if comp[u] == comp[v] and dirs[u] == dirs[v]:
        raise InputError(
            f"pinch at column {index} position {k}: strands are parallel; "
            "an oriented saddle needs anti-parallel strands"
        )
    return FrontWord(events[:index] + (("R", k), ("L", k)) + events[index:])


# -- front and certificate files by a loop over content lines ---------------------

def line_loop_front(text):
    """``front.parse_front`` as it was before it read rendered fronts in
    bulk, with its integers since read by ``read_int``: one
    ``content_lines`` entry per event."""
    events = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("L", "R", "X"):
            raise InputError(f"line {lineno}: expected 'L k', 'R k' or 'X k', got {shown(line)}")
        try:
            k = read_int(parts[1], f"position {shown(parts[1])}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        events.append((parts[0], k))
    return FrontWord(tuple(events))


def line_loop_certificate(text):
    """``front.parse_certificate`` as it was before its one pass over
    ``splitlines``, with the three later changes: a second EXPECT line and
    a slide with a fourth token are refused, and an integer ``int`` refuses
    is named as ``read_int`` names it."""
    steps = []
    declared = expect_line = None
    for lineno, line in content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "EXPECT" and len(parts) == 3:
                surface = (int(parts[1]), int(parts[2]))
                if expect_line is not None:
                    raise InputError(
                        f"line {lineno}: a second EXPECT line; the first is line {expect_line}"
                    )
                declared, expect_line = surface, lineno
            elif parts[0] == "MOVE" and len(parts) == 3 and parts[1] == "slide":
                steps.append(Move("slide", int(parts[2]), 0))
            elif parts[0] == "MOVE" and len(parts) == 4 and parts[1] != "slide":
                if parts[1] not in MOVE_KINDS:
                    raise InputError(f"line {lineno}: unknown move kind {shown(parts[1])}")
                steps.append(Move(parts[1], int(parts[2]), int(parts[3])))
            elif parts[0] == "PINCH" and len(parts) == 3:
                steps.append(Pinch(int(parts[1]), int(parts[2])))
            elif parts[0] == "DEATH" and len(parts) == 2:
                steps.append(Death(int(parts[1])))
            else:
                raise InputError(f"line {lineno}: unrecognized step {shown(line)}")
        except ValueError:
            # the first token int() refuses as read_int does, or else a
            # bad integer
            for token in parts[2:] if parts[0] == "MOVE" else parts[1:]:
                try:
                    read_int(token, f"integer in {shown(line)}")
                except InputError as exc:
                    raise InputError(f"line {lineno}: {exc}") from None
            raise InputError(f"line {lineno}: bad integer in {shown(line)}") from None
    return FillingCertificate(tuple(steps), declared)


# -- wide generated presentations ------------------------------------------------

def wide_presentation(k, gens):
    """Presentation text on ``gens`` with k relators of k factors ``g^e``,
    each g drawn from ``gens`` and e from -30..30 (0 read as 1), seeded
    by k; a dense, many-exponent input for every presentation command."""
    r = random.Random(k)
    relators = ["rel: " + " ".join(f"{r.choice(gens)}^{r.randint(-30, 30) or 1}" for _ in range(k))
                for _ in range(k)]
    return "\n".join(["gens: " + " ".join(gens), *relators]) + "\n"


# -- diskfill commands in a child process -------------------------------------------

SCRIPT = Path(sys.executable).with_name("diskfill")  # where pip install puts it


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_child(argv, env=None, timeout=10, cwd=None):
    """``diskfill *argv --machine`` in a child process limited to 1 GiB of
    address space, through ``python -m diskfill.cli`` on the package these
    tests import and, when it is there, through ``SCRIPT``.  The script
    gets no PYTHONPATH, so its entry point and bare-name data lookup run
    as installed.  No run may end in a traceback, the two must agree on
    the exit code, stdout and stderr, and the first one's result is
    returned."""
    src = str(Path(diskfill.__file__).resolve().parents[1])
    launchers = [([sys.executable, "-m", "diskfill.cli"],
                  {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))})]
    if SCRIPT.is_file():
        launchers.append(([str(SCRIPT)], {}))
    # explicit raises: pytest does not rewrite this module's asserts, so
    # python -O would strip them
    results = []
    for launcher, added in launchers:
        result = subprocess.run([*launcher, *argv, "--machine"], capture_output=True, text=True,
                                env={**os.environ, **(env or {}), **added}, timeout=timeout,
                                cwd=cwd, preexec_fn=limit_address_space)
        if "Traceback" in result.stderr:
            raise AssertionError(result.stderr[-2000:])
        results.append(result)
    first = results[0]
    for result in results[1:]:
        if (result.returncode, result.stdout, result.stderr) != (
                first.returncode, first.stdout, first.stderr):
            raise AssertionError(f"{result.args[0]} and {first.args[:3]} disagree on {argv}")
    return first
