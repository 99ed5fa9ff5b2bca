"""Kauffman two-variable polynomial of unoriented link diagrams.

A diagram is a PD code: one 4-tuple of edge labels per crossing, listed
counterclockwise starting from the incoming under-strand, so the under
strand occupies slots 0 and 2 and the over strand slots 1 and 3.
Crossingless unknot components are carried as a separate loop count.

The regular-isotopy polynomial here satisfies

    lam(L+) + lam(L-) = z * (lam(L0) + lam(Loo)),
    lam(kink of writhe s) = a^-s * lam(without it),
    lam(D u unknot) = delta * lam(D),     delta = (a + a^-1 - z) / z,
    lam(unknot) = 1,

and the normalized invariant is F = a^w * lam with w the writhe of an
orientation obtained by edge tracing.  For a knot F does not depend on
that choice and has only nonnegative z-exponents (checked); for links F
carries the usual z^-1 powers through delta.  The orientation of the a
variable is pinned by sharpness of the Thurston-Bennequin bound
tb <= min_deg_a(F) - 1 on maximal-tb fronts: the trefoil admitting tb=1
must have min_deg_a(F) = 2.

Evaluation recurses on the first crossing, in traversal order, whose
first visit passes under: switching it moves the diagram strictly closer
to a descending one, and a descending diagram is an unlink whose value
is a^writhe * delta^(components-1).  Every diagram the recursion meets
is first reduced by removing kinks and parallel bigons; only the
reduced diagram is keyed, so each memo key is the relabel-invariant
canonical code of a diagram with no kink or cancellable bigon, and a
reducible diagram costs one key, not two.  Evaluation is deterministic
however the tree is walked.

Every walk reads one dart map per diagram.  A dart ``(crossing, slot)``
is a strand end entering a crossing along the edge at that slot, and
``LinkDiagram.far`` sends it to the dart at the other end of the same
edge; a strand entering at ``slot`` leaves through ``slot ^ 2``.

The canonical code is each piece's PD code relabelled along a
traversal, minimized over the two starts per crossing that enter it on
the under strand.  Starts and the anchors of later components are fixed
by the diagram, not by its labels or by how a crossing tuple is rotated,
so the code is label-free, and equal codes mean equal diagrams (see
``canonical_key``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BudgetError, InputError
from .laurent import BiLaurent, min_deg_a

__all__ = [
    "LinkDiagram",
    "parse_pd",
    "render_pd",
    "DELTA_NUMERATOR",
    "delta_power",
    "trace_diagram",
    "mirror",
    "switch_crossing",
    "smooth_crossing",
    "simplify",
    "canonical_key",
    "regular_isotopy_polynomial",
    "kauffman_F",
    "tb_upper_bound",
]

DEFAULT_CROSSING_BUDGET = 16

# delta = (a + a^-1 - z) / z
DELTA_NUMERATOR = BiLaurent({(1, 0): 1, (-1, 0): 1, (0, 1): -1})


@lru_cache(maxsize=256)
def delta_power(k):
    """delta^k for k >= 0.

    Cached: skein leaves ask for the same few powers over and over, and
    BiLaurent values are immutable, so one shared value per k is safe.
    """
    if k < 0:
        raise ValueError("negative delta powers are not used")
    return DELTA_NUMERATOR ** k * BiLaurent.z(-k)


@dataclass(frozen=True)
class LinkDiagram:
    """An unoriented link diagram: PD crossings plus crossingless loops."""

    crossings: tuple  # of 4-tuples of edge labels, under strand at slots 0, 2
    loops: int = 0
    # each dart (crossing, slot) -> the dart at the other end of its edge
    far: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        crossings = tuple(tuple(c) for c in self.crossings)
        object.__setattr__(self, "crossings", crossings)
        far, first = {}, {}  # first: edge label -> the dart that met it first
        for ci, c in enumerate(crossings):
            if len(c) != 4:
                raise InputError(f"crossing {c} is not a 4-tuple")
            for slot, e in enumerate(c):
                other = first.setdefault(e, (ci, slot))
                if other in far:
                    raise InputError(f"edge labels must occur exactly twice, {e!r} occurs more often")
                if other != (ci, slot):
                    far[ci, slot], far[other] = other, (ci, slot)
        once = [e for e, dart in first.items() if dart not in far]
        if once:
            raise InputError(f"edge labels must occur exactly twice, {once} occur once")
        object.__setattr__(self, "far", far)
        if self.loops < 0:
            raise InputError("negative loop count")
        if not self.crossings and not self.loops:
            raise InputError("empty diagram (no crossings, no loops)")

    @property
    def n(self):
        return len(self.crossings)


_PD_LINE = re.compile(r"([XO])\(([^()]*)\)$")


def parse_pd(text):
    """Parse ``X(a,b,c,d)`` crossing lines and ``O(e)`` loop lines."""
    crossings = []
    loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _PD_LINE.match(line)
        if not m:
            raise InputError(f"line {lineno}: expected X(a,b,c,d) or O(e), got {line!r}")
        try:
            labels = [int(s) for s in m.group(2).replace(",", " ").split()]
        except ValueError:
            raise InputError(f"line {lineno}: bad edge label in {line!r}") from None
        if m.group(1) == "X":
            if len(labels) != 4:
                raise InputError(f"line {lineno}: crossing needs 4 edges, got {len(labels)}")
            crossings.append(tuple(labels))
        else:
            if len(labels) != 1:
                raise InputError(f"line {lineno}: loop marker needs 1 label")
            loops += 1
    diagram = LinkDiagram(tuple(crossings), loops)
    _check_planar(diagram)
    return diagram


def _check_planar(diagram):
    """Raise InputError unless each crossing-connected piece is planar:
    V - E + F = 2 with E = 2V, faces traced by turning to the next slot
    counterclockwise.  No piece exceeds 2, so sums over pieces decide.  The
    skein recursion's switches and smoothings keep a diagram planar."""
    # each dart -> the next dart around its face
    turn = {dart: (cj, (s + 1) % 4) for dart, (cj, s) in diagram.far.items()}
    faces = 0
    while turn:
        faces += 1
        dart = next(iter(turn))
        while dart in turn:
            dart = turn.pop(dart)
    euler, pieces = faces - diagram.n, len(_connected_pieces(diagram))
    if euler != 2 * pieces:
        raise InputError(
            f"PD code is not planar: V - E + F = {euler} over {pieces} "
            f"connected piece(s), expected {2 * pieces}"
        )


def render_pd(diagram, header=None):
    lines = [] if header is None else [f"# {line}" for line in header.splitlines()]
    lines += [f"X({a},{b},{c},{d})" for a, b, c, d in diagram.crossings]
    next_label = max((e for c in diagram.crossings for e in c), default=0)
    for i in range(diagram.loops):
        lines.append(f"O({next_label + 1 + i})")
    return "\n".join(lines) + "\n"


# -- tracing -----------------------------------------------------------------

@dataclass(frozen=True)
class DiagramTrace:
    components: int
    writhe: int
    signs: tuple  # one per crossing
    first_under: tuple  # per crossing: True when the first visit goes under
    first_visit: tuple  # per crossing: traversal time of its earlier pass
    under_in: tuple  # per crossing: the slot (0 or 2) the under strand enters


def trace_diagram(diagram):
    """Orient the diagram by edge tracing; writhe and signs follow.

    Components are traversed starting from their least edge label, so the
    result is deterministic.  Crossing signs between different components
    depend on the traced orientations, as usual for unoriented input.
    """
    crossings, far = diagram.crossings, diagram.far
    entered = {}  # dart -> order in which traversal entered
    ncomp = diagram.loops
    # each label's first dart comes first among its two
    starts = sorted((e, (ci, slot)) for ci, c in enumerate(crossings) for slot, e in enumerate(c))
    for _, dart in starts:
        if dart in entered or far[dart] in entered:
            continue  # the edge is on a component already walked
        ncomp += 1
        while dart not in entered:
            entered[dart] = len(entered)
            ci, slot = dart
            dart = far[ci, slot ^ 2]
    signs = []
    first_under = []
    first_visit = []
    under_ins = []
    for ci, c in enumerate(crossings):
        under_in = 0 if (ci, 0) in entered else 2
        over_in = 1 if (ci, 1) in entered else 3
        signs.append(1 if over_in == (under_in + 3) % 4 else -1)
        first_under.append(entered[(ci, under_in)] < entered[(ci, over_in)])
        first_visit.append(min(entered[(ci, under_in)], entered[(ci, over_in)]))
        under_ins.append(under_in)
    return DiagramTrace(
        ncomp,
        sum(signs),
        tuple(signs),
        tuple(first_under),
        tuple(first_visit),
        tuple(under_ins),
    )


def mirror(diagram):
    """Swap over and under at every crossing."""
    return LinkDiagram(
        tuple((b, c, d, a) for a, b, c, d in diagram.crossings), diagram.loops
    )


# -- local surgery ------------------------------------------------------------

def _remove_and_join(crossings, loops, removed, joins):
    """Delete crossings by index and identify edge pairs.

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


def switch_crossing(diagram, i):
    """Exchange over and under strands at crossing i."""
    c = diagram.crossings[i]
    switched = (c[1], c[2], c[3], c[0])
    return LinkDiagram(
        diagram.crossings[:i] + (switched,) + diagram.crossings[i + 1:],
        diagram.loops,
    )


def smooth_crossing(diagram, i, which):
    """Replace crossing i by a smoothing.

    ``which`` = 0 joins slots (0,1) and (2,3); ``which`` = 1 joins slots
    (0,3) and (1,2).  Together with the switch these are the four skein
    terms.
    """
    c = diagram.crossings[i]
    joins = [(c[0], c[1]), (c[2], c[3])] if which == 0 else [(c[0], c[3]), (c[1], c[2])]
    return _remove_and_join(diagram.crossings, diagram.loops, {i}, joins)


# Writhe contribution of a kink, by the slots its loop edge occupies;
# derived from the sign convention (over entering at under_in + 3 is
# positive).  A kink of writhe s carries a skein factor a^-s: that
# orientation of the a-variable is the one under which the bound
# tb <= min_deg_a(F) - 1 is sharp on maximal-tb fronts.
_KINK_SIGN = {(0, 1): 1, (2, 3): 1, (1, 2): -1, (3, 0): -1}


def _find_kink(crossings):
    for ci, c in enumerate(crossings):
        for s in range(4):
            if c[s] == c[(s + 1) % 4]:
                return ci, s
    return None


def _find_reducible_bigon(diagram):
    """The crossings of a cancellable bigon and the joins of its strands'
    outer ends, or None."""
    crossings, far = diagram.crossings, diagram.far
    for ci, a in enumerate(crossings):
        for s in range(4):
            # the edges at slots s and s + 1 must run to one other crossing,
            # adjacently there; a kink's edge runs back to ci itself
            (cx, sx), (cy, sy) = far[ci, s], far[ci, (s + 1) % 4]
            if cx != cy or cx == ci:
                continue
            if (sx - sy) % 4 not in (1, 3):
                continue
            # over iff the slot is odd; the bigon pulls apart exactly when
            # the strand through slot s is on the same level at both crossings
            if (s % 2 == 1) != (sx % 2 == 1):
                continue
            b = crossings[cx]
            return {ci, cx}, [(a[s ^ 2], b[sx ^ 2]), (a[(s + 3) % 4], b[sy ^ 2])]
    return None


def simplify(diagram):
    """Remove kinks and cancellable bigons until none remain.

    Returns (reduced diagram, unit) with unit a power of a collecting the
    kink factors: lam(input) = unit * lam(reduced).  The reduction only
    ever shrinks the crossing count.
    """
    unit = BiLaurent.constant(1)
    current = diagram
    while True:
        kink = _find_kink(current.crossings)
        if kink is not None:
            ci, s = kink
            c = current.crossings[ci]
            sign = _KINK_SIGN[(s, (s + 1) % 4)]
            unit = unit * BiLaurent.a(-sign)
            out = _remove_and_join(
                current.crossings,
                current.loops,
                {ci},
                [(c[(s + 2) % 4], c[(s + 3) % 4])],
            )
            current = out
            continue
        bigon = _find_reducible_bigon(current)
        if bigon is not None:
            removed, joins = bigon
            current = _remove_and_join(current.crossings, current.loops, removed, joins)
            continue
        return current, unit


# -- canonical codes and evaluation --------------------------------------------

def _connected_pieces(diagram):
    """Partition crossing indices into crossing-connected pieces."""
    far = diagram.far
    seen, pieces = set(), []
    for root in range(diagram.n):
        if root in seen:
            continue
        seen.add(root)
        piece, stack = [], [root]
        while stack:
            ci = stack.pop()
            piece.append(ci)
            for slot in range(4):
                cj = far[ci, slot][0]
                if cj not in seen:
                    seen.add(cj)
                    stack.append(cj)
        pieces.append(piece)
    return pieces


def _piece_code(diagram, piece, start):
    """Relabel the piece's edges along a traversal from the dart ``start``.

    The traversal steps with the diagram's dart map: a strand entering at
    ``(ci, slot)`` leaves through ``slot ^ 2`` and enters the dart at the
    far end of that edge.  Edges are numbered in the order the traversal
    enters them.  Once every edge of the piece has a label no component is
    left, so a knot never looks for an anchor.  Otherwise the next link
    component of the piece enters the first crossing, in traversal order,
    whose other strand has no entered dart, at the slot after the one the
    traversal entered there; the piece is connected, so such a crossing
    exists while an edge has no label.  Both "first in traversal order"
    and "the slot after" are read off the diagram: neither depends on the
    input labels, and rotating a crossing tuple by two slots (the same
    crossing) keeps the slot after an entered dart the slot after it.
    """
    crossings, far = diagram.crossings, diagram.far
    size = 2 * len(piece)  # each edge of the piece meets it twice
    labels = {}
    entered = {}  # dart -> None, in the order the traversal entered them
    dart = start
    while True:
        # walk one closed component; the first repeated dart closes it
        while dart not in entered:
            entered[dart] = None
            ci, slot = dart
            labels.setdefault(crossings[ci][slot], len(labels))
            dart = far[ci, slot ^ 2]
        if len(labels) == size:
            break
        dart = next(
            (ci, (s + 1) % 4) for ci, s in entered
            if (ci, (s + 1) % 4) not in entered and (ci, (s + 3) % 4) not in entered
        )
    code = []
    for ci in piece:
        c = crossings[ci]
        under_in = 0 if (ci, 0) in entered else 2
        code.append(tuple(labels[c[(under_in + k) % 4]] for k in range(4)))
    code.sort()
    return tuple(code)


def canonical_key(diagram):
    """A relabel-invariant code for memoization.

    Each crossing-connected piece is renumbered along a traversal, taking
    the minimum over the starts that enter a crossing on its under strand
    (slots 0 and 2, two per crossing); the piece codes are then sorted.
    The start set and the anchors of later components (see
    ``_piece_code``) are fixed by the diagram's structure, not by its
    labels, the order of its crossings or the rotation of a crossing tuple
    by two slots, so equal diagrams get equal keys.  Each piece code is
    the piece's PD code under the new labels, so the key still determines
    the diagram and memo hits are always sound.
    """
    if not diagram.crossings:
        return ("loops", diagram.loops)
    piece_codes = sorted(
        min(_piece_code(diagram, piece, (ci, slot)) for ci in piece for slot in (0, 2))
        for piece in _connected_pieces(diagram)
    )
    return ("pd", tuple(piece_codes), diagram.loops)


def _first_ascending(diagram):
    """Index of the first crossing, in traversal order, met under first.

    Switching it strictly grows the descending prefix of the traversal
    (the traversal itself does not change), so the recursion terminates.
    """
    tr = trace_diagram(diagram)
    candidates = [ci for ci in range(diagram.n) if tr.first_under[ci]]
    if not candidates:
        return None
    return min(candidates, key=lambda ci: tr.first_visit[ci])


def regular_isotopy_polynomial(diagram, budget=DEFAULT_CROSSING_BUDGET, _memo=None):
    """The regular-isotopy skein polynomial lam (memoized evaluation)."""
    if diagram.n > budget:
        raise BudgetError(
            f"{diagram.n} crossings exceeds the budget of {budget}; "
            "raise it explicitly for larger diagrams"
        )
    memo = {} if _memo is None else _memo
    return _lam(diagram, memo)


def _lam(diagram, memo):
    diagram, unit = simplify(diagram)
    if not diagram.crossings:
        return unit * delta_power(diagram.loops - 1)
    key = canonical_key(diagram)
    value = memo.get(key)
    if value is None:
        target = _first_ascending(diagram)
        if target is None:
            # descending diagrams are unlinks; their value is the writhe
            # normalization times the split-unlink value
            tr = trace_diagram(diagram)
            value = BiLaurent.a(-tr.writhe) * delta_power(tr.components - 1)
        else:
            z = BiLaurent.z(1)
            value = (
                z * (_lam(smooth_crossing(diagram, target, 0), memo)
                     + _lam(smooth_crossing(diagram, target, 1), memo))
                - _lam(switch_crossing(diagram, target), memo)
            )
        memo[key] = value
    return unit * value


def kauffman_F(diagram, budget=DEFAULT_CROSSING_BUDGET):
    """The normalized, regular-isotopy-corrected Kauffman polynomial."""
    return _normalize(diagram, trace_diagram(diagram), budget)


def _normalize(diagram, tr, budget):
    """F = a^writhe * lam, with writhe and component count from ``tr``,
    the one trace of the input diagram."""
    value = BiLaurent.a(tr.writhe) * regular_isotopy_polynomial(diagram, budget)
    if tr.components == 1 and value and value.min_z_exp() < 0:
        raise ArithmeticError("knot polynomial must have z-exponents >= 0")
    return value


def tb_upper_bound(diagram, budget=DEFAULT_CROSSING_BUDGET):
    """Upper bound for the Thurston-Bennequin number of any Legendrian
    representative: min a-degree of F, minus 1."""
    tr = trace_diagram(diagram)
    if tr.components != 1:
        raise InputError("the bound is stated for knots (one component)")
    return min_deg_a(_normalize(diagram, tr, budget)) - 1
