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
reducible diagram costs one key, not two.  ``simplify`` removes them all
on crossing lists and a copy of the dart map (below) and builds one
diagram at the end, or none when nothing reduces; ``smooth_crossing``
cuts its crossing with the same join (``_splice``).  A keyed diagram is
traced once, for the crossing to switch or, when it is descending, its
writhe and component count.  Evaluation is deterministic however the
tree is walked.

The budget counts the diagrams an evaluation keys (its memo misses), not
crossings: a 45-crossing pretzel keys 155, a closed 4-braid of T(4,6) up
to 3,278, and one of T(4,7) passes ``MAX_KEYS``, which raises.

Every walk and every edit reads one dart map per diagram.  A dart
``(crossing, slot)`` is a strand end entering a crossing along the edge
at that slot, and ``LinkDiagram.far`` sends it to the dart at the other
end of the same edge; a strand entering at ``slot`` leaves through
``slot ^ 2``.  Edits join darts on a copy of it and keep the edge labels
in step, so a child diagram's labels are the parent's.

The canonical code of a piece is a stream of small-int tokens, one per
dart a traversal enters (under or over on a crossing's first visit, the
crossing's first-visit index and turn on its second) and -1 between link
components, minimized over the two starts per crossing that enter it on
the under strand.  Each start's stream is compared with the least so far
token by token and dropped at its first larger token.  Starts and the
anchors of later components are fixed by the diagram, not by its labels
or by how a crossing tuple is rotated, so the code is label-free, and
equal codes mean equal diagrams (see ``canonical_key``).
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from functools import lru_cache

from . import Frozen, comment_header, content_lines, read_int, shown
from .errors import BudgetError, InputError
from .laurent import BiLaurent, min_deg_a

__all__ = [
    "LinkDiagram",
    "parse_pd",
    "render_pd",
    "DELTA_NUMERATOR",
    "delta_power",
    "trace_diagram",
    "switch_crossing",
    "smooth_crossing",
    "simplify",
    "canonical_key",
    "regular_isotopy_polynomial",
    "kauffman_F",
    "tb_upper_bound",
]

MAX_KEYS = 5_000  # diagrams one evaluation may key, a few seconds of work

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


class LinkDiagram(Frozen):
    """An unoriented link diagram: PD crossings plus crossingless loops.

    ``crossings`` holds 4-tuples of edge labels, under strand at slots 0
    and 2.  ``far`` sends each dart (crossing, slot) to the dart at the
    other end of its edge; it is derived, so equality ignores it.
    """

    _fields = ("crossings", "loops")

    def __init__(self, crossings, loops=0):
        # tuples here and in the surgeries come from lists: CPython builds a
        # generator's tuple by resizing, so each one freed grows the per-size
        # tuple free list, by about 2 MB over a thousand evaluations
        crossings = tuple([tuple(c) for c in crossings])
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
        if loops < 0:
            raise InputError("negative loop count")
        if not crossings and not loops:
            raise InputError("empty diagram (no crossings, no loops)")
        self.__dict__.update(crossings=crossings, loops=loops, far=far)

    @property
    def n(self):
        return len(self.crossings)


_PD_LINE = re.compile(r"([XO])\(([^()]*)\)$")


def parse_pd(text):
    """Parse ``X(a,b,c,d)`` crossing lines and ``O(e)`` loop lines."""
    crossings = []
    loop_lines = {}  # loop label -> the line that gave it
    for lineno, line in content_lines(text):
        m = _PD_LINE.match(line)
        if not m:
            raise InputError(f"line {lineno}: expected X(a,b,c,d) or O(e), got {shown(line)}")
        try:
            labels = [read_int(s, "edge label") for s in m.group(2).replace(",", " ").split()]
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc} in {shown(line)}") from None
        if m.group(1) == "X":
            if len(labels) != 4:
                raise InputError(f"line {lineno}: crossing needs 4 edges, got {len(labels)}")
            crossings.append(tuple(labels))
        else:
            if len(labels) != 1:
                raise InputError(f"line {lineno}: loop marker needs 1 label")
            (label,) = labels
            if label in loop_lines:
                raise InputError(f"line {lineno}: loop label {label} repeats line {loop_lines[label]}")
            loop_lines[label] = lineno
    edges = {e for c in crossings for e in c}
    for label, lineno in loop_lines.items():
        if label in edges:
            raise InputError(f"line {lineno}: loop label {label} is a crossing edge label")
    diagram = LinkDiagram(tuple(crossings), len(loop_lines))
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
    lines = comment_header(header)
    lines += [f"X({a},{b},{c},{d})" for a, b, c, d in diagram.crossings]
    next_label = max((e for c in diagram.crossings for e in c), default=0)
    for i in range(diagram.loops):
        lines.append(f"O({next_label + 1 + i})")
    return "\n".join(lines) + "\n"


# -- tracing -----------------------------------------------------------------

# target: the crossing the skein recursion switches, or None
DiagramTrace = namedtuple("DiagramTrace", "components writhe target")


def trace_diagram(diagram):
    """Orient the diagram by edge tracing: its component count, writhe and
    the crossing the skein recursion switches.

    Components are traversed starting from their least edge label, so the
    result is deterministic.  Crossing signs between different components
    depend on the traced orientations, as usual for unoriented input.  The
    target is the earliest crossing, in traversal order, whose first
    entered dart is an under dart (slot 0 or 2); it is None when the
    diagram is descending.
    """
    crossings, far = diagram.crossings, diagram.far
    entered = set()
    ncomp, target = diagram.loops, None
    # each label's first dart comes first among its two
    starts = sorted((e, (ci, slot)) for ci, c in enumerate(crossings) for slot, e in enumerate(c))
    for _, dart in starts:
        if dart in entered or far[dart] in entered:
            continue  # the edge is on a component already walked
        ncomp += 1
        while dart not in entered:
            entered.add(dart)
            ci, slot = dart
            # an under dart entered while the over strand (slots 1, 3) is not
            if target is None and not slot & 1 and (ci, 1) not in entered and (ci, 3) not in entered:
                target = ci
            dart = far[ci, slot ^ 2]
    # positive when the over strand enters at under_in + 3
    writhe = 0
    for ci in range(len(crossings)):
        under_in = 0 if (ci, 0) in entered else 2
        writhe += 1 if (ci, (under_in + 3) % 4) in entered else -1
    return DiagramTrace(ncomp, writhe, target)


# -- local surgery ------------------------------------------------------------

def _splice(crossings, far, removed, joins):
    """Delete crossings by index (each becomes None) and join the dart
    pairs ``joins`` of the strand ends they leave open, on the mutable
    crossing lists and the copy ``far`` of their dart map.

    For a join (d1, d2) with x = far[d1] and y = far[d2], x == d2 closes
    a loop with no crossing on it; otherwise x and y become the two ends
    of one edge and y takes d1's label.  Removed crossings keep their
    lists until every join is made, so a later join reads the labels and
    partners an earlier one gave.  Returns the loops closed and the least
    crossing that took a new label, where a kink may now sit."""
    closed, touched = 0, len(crossings)
    for d1, d2 in joins:
        x, y = far[d1], far[d2]
        if x == d2:
            closed += 1
            continue
        far[x], far[y] = y, x
        cy, sy = y
        crossings[cy][sy] = crossings[d1[0]][d1[1]]
        touched = min(touched, cy)
    for ci in removed:
        crossings[ci] = None
    return closed, touched


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
    pairs = ((0, 1), (2, 3)) if which == 0 else ((0, 3), (1, 2))
    crossings = [list(c) for c in diagram.crossings]
    closed, _ = _splice(crossings, dict(diagram.far), (i,), [((i, s), (i, t)) for s, t in pairs])
    return LinkDiagram(tuple([c for c in crossings if c is not None]), diagram.loops + closed)


# Writhe contribution of a kink whose loop edge occupies slots s and
# s + 1, by s; derived from the sign convention (over entering at
# under_in + 3 is positive).  A kink of writhe w carries a skein factor
# a^-w: that orientation of the a-variable is the one under which the
# bound tb <= min_deg_a(F) - 1 is sharp on maximal-tb fronts.
_KINK_SIGN = (1, -1, 1, -1)


def simplify(diagram):
    """Remove kinks and cancellable bigons until none remain.

    Returns (reduced diagram, unit) with unit = a^e collecting the kink
    factors: lam(input) = unit * lam(reduced).  An input with nothing to
    remove is returned itself; otherwise the removals edit one list per
    crossing and a copy of the dart map ``far``, and one ``LinkDiagram``
    is built at the end.  The first kink (by crossing, then slot) goes
    first, then, with no kink left, the first cancellable bigon.  A
    removal is one ``_splice``, the edit ``smooth_crossing`` makes too.
    """
    crossings, far = diagram.crossings, diagram.far
    if _find_kink(crossings) is None and _find_reducible_bigon(crossings, far) is None:
        return diagram, BiLaurent.a(0)
    crossings, far = [list(c) for c in crossings], dict(far)
    loops, exponent, ci = diagram.loops, 0, 0
    while True:
        kink = _find_kink(crossings, ci)
        if kink is not None:
            ci, s = kink
            exponent -= _KINK_SIGN[s]
            join = ((ci, (s + 2) % 4), (ci, (s + 3) % 4))
            closed, touched = _splice(crossings, far, (ci,), [join])
            loops, ci = loops + closed, min(ci, touched)
            continue
        bigon = _find_reducible_bigon(crossings, far)
        if bigon is None:
            break
        closed, ci = _splice(crossings, far, *bigon)
        loops += closed
    return LinkDiagram(tuple([c for c in crossings if c is not None]), loops), BiLaurent.a(exponent)


def _find_kink(crossings, start=0):
    """The first (crossing, slot), from crossing ``start`` on, whose slots
    s and s + 1 hold one edge, or None; skips removed (None) crossings."""
    for ci in range(start, len(crossings)):
        c = crossings[ci]
        if c is not None:
            for s in range(4):
                if c[s] == c[(s + 1) % 4]:
                    return ci, s
    return None


def _find_reducible_bigon(crossings, far):
    """The crossings of a cancellable bigon and the dart joins of its
    strands' outer ends, or None; removed crossings are None."""
    for ci, c in enumerate(crossings):
        if c is None:
            continue
        for s in range(4):
            # the edges at slots s and s + 1 must run to one other crossing,
            # adjacently there (a kink's edge runs back to ci itself); over
            # iff the slot is odd, and the bigon pulls apart exactly when the
            # strand through slot s is on the same level at both crossings
            (cx, sx), (cy, sy) = far[ci, s], far[ci, (s + 1) % 4]
            if cx == cy != ci and (sx - sy) % 4 in (1, 3) and s % 2 == sx % 2:
                return (ci, cx), [((ci, s ^ 2), (cx, sx ^ 2)), ((ci, (s + 3) % 4), (cx, sy ^ 2))]
    return None


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


def _piece_code(diagram, piece, start, best=None):
    """The token code (a list of ints) of the piece traversed from the
    dart ``start``, or None as soon as it is larger than ``best``.

    A strand entering at ``(ci, slot)`` leaves through ``slot ^ 2`` and
    enters the dart ``far`` gives.  Each entered dart gives one token:
    ``slot & 1`` (under 0, over 1) on its crossing's first visit, and
    ``2 + 2 * i + ((slot - first slot) % 4 == 3)`` on the second, i being
    the crossing's first-visit index.  When a link component closes with
    darts of the piece left, a ``-1`` token is given and the next one
    enters the first crossing, in traversal order, whose other strand has
    no entered dart, at the slot after the one entered there (the piece is
    connected, so one exists).  Tokens name no labels or crossing indices,
    and rotating a crossing tuple by two slots keeps slot parities and
    the slot after an entered dart.  The walk stops at its first token
    larger than ``best``'s (the least code so far) at the same place; a
    code equal to best is dropped too.
    """
    far = diagram.far
    code = []
    # per crossing: None before its first visit, then (2 + 2 * first-visit
    # index, slot entered first), then False once both strands are entered
    first = [None] * diagram.n
    order = []  # crossings by first visit
    left = len(piece)  # crossings with a strand not yet entered
    tied = best is not None  # code is a prefix of best so far
    dart = head = start  # head: the dart that opened the current component
    while True:
        ci, slot = dart
        seen = first[ci]
        if seen is None:
            token = slot & 1
            first[ci] = (2 + 2 * len(order), slot)
            order.append(ci)
        else:
            token = seen[0] + ((slot - seen[1]) % 4 == 3)
            first[ci] = False
            left -= 1
        if tied and token != best[len(code)]:
            if token > best[len(code)]:
                return None
            tied = False
        code.append(token)
        dart = far[ci, slot ^ 2]
        if dart == head:  # the component closed
            if not left:
                return None if tied else code
            tied = tied and best[len(code)] == -1  # -1 is the least token
            code.append(-1)
            ci = next(cj for cj in order if first[cj])
            dart = head = (ci, (first[ci][1] + 1) % 4)


def canonical_key(diagram):
    """A relabel-invariant code for memoization.

    Each crossing-connected piece gets the least token code (see
    ``_piece_code``) over the starts that enter a crossing on its under
    strand (slots 0 and 2, two per crossing); each start's walk is dropped
    at its first token larger than the least code so far, so most end
    after a few darts.  A least code is kept as the string of code points
    token + 1, which orders as the tokens do at a third of a tuple's size.
    Piece codes are sorted and the loop count kept.  Starts and anchors
    are fixed by the diagram's structure, not by its labels, crossing
    order or the rotation of a crossing tuple by two slots, so equal
    diagrams get equal keys.

    The key determines the diagram, so memo hits are sound: label a
    piece's edges in entry order; a token gives its dart's crossing and
    slot up to that rotation, the dart enters along its own label, and
    its leaving slot ``slot ^ 2`` carries the next label, or the
    component's first at a ``-1`` or at the end.
    """
    if not diagram.crossings:
        return ("loops", diagram.loops)
    piece_codes = []
    for piece in _connected_pieces(diagram):
        best = None
        for ci in piece:
            for slot in (0, 2):
                best = _piece_code(diagram, piece, (ci, slot), best) or best
        piece_codes.append("".join(chr(token + 1) for token in best))
    piece_codes.sort()
    return ("tokens", tuple(piece_codes), diagram.loops)


def regular_isotopy_polynomial(diagram, _memo=None):
    """The regular-isotopy skein polynomial lam (memoized evaluation);
    ``BudgetError`` once it keys more than ``MAX_KEYS`` diagrams, counting
    none a shared ``_memo`` already holds.  The recursion nests about once
    per crossing, so a diagram too deep for the interpreter's recursion
    limit also raises ``BudgetError``."""
    memo = {} if _memo is None else _memo
    try:
        return _lam(diagram, memo, [])
    except RecursionError:
        raise BudgetError(
            f"the skein recursion on {diagram.n} crossings nested deeper than "
            f"the interpreter's recursion limit of {sys.getrecursionlimit()}"
        ) from None


def _lam(diagram, memo, keyed):
    diagram, unit = simplify(diagram)
    if not diagram.crossings:
        return unit * delta_power(diagram.loops - 1)
    key = canonical_key(diagram)
    value = memo.get(key)
    if value is None:
        keyed.append(diagram.n)  # no child has more crossings: keyed[0] is the largest
        if len(keyed) > MAX_KEYS:
            raise BudgetError(
                f"the skein evaluation keyed {len(keyed)} diagrams, more than "
                f"{MAX_KEYS}; the largest had {keyed[0]} crossings"
            )
        # switch the first crossing, in traversal order, met under first:
        # that strictly grows the descending prefix of the traversal (the
        # traversal itself does not change), so the recursion terminates
        tr = trace_diagram(diagram)
        target = tr.target
        if target is None:
            # descending diagrams are unlinks; their value is the writhe
            # normalization times the split-unlink value
            value = BiLaurent.a(-tr.writhe) * delta_power(tr.components - 1)
        else:
            z = BiLaurent.z(1)
            value = (
                z * (_lam(smooth_crossing(diagram, target, 0), memo, keyed)
                     + _lam(smooth_crossing(diagram, target, 1), memo, keyed))
                - _lam(switch_crossing(diagram, target), memo, keyed)
            )
        memo[key] = value
    return unit * value


def kauffman_F(diagram):
    """The normalized, regular-isotopy-corrected Kauffman polynomial."""
    return _normalize(diagram, trace_diagram(diagram))


def _normalize(diagram, tr):
    """F = a^writhe * lam, with writhe and component count from ``tr``,
    the one trace of the input diagram."""
    value = BiLaurent.a(tr.writhe) * regular_isotopy_polynomial(diagram)
    if tr.components == 1 and value and value.min_z_exp() < 0:
        raise ArithmeticError("knot polynomial must have z-exponents >= 0")
    return value


def tb_upper_bound(diagram):
    """Upper bound for the Thurston-Bennequin number of any Legendrian
    representative: min a-degree of F, minus 1."""
    tr = trace_diagram(diagram)
    if tr.components != 1:
        raise InputError("the bound is stated for knots (one component)")
    return min_deg_a(_normalize(diagram, tr)) - 1
