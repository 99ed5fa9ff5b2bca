"""Legendrian front diagrams as left-to-right event words.

A front is a sequence of events on horizontal strands numbered from the
top starting at 1:

    ("L", k)  left cusp: inserts two new strands at positions k, k+1
    ("R", k)  right cusp: merges the strands at positions k, k+1
    ("X", k)  crossing: transposes the strands at positions k, k+1

The strand count starts and ends at 0 and never goes negative.  Crossing
over/under is not stored: in a front the strand of more negative slope
(the one moving from position k down to k+1) is in front, and all signs
below use that convention.

``validate`` checks these rules in one walk over the strand count, the
only check of event positions.  The one tracing pass, which pairs the
strands at their cusps for ``orient``, starts with that walk, so a
caller that orients a front gets validation from it.  Each
strand meets one left and one right cusp, so a component is a cycle of
strands that alternates the two kinds of cusp.

Validity depends only on each event's position, checked against the
strand count just before it.  So a rewrite of the window at ``index`` of
a valid word leaves a valid word when each new event fits the running
count from the count at ``index``, and the new events change the count
by the same net amount as the ones they replace: every later event then
sees the count it saw before.  Every isotopy move keeps the net amount
by construction, so ``apply_move`` checks only its window; a pinch's
R k, L k on at least k+1 strands keeps it too.  A column where the count
is 0 splits the word into closed blocks, and a component never leaves its
block.  So a replay traces its start word, the block around each pinch's
column unless that column has only two strands, and a death's input
unless the death is of component 1, which is born at event 0 and so is
the standard unknot exactly when the word starts with L 1, R 1.

A word keeps its strand-count profile once it is known.  A replay copies
its start word's events and profile into one pair of lists and edits
them in place, by slice assignment: each move, pinch or death runs all
its checks before it changes anything, and changes the profile only
around the events it inserts or deletes.  So a replay walks the count of
its start word once, afterwards only the events each move inserts, and
copies no whole word.  The public ``apply_move``, ``pinch`` and ``death``
run the same in-place step on a copy of their input's lists, so they
leave their input as it was.

With an orientation (a horizontal direction per strand, opposite at the
two branches of every cusp) the classical invariants are

    tb  = writhe - number of right cusps          (per component)
    rot = (down cusps - up cusps) / 2             (per component)

where a crossing's sign is the product of the two strand directions and
a cusp counts as "down" when the traversal passes through it moving
downward.  Orientations are canonical: the first-created upper strand of
each component points rightward.

The filling moves are the pinch (an oriented saddle: two adjacent
anti-parallel strands are replaced by a right-cusp/left-cusp pair), the
death of a standard two-event unknot, and Legendrian isotopy given by an
explicit table of local rewrites (see MOVE_TABLE).  A certificate is a
step sequence replayed to the empty front; the checker reports the
surface Euler characteristic deaths - pinches and cross-checks it
against tb.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import Frozen, comment_header, content_lines
from .errors import CertificateError, InputError

__all__ = [
    "FrontWord",
    "parse_front",
    "render_front",
    "validate",
    "OrientedFront",
    "orient",
    "classical_invariants",
    "MOVE_KINDS",
    "apply_move",
    "Move",
    "Pinch",
    "Death",
    "pinch",
    "death",
    "FillingCertificate",
    "FillingReport",
    "parse_certificate",
    "render_certificate",
    "check_certificate",
    "connected_sum",
    "compose_certificates",
    "connect",
]

_EVENT_KINDS = ("L", "R", "X")


class FrontWord(Frozen):
    """An immutable event word; ``events`` is a tuple of (kind, position)."""

    _fields = ("events",)

    def __init__(self, events):
        self.__dict__["events"] = events

    @classmethod
    def _of(cls, events, counts):
        """A word whose ``_profile`` is already known to be ``counts``."""
        word = cls(events)
        word.__dict__["_profile"] = counts
        return word

    @functools.cached_property
    def _profile(self):
        """The strand count before each event and after the last.

        Reading it checks the word, so a word from the constructor is
        validated on first use; a rewrite carries its input's profile
        forward instead of walking the whole word again.
        """
        return _word_counts(self.events)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def parse_front(text):
    events = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2 or parts[0] not in _EVENT_KINDS:
            raise InputError(f"line {lineno}: expected 'L k', 'R k' or 'X k', got {line!r}")
        try:
            k = int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: bad position {parts[1]!r}") from None
        events.append((parts[0], k))
    # the word is checked when its profile is first read
    return FrontWord(tuple(events))


def render_front(front, header=None):
    lines = comment_header(header)
    lines += [f"{k} {p}" for k, p in front.events]
    return "\n".join(lines) + "\n"


def validate(front):
    """Check all front invariants in one strand-count walk; errors carry
    the first offending index."""
    front._profile  # reading the profile checks the word
    return True


def _counts(events, count=0, first=0):
    """The strand count before each of ``events`` and after the last,
    from ``count`` before the first.  Raises InputError at the first event,
    numbered from ``first``, whose position does not fit the count before
    it.  This is the one check of event positions."""
    counts = [count]
    append = counts.append
    for kind, p in events:  # crossings first: they are most of a word
        if kind == "X":
            if not 0 < p < count:
                break
        elif kind == "L":
            if not 0 < p <= count + 1:
                break
            count += 2
        elif kind == "R":
            if not 0 < p < count:
                break
            count -= 2
        else:
            break
        append(count)
    else:
        return counts
    i = len(counts) - 1
    kind, p = events[i]
    raise _misplaced(first + i, kind, p, count)


def _misplaced(i, kind, p, count):
    """The error for event ``i`` when it does not fit on ``count`` strands."""
    if kind == "L":
        return InputError(f"event {i}: left cusp at {p} outside 1..{count + 1}")
    if kind in ("R", "X"):
        what = "right cusp" if kind == "R" else "crossing"
        why = "positions start at 1" if p < 1 else f"only {count} exist"
        return InputError(f"event {i}: {what} needs strands {p},{p + 1} but {why}")
    return InputError(f"event {i}: unknown kind {kind!r}")


def _word_counts(events):
    """``_counts`` of a whole word, which must also end on no strands."""
    counts = _counts(events)
    if counts[-1]:
        raise InputError(f"event {len(events)}: final strand count {counts[-1]}, expected 0")
    return counts


def _trace(front, column=-1):
    """The one strand walk over a front.  It checks the word by reading
    its profile first, then records the strands each event acts on
    and pairs strands at right cusps; ``_cusp_cycles`` then finds and
    orients the components.  Also returns the strands, top to bottom,
    just before event ``column``, where ``pinch`` puts its saddle."""
    front._profile  # reading the profile checks the word
    event_strands = []
    mate = []  # mate[s]: the strand that s meets at its right cusp
    active = []
    at_column = []
    for i, (kind, p) in enumerate(front.events):
        if i == column:
            at_column = active[:]
        if kind == "L":
            u = len(mate)
            v = u + 1
            mate += (-1, -1)
            active[p - 1:p - 1] = (u, v)
        else:
            u, v = active[p - 1], active[p]
            if kind == "R":
                mate[u] = v
                mate[v] = u
                del active[p - 1:p + 1]
            else:
                active[p - 1] = v
                active[p] = u
        event_strands.append((u, v))
    directions, component_of = _cusp_cycles(mate)
    return OrientedFront(front, directions, component_of, tuple(event_strands)), at_column


def _cusp_cycles(mate):
    """Directions and component indices of strands from their cusp pairings.

    Strands 2j and 2j+1 are the upper and lower branch of the j-th left
    cusp, and ``mate[s]`` is the strand that s meets at its right cusp.
    Every strand meets one cusp of each kind, so a component is a cycle
    that alternates left and right cusps, and the direction flips at each
    cusp.  Walking each cycle from its first-created strand, an upper
    branch, gives the canonical orientation and numbers components in
    creation order.  A strand met twice means the pairing is not a union
    of such cycles, which no traced front produces.
    """
    n = len(mate)
    direction = [0] * n
    component_of = [-1] * n
    ncomp = 0
    for root in range(0, n, 2):
        if component_of[root] >= 0:
            continue
        s = root
        while True:
            component_of[s] = ncomp
            direction[s] = 1  # rightward, like the root
            t = mate[s]
            if component_of[t] >= 0:
                raise _unclosed(root, t)
            component_of[t] = ncomp
            direction[t] = -1
            s = t ^ 1  # across the left cusp of t, rightward again
            if s == root:
                break
            if component_of[s] >= 0:
                raise _unclosed(root, s)
        ncomp += 1
    return tuple(direction), tuple(component_of)


def _unclosed(root, s):
    return RuntimeError(f"cusp cycle from strand {root} does not close: strand {s} is met twice")


# directions: per strand id, +1 rightward / -1 leftward
# component_of: per strand id, 0-based component index
# event_strands: per event, the strand ids involved (pre-transposition)
class OrientedFront(namedtuple("OrientedFront", "front directions component_of event_strands")):
    """A front together with its canonical component orientations."""

    __slots__ = ()

    @property
    def n_components(self):
        return max(self.component_of) + 1 if self.component_of else 0


def orient(front):
    """The front with its canonical orientation, from one trace."""
    return _trace(front)[0]


def classical_invariants(oriented):
    """Per-component (tb, rot); crossings between components are ignored."""
    ncomp = oriented.n_components
    writhe = [0] * ncomp
    right_cusps = [0] * ncomp
    down = [0] * ncomp
    up = [0] * ncomp
    dirs = oriented.directions
    comp = oriented.component_of
    for (kind, _), strands in zip(oriented.front.events, oriented.event_strands):
        if kind == "X":
            u, v = strands  # u above v before they transpose
            if comp[u] == comp[v]:
                writhe[comp[u]] += dirs[u] * dirs[v]
        elif kind == "L":
            u, v = strands  # u is the upper branch
            if dirs[u] > 0:
                up[comp[u]] += 1
            else:
                down[comp[u]] += 1
        elif kind == "R":
            u, v = strands
            right_cusps[comp[u]] += 1
            if dirs[u] > 0:
                down[comp[u]] += 1
            else:
                up[comp[u]] += 1
    out = []
    for c in range(ncomp):
        if (down[c] - up[c]) % 2:
            raise RuntimeError(f"component {c + 1}: odd cusp imbalance {down[c] - up[c]}")
        out.append((writhe[c] - right_cusps[c], (down[c] - up[c]) // 2))
    return out


# -- Legendrian isotopy moves --------------------------------------------------

# Each table entry maps a kind to (lhs, rhs) event patterns relative to a
# base position p; "+" direction rewrites lhs -> rhs, "-" the reverse.
# r1a/r1b are the swallowtail kinks below/above a strand at p; r2a/r2b
# slide a strand through a right cusp from below/above; r2c/r2d the same
# through a left cusp.
MOVE_TABLE = {
    "r1a": ((), (("L", +2), ("X", +1), ("R", +2))),
    "r1b": ((), (("L", +1), ("X", +2), ("R", +1))),
    "r2a": ((("R", +1),), (("X", +2), ("X", +1), ("R", +2))),
    "r2b": ((("R", +2),), (("X", +1), ("X", +2), ("R", +1))),
    "r2c": ((("L", +1),), (("L", +2), ("X", +1), ("X", +2))),
    "r2d": ((("L", +2),), (("L", +1), ("X", +2), ("X", +1))),
}

MOVE_KINDS = tuple(
    [k + "+" for k in MOVE_TABLE] + [k + "-" for k in MOVE_TABLE] + ["r3", "slide"]
)


# index: 0-based position in the event word
# pos: strand position parameter p (unused by slide)
Move = namedtuple("Move", "kind index pos")


def _instantiate(pattern, p):
    return tuple([(kind, p + off - 1) for kind, off in pattern])


def _window(events, index, width):
    """The ``width`` events from ``index``; raises unless all of them exist."""
    if not 0 <= index <= len(events) - width:
        raise InputError(
            f"move index {index} out of range: expected a {width}-event window "
            f"inside 0..{len(events)}, found {index}..{index + width}"
        )
    return events[index:index + width]


def _match(events, index, pattern):
    got = tuple(_window(events, index, len(pattern)))
    if got != pattern:
        raise InputError(
            f"pattern mismatch at index {index}: expected {list(pattern)}, found {list(got)}"
        )


# strands each kind of event consumes from the column before it and
# produces in the column after it, from its position down
_CONSUMES = {"L": 0, "R": 2, "X": 2}
_PRODUCES = {"L": 2, "R": 0, "X": 2}


def _slide(events, index):
    """Commute the events at index and index+1 when their supports are disjoint."""
    (a_kind, a), (b_kind, b) = _window(events, index, 2)
    if b >= a + _PRODUCES[a_kind]:  # B acts below A
        return [(b_kind, b - _PRODUCES[a_kind] + _CONSUMES[a_kind]), (a_kind, a)]
    if b + _CONSUMES[b_kind] <= a:  # B acts above A
        return [(b_kind, b), (a_kind, a + _PRODUCES[b_kind] - _CONSUMES[b_kind])]
    raise InputError(f"slide at {index}: events overlap ({a_kind} {a} / {b_kind} {b})")


def _stepped(step, front, *args):
    """``front`` after ``step``, run on a copy of its events and profile."""
    events, counts = list(front.events), list(front._profile)
    step(events, counts, *args)
    return FrontWord._of(tuple(events), counts)


def apply_move(front, move):
    """Apply one isotopy move to a valid front.

    The move's pattern must lie inside the word: a negative index, or one
    whose pattern would run past the end, is rejected before any slicing.
    Only the rewritten window is checked (see the module docstring); a
    rejection reads as a full ``validate`` of the rewritten word would.
    """
    return _stepped(_move, front, move)


def _move(events, counts, move):
    """``apply_move`` in place on a valid word's event list and profile.

    The word is valid, so the result is valid when each new event fits the
    running strand count and the window keeps its net change of the strand
    count; the events after it then see the counts they saw before, and
    only the window's counts change.  Nothing is changed on a rejection.
    """
    kind = move.kind
    index = move.index
    if kind == "slide":
        width, new = 2, _slide(events, index)
    elif kind == "r3":
        p = move.pos
        lhs = (("X", p), ("X", p + 1), ("X", p))
        rhs = (("X", p + 1), ("X", p), ("X", p + 1))
        got = tuple(_window(events, index, 3))
        if got == lhs:
            width, new = 3, rhs
        elif got == rhs:
            width, new = 3, lhs
        else:
            raise InputError(
                f"pattern mismatch at index {index}: expected a braid triple at {p}, found {list(got)}"
            )
    else:
        base, direction = kind[:-1], kind[-1]
        if base not in MOVE_TABLE or direction not in "+-":
            raise InputError(f"unknown move kind {kind!r}")
        lhs, rhs = MOVE_TABLE[base]
        if direction == "-":
            lhs, rhs = rhs, lhs
        lhs = _instantiate(lhs, move.pos)
        _match(events, index, lhs)
        width, new = len(lhs), _instantiate(rhs, move.pos)
    inner = _counts(new, counts[index], index)
    if inner[-1] != counts[index + width]:
        raise RuntimeError(
            f"rewrite at {index} changes the strand count by {inner[-1] - counts[index]}, "
            f"not {counts[index + width] - counts[index]}"
        )
    events[index:index + width] = new
    counts[index:index + width] = inner[:-1]


# -- filling moves -------------------------------------------------------------

def pinch(front, index, k):
    """Insert an oriented saddle: a right cusp then a left cusp at position k.

    The two strands at positions k, k+1 of column ``index`` must exist,
    and strands of one component must be anti-parallel (strands of
    different components can always be oriented to be).

    The word's profile validates it: a replay carries it forward, and a
    word from the constructor is walked once.  Where the count is 0 the
    word splits, and no component crosses such a column, so only the closed
    block around ``index`` is traced.  A column of two strands needs no
    trace: a closed curve meets a vertical line an even number of times,
    once in each direction, so the two strands are one component and run
    anti-parallel.
    """
    return _stepped(_pinch, front, index, k)


def _pinch(events, counts, index, k):
    """``pinch`` in place on a valid word's event list and profile;
    nothing is changed on a rejection."""
    if not 0 <= index <= len(events):
        raise InputError(f"pinch column {index} out of range 0..{len(events)}")
    count = counts[index]
    if k < 1 or k + 1 > count:
        raise InputError(
            f"pinch needs strands {k},{k + 1} at column {index}, only {count} present"
        )
    if count > 2:
        start = index
        while counts[start]:
            start -= 1
        end = counts.index(0, index)
        block = FrontWord._of(tuple(events[start:end]), counts[start:end + 1])
        oriented, active = _trace(block, index - start)
        u, v = active[k - 1], active[k]
        comp, dirs = oriented.component_of, oriented.directions
        if comp[u] == comp[v] and dirs[u] == dirs[v]:
            raise InputError(
                f"pinch at column {index} position {k}: strands are parallel; "
                "an oriented saddle needs anti-parallel strands"
            )
    # R k then L k on at least k+1 strands leave the strand count as it
    # was, so the result is valid without a trace
    events[index:index] = (("R", k), ("L", k))
    counts[index + 1:index + 1] = (count - 2, count)


def death(front, component_index):
    """Remove a component that is literally the two-event word [L k, R k].

    ``component_index`` is 1-based in order of component creation, and
    ``front`` must be valid.  Component 1, born at event 0, is the standard
    unknot exactly when the word starts with L 1, R 1: that needs no trace.
    """
    return _stepped(_death, front, component_index)


def _death(events, counts, component_index):
    """``death`` in place on a valid word's event list and profile;
    nothing is changed on a rejection."""
    if component_index == 1 and events[0:2] == [("L", 1), ("R", 1)]:
        i = 0
    else:
        oriented = orient(FrontWord._of(tuple(events), counts))
        ncomp = oriented.n_components
        if not 1 <= component_index <= ncomp:
            raise InputError(f"component {component_index} out of range 1..{ncomp}")
        target = component_index - 1
        indices = [
            i
            for i, strands in enumerate(oriented.event_strands)
            if oriented.component_of[strands[0]] == target
        ]
        # a component's only two events, if adjacent, are an L k and its R k
        if len(indices) != 2 or indices[1] != indices[0] + 1:
            raise InputError(
                f"component {component_index} is not a standard unknot: "
                f"its events sit at {indices}"
            )
        i = indices[0]
    # deleting the standard pair restores the active strand list that the
    # pair changed, so the result is valid
    del events[i:i + 2]
    del counts[i:i + 2]


# -- certificates ----------------------------------------------------------------

Pinch = namedtuple("Pinch", "index pos")
Death = namedtuple("Death", "component")


# declared_surface: (pinches, deaths) or None
class FillingCertificate(namedtuple("FillingCertificate", "steps declared_surface",
                                    defaults=(None,))):
    """A move sequence witnessing a decomposable Lagrangian filling."""

    __slots__ = ()


# genus: None when the Euler characteristic is even
FillingReport = namedtuple("FillingReport", "pinches deaths euler genus tb tb_matches")


def parse_certificate(text):
    steps = []
    declared = None
    for lineno, line in content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "EXPECT" and len(parts) == 3:
                declared = (int(parts[1]), int(parts[2]))
            elif parts[0] == "MOVE" and len(parts) == 3 and parts[1] == "slide":
                steps.append(Move("slide", int(parts[2]), 0))
            elif parts[0] == "MOVE" and len(parts) == 4:
                if parts[1] not in MOVE_KINDS:
                    raise InputError(f"line {lineno}: unknown move kind {parts[1]!r}")
                steps.append(Move(parts[1], int(parts[2]), int(parts[3])))
            elif parts[0] == "PINCH" and len(parts) == 3:
                steps.append(Pinch(int(parts[1]), int(parts[2])))
            elif parts[0] == "DEATH" and len(parts) == 2:
                steps.append(Death(int(parts[1])))
            else:
                raise InputError(f"line {lineno}: unrecognized step {line!r}")
        except ValueError:
            raise InputError(f"line {lineno}: bad integer in {line!r}") from None
    return FillingCertificate(tuple(steps), declared)


def render_certificate(cert, header=None):
    lines = comment_header(header)
    if cert.declared_surface is not None:
        lines.append(f"EXPECT {cert.declared_surface[0]} {cert.declared_surface[1]}")
    for step in cert.steps:
        if isinstance(step, Move):
            if step.kind == "slide":
                lines.append(f"MOVE slide {step.index}")
            else:
                lines.append(f"MOVE {step.kind} {step.index} {step.pos}")
        elif isinstance(step, Pinch):
            lines.append(f"PINCH {step.index} {step.pos}")
        else:
            lines.append(f"DEATH {step.component}")
    return "\n".join(lines) + "\n"


def check_certificate(front, cert):
    """Replay a certificate; raises CertificateError pinpointing failures.

    On success returns a FillingReport with the pinch/death counts, the
    surface Euler characteristic (deaths - pinches), the genus when that
    is defined, and the tb = -euler cross-check.
    """
    oriented = orient(front)
    if oriented.n_components != 1:
        raise InputError("certificates are checked for knots (one component)")
    tb = classical_invariants(oriented)[0][0]
    # one event list and one profile, which each step edits in place
    events, counts = list(front.events), list(front._profile)
    pinches = deaths = 0
    for i, step in enumerate(cert.steps):
        try:
            if isinstance(step, Move):
                _move(events, counts, step)
            elif isinstance(step, Pinch):
                _pinch(events, counts, step.index, step.pos)
                pinches += 1
            elif isinstance(step, Death):
                _death(events, counts, step.component)
                deaths += 1
            else:
                raise InputError(f"unknown step type {step!r}")
        except InputError as exc:
            raise CertificateError(f"step {i} ({step}): {exc}", step=i) from exc
    if events:
        raise CertificateError(
            f"non-empty final word: {len(events)} events remain", step=None
        )
    if cert.declared_surface is not None and cert.declared_surface != (pinches, deaths):
        raise CertificateError(
            f"declared surface {cert.declared_surface} but replay used "
            f"({pinches}, {deaths})",
            step=None,
        )
    euler = deaths - pinches
    genus = (1 - euler) // 2 if (1 - euler) % 2 == 0 else None
    return FillingReport(
        pinches=pinches,
        deaths=deaths,
        euler=euler,
        genus=genus,
        tb=tb,
        tb_matches=(tb == -euler),
    )


# -- connected sums ---------------------------------------------------------------

def _knot_front(front):
    """``front`` itself, once one trace has found it to be a knot front."""
    if orient(front).n_components != 1:
        raise InputError("connected sums need single-component fronts")
    return front


def _splice(f1, f2):
    # a valid knot front starts with L 1 and ends with R 1 on its last two
    # strands, so the splice of two knot fronts is a valid knot front
    return FrontWord(f1.events[:-1] + f2.events[1:])


def connected_sum(f1, f2):
    """Splice f2 into f1 at f1's closing right cusp.

    Both fronts must be single-component.  A valid front always ends with
    R 1 acting on its last two strands and starts with L 1, so the splice
    removes f1's final cusp and f2's initial cusp and lets f1's two open
    strands run through f2's word.
    """
    return _splice(_knot_front(f1), _knot_front(f2))


def connect(fronts, certs):
    """The connected sum of two or more knot fronts, left to right, with
    the certificate composed from one certificate per front.

    Each front is traced once.  The splices and ``compose_certificates``
    then need only word lengths, so the growing sum is not traced again.
    """
    total, cert = _knot_front(fronts[0]), certs[0]
    for f, c in zip(fronts[1:], certs[1:]):
        cert = compose_certificates(total, cert, c)
        total = _splice(total, _knot_front(f))
    return total, cert


def compose_certificates(f1, c1, c2):
    """Certificate for connected_sum(f1, f2) from certificates of the parts.

    Pinching the splice neck first recreates the two original knots side
    by side (the saddle of the boundary connected sum), after which c1
    runs entirely inside the first word and c2 inside the second.  Only
    the length of f1 is used; replaying the result checks the rest.
    """
    neck = Pinch(len(f1.events) - 1, 1)
    steps = (neck,) + tuple(c1.steps) + tuple(c2.steps)
    declared = None
    if c1.declared_surface is not None and c2.declared_surface is not None:
        declared = (
            c1.declared_surface[0] + c2.declared_surface[0] + 1,
            c1.declared_surface[1] + c2.declared_surface[1],
        )
    return FillingCertificate(steps, declared)
