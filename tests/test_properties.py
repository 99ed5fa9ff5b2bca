"""Property tests: text formats round-trip, the Laurent rings distribute,
fronts orient, move and pinch as the full-trace oracles in ``helpers``
say, the Kauffman memo key is label-free, equals the least full token
code and determines its diagram, and the pruned homomorphism search
yields what brute force over every assignment does, in the same order.

The examples are derandomized and capped so the module runs in a few
seconds and gives the same result on every run.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskfill import groups  # noqa: E402
from diskfill.errors import BudgetError, InputError  # noqa: E402
from diskfill.front import (  # noqa: E402
    MOVE_KINDS,
    Death,
    FillingCertificate,
    FrontWord,
    Move,
    Pinch,
    apply_move,
    death,
    orient,
    parse_certificate,
    parse_front,
    pinch,
    render_certificate,
    render_front,
    validate,
)
from diskfill.groups import Presentation, iter_homs  # noqa: E402
from diskfill.kauffman import (  # noqa: E402
    LinkDiagram,
    _connected_pieces,
    canonical_key,
    kauffman_F,
    regular_isotopy_polynomial,
    smooth_crossing,
    switch_crossing,
    trace_diagram,
)
from diskfill.laurent import BiLaurent, IntLaurent  # noqa: E402

from helpers import (  # noqa: E402
    brute_homs,
    move_outcome,
    parity_orient,
    pretzel_pd,
    rewrite_then_validate,
    stepped,
    token_key,
    traced_death,
    traced_pinch,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

coeffs = st.integers(-9, 9)  # small, so the renderer's ±1 cases come up often
exps = st.integers(-5, 5)
int_laurents = st.dictionaries(exps, coeffs, max_size=6).map(IntLaurent)
bi_laurents = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=6).map(BiLaurent)
same_type_triples = st.one_of(
    st.tuples(int_laurents, int_laurents, int_laurents),
    st.tuples(bi_laurents, bi_laurents, bi_laurents),
)


class TestLaurent:
    @PROPERTY
    @given(int_laurents)
    def test_int_laurent_text_roundtrip(self, p):
        assert IntLaurent.parse(str(p)) == p

    @PROPERTY
    @given(bi_laurents)
    def test_bi_laurent_text_roundtrip(self, f):
        assert BiLaurent.parse(str(f)) == f

    @PROPERTY
    @given(same_type_triples)
    def test_products_distribute_over_sums(self, triple):
        p, q, r = triple
        assert p * (q + r) == p * q + p * r
        assert (q - r) * p == q * p - r * p


@st.composite
def fronts(draw, max_events=24):
    """A valid front: random cusps and crossings, closed by right cusps."""
    events, count = [], 0
    for _ in range(draw(st.integers(0, max_events))):
        kind = draw(st.sampled_from(("L", "R", "X") if count >= 2 else ("L",)))
        if kind == "L":
            events.append(("L", draw(st.integers(1, count + 1))))
            count += 2
        else:
            events.append((kind, draw(st.integers(1, count - 1))))
            count -= 2 if kind == "R" else 0
    events += [("R", 1)] * (count // 2)
    return FrontWord(tuple(events))


headers = st.none() | st.text(st.characters(whitelist_categories=("L", "N", "Zs")), max_size=30)
naturals = st.integers(0, 500)
steps = st.one_of(
    st.builds(Move, st.sampled_from([k for k in MOVE_KINDS if k != "slide"]), naturals, naturals),
    st.builds(Move, st.just("slide"), naturals, st.just(0)),
    st.builds(Pinch, naturals, naturals),
    st.builds(Death, naturals),
)
certificates = st.builds(
    FillingCertificate,
    st.lists(steps, max_size=20).map(tuple),
    st.none() | st.tuples(naturals, naturals),
)


class TestFormats:
    @PROPERTY
    @given(fronts(), headers)
    def test_front_roundtrip(self, front, header):
        assert validate(front)
        assert parse_front(render_front(front, header=header)) == front

    @PROPERTY
    @given(certificates, headers)
    def test_certificate_roundtrip(self, cert, header):
        assert parse_certificate(render_certificate(cert, header=header)) == cert


@st.composite
def moves_on_fronts(draw):
    """A valid front and a move whose index and position may leave it.

    The position is often read off the event at the index, so that table
    patterns match and the window check decides."""
    front = draw(fronts())
    kind = draw(st.sampled_from(MOVE_KINDS))
    index = draw(st.integers(-2, len(front) + 2))
    top = max(front._profile)
    if 0 <= index < len(front) and draw(st.booleans()):
        pos = front.events[index][1] + draw(st.integers(-2, 1))
    else:
        pos = draw(st.integers(-1, top + 2))
    return front, Move(kind, index, pos if kind != "slide" else 0)


@st.composite
def deaths_on_fronts(draw):
    """A valid front with standard unknots [L p, R p] spliced in at random
    columns, often at the very start, and a component index 0..ncomp+1."""
    events = list(draw(fronts()).events)
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.integers(0, len(events)) | st.just(0))
        count = FrontWord(tuple(events))._profile[column]
        p = draw(st.integers(1, count + 1))
        events[column:column] = [("L", p), ("R", p)]
    front = FrontWord(tuple(events))
    return front, draw(st.integers(0, orient(front).n_components + 1))


@st.composite
def pinches_on_fronts(draw):
    """A word of one to three valid fronts side by side, so a column of
    no strands often splits it into blocks, with an event inserted or
    deleted two times in seven so that it is often invalid; and a pinch
    column and position.  The column often has more than two strands, and
    is often one of two strands, 0, the word's length or outside the word."""
    blocks = draw(st.lists(fronts(max_events=20), min_size=1, max_size=3))
    events = [event for block in blocks for event in block.events]
    corrupt = draw(st.sampled_from(("keep", "delete", "keep", "insert", "keep", "keep", "keep")))
    if corrupt == "delete" and events:
        del events[draw(st.integers(0, len(events) - 1))]
    elif corrupt == "insert":
        event = draw(st.tuples(st.sampled_from(("L", "R", "X")), st.integers(0, 6)))
        events.insert(draw(st.integers(0, len(events))), event)
    counts = [0]
    for kind, _ in events:
        counts.append(counts[-1] + (2 if kind == "L" else -2 if kind == "R" else 0))
    inside = [i for i, c in enumerate(counts) if c > 2] or [0]
    two = [i for i, c in enumerate(counts) if c == 2]
    index = draw(
        st.sampled_from(inside)
        | st.sampled_from(two + [0, len(events)])
        | st.integers(-2, len(events) + 2)
    )
    top = counts[index] if 0 <= index <= len(events) else 2
    k = draw(st.integers(1, max(top - 1, 1)) | st.integers(-1, top + 1))
    return FrontWord(tuple(events)), index, k


class TestFronts:
    @PROPERTY
    @given(fronts(max_events=40))
    def test_orient_matches_parity_union_find(self, front):
        oriented = orient(front)
        got = (oriented.directions, oriented.component_of, oriented.event_strands)
        assert got == parity_orient(front)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(moves_on_fronts())
    def test_apply_move_matches_rewrite_then_validate(self, front_and_move):
        front, move = front_and_move
        assert move_outcome(stepped, apply_move, front, move) == move_outcome(
            rewrite_then_validate, front, move
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(deaths_on_fronts())
    def test_death_matches_traced_death(self, front_and_component):
        front, c = front_and_component
        assert move_outcome(stepped, death, front, c) == move_outcome(traced_death, front, c)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pinches_on_fronts())
    def test_pinch_matches_traced_pinch(self, case):
        front, index, k = case
        assert move_outcome(stepped, pinch, front, index, k) == move_outcome(
            traced_pinch, front, index, k
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pinches_on_fronts())
    def test_pinch_carries_the_profile(self, case):
        front, index, k = case
        try:
            out = stepped(pinch, front, index, k)
        except InputError:
            return
        assert vars(out)["_profile"] == FrontWord(tuple(out.events))._profile


@st.composite
def link_diagrams(draw):
    """A pretzel diagram after up to three switches and smoothings, so
    split pieces, loops and pieces of several components all come up."""
    d = pretzel_pd(draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        if not d.crossings:
            break
        i = draw(st.integers(0, d.n - 1))
        op = draw(st.integers(0, 2))
        d = switch_crossing(d, i) if op == 0 else smooth_crossing(d, i, op - 1)
    return d


def diagram_from_key(key):
    """The diagram a key encodes, read from its token codes (each piece's
    code is the string of code points token + 1).

    Edges are labelled in the order the tokens enter them.  A token below 2
    is a first visit, entering a new crossing at slot ``token`` (0 under, 1
    over, up to rotating the crossing by two slots); a token ``2 + 2 * i +
    turn`` enters crossing i again at its first slot plus 3 if ``turn``
    else plus 1.  A dart enters along its own label and leaves through
    ``slot ^ 2`` along the next one, or along its component's first label
    at a -1 or at the end.  Pieces are shifted apart so their labels stay
    distinct."""
    if key[0] == "loops":
        return LinkDiagram((), key[1])
    _, pieces, loops = key
    crossings = []
    for code in pieces:
        piece, first_slot = [], []
        head = label = len(crossings) * 2  # labels used by earlier pieces
        leaving = None  # (crossing, slot) that takes the next label
        for token in [ord(ch) - 1 for ch in code] + [-1]:
            if token == -1:
                ci, slot = leaving
                piece[ci][slot] = head
                head, leaving = label, None
                continue
            if token < 2:
                ci, slot = len(piece), token
                piece.append([None] * 4)
                first_slot.append(slot)
            else:
                ci = (token - 2) // 2
                slot = (first_slot[ci] + (3 if token % 2 else 1)) % 4
            piece[ci][slot] = label
            if leaving is not None:
                piece[leaving[0]][leaving[1]] = label
            leaving = (ci, slot ^ 2)
            label += 1
        crossings += [tuple(c) for c in piece]
    return LinkDiagram(tuple(crossings), loops)


def one_component_per_piece(d):
    return trace_diagram(d).components - d.loops == len(_connected_pieces(d))


class TestKauffmanKey:
    @PROPERTY
    @given(link_diagrams(), st.randoms(use_true_random=False))
    def test_relabelling_keeps_the_key(self, d, rng):
        labels = sorted({e for c in d.crossings for e in c})
        new = rng.sample(range(-50, 50), len(labels))
        m = dict(zip(labels, new))
        order = rng.sample(d.crossings, d.n)
        relabelled = LinkDiagram(tuple(tuple(m[e] for e in c) for c in order), d.loops)
        assert canonical_key(relabelled) == canonical_key(d)

    @PROPERTY
    @given(link_diagrams())
    def test_key_is_the_least_full_token_code(self, d):
        assert canonical_key(d) == token_key(d)

    @PROPERTY
    @given(link_diagrams())
    def test_key_reads_back_as_its_diagram(self, d):
        key = canonical_key(d)
        back = diagram_from_key(key)
        # the memo stores lam under the key, so lam is what must agree
        assert regular_isotopy_polynomial(back) == regular_isotopy_polynomial(d)
        assert canonical_key(back) == key
        if one_component_per_piece(d):
            # F of a link also depends on the orientation traced from the
            # labels, which the read-back diagram does not keep
            assert kauffman_F(back) == kauffman_F(d)


@st.composite
def hom_searches(draw):
    """A presentation of rank 0-4 and a symbol count 1-4, with at most 24^3
    assignments so brute force stays quick.  Each relator first draws its
    highest generator, 0 for the empty relator, so relators in the early
    generators only come up often.  It then takes 1-3 runs of that
    generator, with up to two runs of lower generators before, between and
    after them, so up to 11 runs: the search multiplies each stretch of
    lower runs into one permutation, and a stretch's ends are where that
    can go wrong.  Runs repeat a letter up to 7 times, past every cycle
    length of S4."""
    n = draw(st.integers(1, 4))
    rank = draw(st.integers(0, 3 if n == 4 else 4))
    relators = []
    for _ in range(draw(st.integers(0, 3))):
        top = draw(st.integers(0, rank))
        gens = []
        if top:
            tops = draw(st.integers(1, 3))
            for i in range(tops + 1):
                if top > 1:  # lower runs before, between or after the top runs
                    gens += [draw(st.integers(1, top - 1)) for _ in range(draw(st.integers(0, 2)))]
                if i < tops:
                    gens.append(top)
        letters = []
        for g in gens:
            letters += [g * draw(st.sampled_from((1, -1)))] * draw(st.integers(1, 7))
        relators.append(tuple(letters))
    return Presentation(tuple(f"x{i}" for i in range(1, rank + 1)), tuple(relators)), n


class TestHomSearch:
    @PROPERTY
    @given(hom_searches())
    def test_search_yields_what_brute_force_does(self, case):
        pres, n = case
        assert list(iter_homs(pres, n)) == list(brute_homs(pres, n))

    def test_budget_stops_on_a_brute_force_prefix(self, monkeypatch):
        # the free group of rank 3 prunes nothing, so 1,000 steps, 8 for
        # each hom, are far short of the 120^3 homs into S5
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 1000)
        free3 = Presentation(("x", "y", "z"), ())
        found = []
        with pytest.raises(BudgetError):
            for images in iter_homs(free3, 5):
                found.append(images)
        assert found
        assert found == list(itertools.islice(brute_homs(free3, 5), len(found)))
