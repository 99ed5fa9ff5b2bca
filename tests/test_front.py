import random

import pytest

from diskfill import data_path
from diskfill import front as front_module
from diskfill.errors import CertificateError, InputError
from diskfill.front import (
    Death,
    FillingCertificate,
    FrontWord,
    Move,
    OrientedFront,
    Pinch,
    _cusp_cycles,
    apply_move,
    check_certificate,
    classical_invariants,
    compose_certificates,
    connect,
    connected_sum,
    death,
    orient,
    parse_certificate,
    parse_front,
    pinch,
    render_certificate,
    render_front,
    validate,
)

from helpers import move_outcome, random_move, rewrite_then_validate, stepped

UNKNOT = FrontWord((("L", 1), ("R", 1)))
TREFOIL = FrontWord(
    (("L", 1), ("L", 1), ("X", 2), ("X", 2), ("X", 2), ("R", 1), ("R", 1))
)


class TestValidation:
    def test_standard_unknot(self):
        assert validate(UNKNOT)

    def test_open_strand(self):
        with pytest.raises(InputError, match="final strand count"):
            validate(FrontWord((("L", 1),)))

    def test_position_out_of_range(self):
        with pytest.raises(InputError, match="crossing needs strands"):
            validate(FrontWord((("L", 1), ("X", 2), ("R", 1))))

    def test_error_reports_index(self):
        with pytest.raises(InputError, match="event 1"):
            validate(FrontWord((("L", 1), ("X", 2), ("R", 1))))

    @pytest.mark.parametrize(
        "events, message",
        [
            ((("L", 2),), "event 0: left cusp at 2 outside 1..1"),
            ((("L", 1), ("R", 2)), "event 1: right cusp needs strands 2,3 but only 2 exist"),
            ((("L", 1), ("X", 1), ("X", 0), ("R", 1)), "event 2: crossing needs strands 0,1"),
            ((("L", 1), ("L", 1), ("R", 1)), "event 3: final strand count 2, expected 0"),
            ((("L", 1), ("Y", 1), ("R", 1)), "event 1: unknown kind 'Y'"),
            ((("L", 1), ("R", 0)), "event 1: right cusp needs strands 0,1 but positions start at 1"),
        ],
    )
    def test_each_rule_names_its_event(self, events, message):
        with pytest.raises(InputError, match=message):
            validate(FrontWord(events))

    def test_parse_render_roundtrip(self):
        text = render_front(TREFOIL, header="a trefoil")
        assert parse_front(text).events == TREFOIL.events
        with pytest.raises(InputError):
            parse_front("L x\n")

    def test_strand_profile(self):
        assert TREFOIL._profile == [0, 2, 4, 4, 4, 4, 2, 0]


class TestComponentsAndInvariants:
    def test_unknot(self):
        assert classical_invariants(orient(UNKNOT)) == [(-1, 0)]

    def test_two_stacked_unknots(self):
        two = FrontWord((("L", 1), ("R", 1), ("L", 1), ("R", 1)))
        assert orient(two).n_components == 2
        assert classical_invariants(orient(two)) == [(-1, 0), (-1, 0)]

    def test_trefoil(self):
        assert classical_invariants(orient(TREFOIL)) == [(1, 0)]

    def test_direction_conflict_raises(self):
        # no front pairs strands like this: 0 meets 2 at a right cusp, but
        # 2 meets 1, so the cycle from 0 runs 0, 2, 3, 0 and meets 0 again
        with pytest.raises(RuntimeError, match="cycle from strand 0 does not close: strand 0"):
            _cusp_cycles([2, 3, 1, 0])

    def test_multi_component_knot_invariants_rejected(self):
        # a replay reads tb for knots only, so it refuses a link
        two = FrontWord((("L", 1), ("R", 1), ("L", 1), ("R", 1)))
        with pytest.raises(InputError, match="certificates are checked for knots"):
            check_certificate(two, FillingCertificate((Death(1), Death(1))))

    def test_odd_cusp_imbalance_raises(self):
        # no front has one cusp, so build the oriented data by hand
        lone_cusp = OrientedFront(FrontWord((("L", 1),)), (1, -1), (0, 0), ((0, 1),))
        with pytest.raises(RuntimeError, match="odd cusp imbalance"):
            classical_invariants(lone_cusp)


class TestMoves:
    def test_swallowtails_preserve_invariants(self):
        for kind in ("r1a+", "r1b+"):
            out = stepped(apply_move, UNKNOT, Move(kind, 1, 1))
            assert classical_invariants(orient(out)) == [(-1, 0)]
            back = stepped(apply_move, out, Move(kind[:-1] + "-", 1, 1))
            assert back.events == UNKNOT.events

    def test_r2_insert_remove_roundtrip(self):
        out = stepped(apply_move, TREFOIL, Move("r2a+", 5, 1))
        assert classical_invariants(orient(out)) == [(1, 0)]
        back = stepped(apply_move, out, Move("r2a-", 5, 1))
        assert back.events == TREFOIL.events

    def test_pattern_mismatch_reports_expected_and_found(self):
        with pytest.raises(InputError, match="expected .* found"):
            stepped(apply_move, UNKNOT, Move("r2a-", 0, 1))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            stepped(apply_move, UNKNOT, Move("zigzag", 0, 1))

    def test_slide_distant_events(self):
        # crossing slides past a left cusp two positions away
        front = FrontWord((("L", 1), ("L", 3), ("X", 1), ("R", 1), ("R", 1)))
        validate(front)
        slid = stepped(apply_move, front, Move("slide", 1, 0))
        assert slid.events == (("L", 1), ("X", 1), ("L", 3), ("R", 1), ("R", 1))
        assert classical_invariants(orient(slid)) == classical_invariants(orient(front))
        assert stepped(apply_move, slid, Move("slide", 1, 0)).events == front.events

    def test_slide_overlap_rejected(self):
        with pytest.raises(InputError, match="overlap"):
            stepped(apply_move, TREFOIL, Move("slide", 4, 0))  # X2 then R1 share strands

    @pytest.mark.parametrize("a_kind", "LRX")
    @pytest.mark.parametrize("b_kind", "LRX")
    def test_slide_matches_labelled_strands(self, a_kind, b_kind):
        # Every pair at a in 1..8, b in 1..10 on a column of named strands.
        # A slide must swap the events onto the same strands with the same
        # final column, and is rejected exactly when no such order exists
        # or the two events' strands meet.
        start = tuple(range(24))

        def act(column, kind, p, name):
            # (strands the event touches, column after it), or None when
            # the position is outside the column
            i = p - 1
            if p > len(column) + (1 if kind == "L" else -1):
                return None, None
            if kind == "L":
                new = (name, name + "'")
                return set(new), column[:i] + new + column[i:]
            pair = column[i:i + 2]
            rest = () if kind == "R" else pair[::-1]
            return set(pair), column[:i] + rest + column[i + 2:]

        for a in range(1, 9):
            for b in range(1, 11):
                touched_a, mid = act(start, a_kind, a, "A")
                touched_b, end = act(mid, b_kind, b, "B")
                orders = set()
                for b2 in range(1, len(start) + 2):
                    seen_b, mid2 = act(start, b_kind, b2, "B")
                    if mid2 is None:
                        continue
                    for a2 in range(1, len(mid2) + 2):
                        seen_a, end2 = act(mid2, a_kind, a2, "A")
                        if (seen_a, seen_b, end2) == (touched_a, touched_b, end):
                            orders.add((b2, a2))
                events = ((a_kind, a), (b_kind, b))
                if orders and not touched_a & touched_b:
                    (_, b2), (_, a2) = front_module._slide(events, 0)
                    assert (b2, a2) in orders, events
                else:
                    with pytest.raises(InputError, match=r"slide at 0: events overlap"):
                        front_module._slide(events, 0)

    def test_r3_roundtrip(self):
        front = FrontWord(
            (("L", 1), ("L", 1), ("X", 1), ("X", 2), ("X", 1),
             ("X", 2), ("R", 1), ("R", 1))
        )
        validate(front)
        out = stepped(apply_move, front, Move("r3", 2, 1))
        assert out.events[2:5] == (("X", 2), ("X", 1), ("X", 2))
        assert stepped(apply_move, out, Move("r3", 2, 1)).events == front.events

    def test_invariance_under_random_rewrites(self):
        rng = random.Random(41)
        front = TREFOIL
        for _ in range(200):
            _, front = random_move(rng, front)
            assert orient(front).n_components == 1
        assert classical_invariants(orient(front)) == [(1, 0)]


class TestPinchAndDeath:
    def test_pinch_unknot(self):
        out = stepped(pinch, UNKNOT, 1, 1)
        assert out.events == (("L", 1), ("R", 1), ("L", 1), ("R", 1))
        assert orient(out).n_components == 2

    def test_pinch_parallel_rejected_oriented(self):
        # trefoil strands 2,3 between the cusps run parallel
        with pytest.raises(InputError, match="parallel"):
            stepped(pinch, TREFOIL, 2, 2)

    def test_pinch_changes_component_count_by_one(self):
        rng = random.Random(42)
        front = TREFOIL
        for _ in range(50):
            _, front = random_move(rng, front)
        before = orient(front).n_components
        profile = front._profile
        done = False
        for idx in range(len(front.events) + 1):
            for k in range(1, profile[idx]):
                try:
                    out = stepped(pinch, front, idx, k)
                except InputError:
                    continue
                assert abs(orient(out).n_components - before) == 1
                done = True
        assert done

    def test_pinch_at_either_end_of_the_word(self):
        # no strands run before the first event or after the last one
        for index in (0, len(TREFOIL)):
            with pytest.raises(InputError, match=f"column {index}, only 0 present"):
                stepped(pinch, TREFOIL, index, 1)
        with pytest.raises(InputError, match="pinch column 8 out of range 0..7"):
            stepped(pinch, TREFOIL, 8, 1)

    def test_pinch_traces_only_its_block(self, monkeypatch):
        # two strands at the column: one component, anti-parallel, no trace
        assert traces_made(monkeypatch, stepped, pinch, TREFOIL, 1, 1) == 0
        # four strands: only the trefoil's block is traced, not the unknots
        split = FrontWord(UNKNOT.events + TREFOIL.events + UNKNOT.events)
        assert traces_made(monkeypatch, stepped, pinch, split, 4, 1) == len(TREFOIL)
        with pytest.raises(InputError, match="parallel"):
            stepped(pinch, split, 4, 2)

    def test_pinch_still_validates_its_input(self):
        with pytest.raises(InputError, match="final strand count 2"):
            stepped(pinch, FrontWord((("L", 1), ("L", 1), ("R", 1))), 1, 1)

    def test_death(self):
        two = FrontWord((("L", 1), ("R", 1), ("L", 1), ("R", 1)))
        assert stepped(death, two, 1).events == (("L", 1), ("R", 1))
        assert stepped(death, two, 2).events == (("L", 1), ("R", 1))

    def test_death_rejects_nonstandard_component(self):
        with pytest.raises(InputError, match="not a standard unknot"):
            stepped(death, TREFOIL, 1)

    def test_death_of_component_one_needs_no_trace(self, monkeypatch):
        two = FrontWord(UNKNOT.events * 2)
        assert traces_made(monkeypatch, stepped, death, two, 1) == 0
        assert traces_made(monkeypatch, stepped, death, two, 2) == len(two)
        # here component 1 is the trefoil, so the word does not start L 1, R 1
        trefoil_first = FrontWord(TREFOIL.events + UNKNOT.events)
        assert traces_made(monkeypatch, stepped, death, trefoil_first, 2) == len(trefoil_first)


class TestCertificates:
    def test_unknot_death_certificate(self):
        report = check_certificate(UNKNOT, FillingCertificate((Death(1),), (0, 1)))
        assert report.euler == 1
        assert report.genus == 0
        assert report.tb == -1
        assert report.tb_matches

    def test_failure_pinpoints_step(self):
        cert = FillingCertificate((Move("r1a-", 0, 1), Death(1)))
        with pytest.raises(CertificateError) as exc:
            check_certificate(UNKNOT, cert)
        assert exc.value.step == 0

    def test_nonempty_final_word(self):
        pinched = FillingCertificate((Pinch(1, 1), Death(1)))
        with pytest.raises(CertificateError, match="non-empty"):
            check_certificate(UNKNOT, pinched)

    def test_declared_surface_mismatch(self):
        cert = FillingCertificate((Death(1),), (1, 1))
        with pytest.raises(CertificateError, match="declared"):
            check_certificate(UNKNOT, cert)

    def test_parse_render_roundtrip(self):
        cert = FillingCertificate(
            (Pinch(3, 1), Move("slide", 0, 0), Move("r2a-", 1, 2), Death(1)),
            (1, 2),
        )
        text = render_certificate(cert, header="demo")
        assert parse_certificate(text) == cert

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            parse_certificate("MOVE warp 0 1\n")

    def test_parse_rejects_bare_move(self):
        with pytest.raises(InputError, match="line 2: unrecognized step 'MOVE'"):
            parse_certificate("DEATH 1\nMOVE\n")

    @pytest.mark.parametrize("index", [-1, 3])
    def test_move_index_outside_word_rejected(self, index):
        # at index -1 the swallowtail used to land at position len-1, and
        # past the end it was appended; both now fail at step 0
        cert = FillingCertificate((Move("r1a+", index, 1), Move("r1a-", 1, 1), Death(1)))
        with pytest.raises(CertificateError, match=f"step 0 .*move index {index} out of range") as exc:
            check_certificate(UNKNOT, cert)
        assert exc.value.step == 0

    @pytest.mark.parametrize(
        "move", [Move("slide", -1, 0), Move("slide", 1, 0), Move("r3", -1, 1), Move("r2a-", -1, 1)]
    )
    def test_every_move_kind_checks_its_window(self, move):
        with pytest.raises(InputError, match="out of range"):
            stepped(apply_move, UNKNOT, move)


def traces_made(monkeypatch, fn, *args):
    """Number of events traced while calling ``fn(*args)``: the sum of the
    lengths of the words given to ``front._trace``."""
    real = front_module._trace
    traced = []

    def counting(word, *column):
        traced.append(len(word))
        return real(word, *column)

    monkeypatch.setattr(front_module, "_trace", counting)
    try:
        fn(*args)
    finally:
        monkeypatch.setattr(front_module, "_trace", real)
    return sum(traced)


def block_length(front, index):
    """Length of the closed block around column ``index``: the events
    between the nearest columns on either side where no strand runs."""
    profile = front._profile
    start = end = index
    while profile[start]:
        start -= 1
    while profile[end]:
        end += 1
    return end - start


def replay_traces(monkeypatch, front, cert):
    """Replay ``cert`` on ``front`` and record what each trace read.

    Returns the lengths of the words traced outside any pinch, and for
    each pinch in step order its column's strand count, the length of the
    block around its column, and the events it traced.  Replay pinches
    through ``front.pinch``, so that is what is recorded; the count and
    block come from a fresh walk of the word."""
    real_trace, real_pinch = front_module._trace, front_module.pinch
    outside, pinches = [], []

    def counting(word, *column):
        outside.append(len(word))
        return real_trace(word, *column)

    def recording(events, counts, index, k):
        word = FrontWord(tuple(events))
        before = len(outside)
        real_pinch(events, counts, index, k)
        count = word._profile[index]
        pinches.append((count, block_length(word, index), sum(outside[before:])))
        del outside[before:]

    monkeypatch.setattr(front_module, "_trace", counting)
    monkeypatch.setattr(front_module, "pinch", recording)
    try:
        check_certificate(front, cert)
    finally:
        monkeypatch.setattr(front_module, "_trace", real_trace)
        monkeypatch.setattr(front_module, "pinch", real_pinch)
    return outside, pinches


class TestOneTracePerWord:
    """A replay traces each word at most once, and mostly only in part:
    the start front whole, and for each pinch at most the closed block
    around its column; a move checks only the window it rewrites, a
    pinch's result needs no check, and every death in these certificates
    is of component 1, which needs no trace.  A neck pinch of a composed
    certificate, at a column of two strands, traces nothing."""

    def check(self, monkeypatch, front, cert, necks=0):
        outside, pinches = replay_traces(monkeypatch, front, cert)
        assert outside == [len(front)]
        assert len(pinches) == sum(isinstance(step, Pinch) for step in cert.steps)
        for count, _, traced in pinches[:necks]:
            assert count == 2 and traced == 0
        for _, block, traced in pinches[necks:]:
            assert traced <= block
        return pinches

    def test_bundled_disk_certificates(self, monkeypatch):
        f946 = parse_front(data_path("9_46.front").read_text())
        for name in ("d1.cert", "d2.cert"):
            cert = parse_certificate(data_path(name).read_text())
            self.check(monkeypatch, f946, cert)

    def test_composed_l2_certificate(self, monkeypatch):
        f946 = parse_front(data_path("9_46.front").read_text())
        d1, d2 = (parse_certificate(data_path(n).read_text()) for n in ("d1.cert", "d2.cert"))
        cert = compose_certificates(f946, d2, d1)
        total = connected_sum(f946, f946)
        self.check(monkeypatch, total, cert, necks=1)

    def check_composed(self, monkeypatch, n):
        f946 = parse_front(data_path("9_46.front").read_text())
        d1, d2 = (parse_certificate(data_path(name).read_text()) for name in ("d1.cert", "d2.cert"))
        total, cert = connect([f946] * n, [d1, d2] * (n // 2))
        # connect puts the n - 1 neck pinches first, outermost first
        assert all(step.pos == 1 for step in cert.steps[:n - 1])
        pinches = self.check(monkeypatch, total, cert, necks=n - 1)
        # each summand's own pinch sees only its summand's block
        assert [block for _, block, _ in pinches[n - 1:]] == [len(f946)] * n

    def test_composed_l8_certificate(self, monkeypatch):
        self.check_composed(monkeypatch, 8)

    def test_composed_l32_certificate(self, monkeypatch):
        self.check_composed(monkeypatch, 32)


class TestCarriedProfile:
    """Each replay step edits the strand-count profile in place with its
    event list; after every step that profile must equal a fresh walk of
    the events."""

    def check(self, monkeypatch, front, cert):
        results = []
        for name in ("apply_move", "pinch", "death"):
            real = getattr(front_module, name)

            def step(events, counts, *args, real=real):
                real(events, counts, *args)
                results.append((tuple(events), list(counts)))

            monkeypatch.setattr(front_module, name, step)
        check_certificate(front, cert)
        assert len(results) == len(cert.steps)
        for events, counts in results:
            assert counts == FrontWord(tuple(events))._profile

    @pytest.mark.parametrize("name", ["d1.cert", "d2.cert"])
    def test_bundled_disk_certificates(self, monkeypatch, name):
        f946 = parse_front(data_path("9_46.front").read_text())
        self.check(monkeypatch, f946, parse_certificate(data_path(name).read_text()))

    @pytest.mark.parametrize("n", [8, 32])
    def test_composed_certificates(self, monkeypatch, n):
        f946 = parse_front(data_path("9_46.front").read_text())
        d1, d2 = (parse_certificate(data_path(name).read_text()) for name in ("d1.cert", "d2.cert"))
        self.check(monkeypatch, *connect([f946] * n, [d1, d2] * (n // 2)))


class TestReplayInPlace:
    """A replay edits one event list and one profile list, and traces
    slices of that list: it builds no word at all."""

    def test_composed_l32_replay_builds_no_word(self, monkeypatch):
        f946 = parse_front(data_path("9_46.front").read_text())
        d1, d2 = (parse_certificate(data_path(name).read_text()) for name in ("d1.cert", "d2.cert"))
        total, cert = connect([f946] * 32, [d1, d2] * 16)
        built = []
        real = FrontWord.__init__
        monkeypatch.setattr(FrontWord, "__init__",
                            lambda word, events: built.append(len(events)) or real(word, events))
        assert check_certificate(total, cert).euler == 1
        assert built == []

    def test_public_steps_leave_their_input_as_it_was(self):
        # run through ``stepped``, each step edits a copy of the word's lists
        word = parse_front(data_path("9_46.front").read_text())
        for step in parse_certificate(data_path("d1.cert").read_text()).steps:
            events, profile = word.events, list(word._profile)
            if isinstance(step, Move):
                out = stepped(apply_move, word, step)
            elif isinstance(step, Pinch):
                out = stepped(pinch, word, step.index, step.pos)
            else:
                out = stepped(death, word, step.component)
            assert word.events == events and word._profile == profile
            word = out
        assert word.events == ()

    @pytest.mark.parametrize("step, args", [
        ("apply_move", (Move("r2a-", 0, 1),)),  # pattern mismatch
        ("apply_move", (Move("slide", 2, 0),)),  # overlapping events
        ("apply_move", (Move("r1a+", 0, 1),)),  # a new event on too few strands
        ("pinch", (3, 2)),  # parallel strands
        ("pinch", (3, 4)),  # too few strands
        ("pinch", (9, 1)),  # column outside the word
        ("death", (1,)),  # not a standard unknot
        ("death", (2,)),  # no such component
    ])
    def test_rejected_steps_change_nothing(self, step, args):
        events, counts = list(TREFOIL.events), list(TREFOIL._profile)
        with pytest.raises(InputError):
            getattr(front_module, step)(events, counts, *args)
        assert events == list(TREFOIL.events) and counts == TREFOIL._profile


class TestReplayCallsThePublicSteps:
    """Replay runs each step through the module-level ``apply_move``,
    ``pinch`` and ``death``, so a wrapper installed on those names, as
    perfbench's tracer installs its timers, sees every step."""

    def calls(self, monkeypatch, front, cert):
        calls = {"apply_move": 0, "pinch": 0, "death": 0}
        for name in calls:
            real = getattr(front_module, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(front_module, name, counting)
        check_certificate(front, cert)
        return calls

    def expected(self, cert):
        return {name: sum(isinstance(step, kind) for step in cert.steps)
                for name, kind in (("apply_move", Move), ("pinch", Pinch), ("death", Death))}

    def test_bundled_d1_certificate(self, monkeypatch):
        f946 = parse_front(data_path("9_46.front").read_text())
        cert = parse_certificate(data_path("d1.cert").read_text())
        assert self.calls(monkeypatch, f946, cert) == self.expected(cert)

    def test_composed_l8_certificate(self, monkeypatch):
        f946 = parse_front(data_path("9_46.front").read_text())
        d1, d2 = (parse_certificate(data_path(name).read_text()) for name in ("d1.cert", "d2.cert"))
        total, cert = connect([f946] * 8, [d1, d2] * 4)
        expected = self.expected(cert)
        assert expected["pinch"] == 7 + 8 and all(expected.values())
        assert self.calls(monkeypatch, total, cert) == expected


class TestMovesCheckTheirWindow:
    """apply_move against the old rewrite-then-validate on every front a
    random walk visits, with indices and positions beyond the word."""

    def test_matches_rewrite_then_validate(self):
        rng = random.Random(44)
        outcomes = {"accepted": 0, "event": 0, "out of range": 0, "mismatch": 0}
        front = TREFOIL
        for _ in range(300):
            _, front = random_move(rng, front)
            top = max(front._profile) + 2
            for _ in range(12):
                kind = rng.choice(front_module.MOVE_KINDS)
                move = Move(kind, rng.randint(-1, len(front) + 1), rng.randint(-1, top))
                got = move_outcome(stepped, apply_move, front, move)
                assert got == move_outcome(rewrite_then_validate, front, move), move
                text = got[1] if isinstance(got[0], type) else "accepted"
                for key in outcomes:
                    outcomes[key] += key in text
        # every kind of outcome, including a new event outside the strands
        assert all(outcomes.values()), outcomes

    def test_net_strand_change_is_checked(self, monkeypatch):
        # a table entry that loses a right cusp no longer ends at 0 strands
        monkeypatch.setitem(front_module._REWRITES, "r2a+", ((("R", +1),), (("X", +2),)))
        with pytest.raises(RuntimeError, match="changes the strand count by 0"):
            stepped(apply_move, TREFOIL, Move("r2a+", 5, 1))


class TestConnectedSum:
    def test_unknot_sum(self):
        out = connected_sum(UNKNOT, UNKNOT)
        assert out.events == UNKNOT.events
        assert classical_invariants(orient(out)) == [(-1, 0)]

    def test_tb_additivity(self):
        rng = random.Random(43)
        fronts = [UNKNOT, TREFOIL]
        f = TREFOIL
        for _ in range(30):
            _, f = random_move(rng, f)
        fronts.append(f)
        for f1 in fronts:
            for f2 in fronts:
                [(tb, _)] = classical_invariants(orient(connected_sum(f1, f2)))
                [(tb1, _)], [(tb2, _)] = (classical_invariants(orient(f)) for f in (f1, f2))
                assert tb == tb1 + tb2 + 1

    def test_traces_each_input_once(self, monkeypatch):
        f946 = parse_front(data_path("9_46.front").read_text())
        assert traces_made(monkeypatch, connected_sum, f946, f946) == 2 * len(f946)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_connect_traces_each_input_once(self, monkeypatch, n):
        f946 = parse_front(data_path("9_46.front").read_text())
        d1 = parse_certificate(data_path("d1.cert").read_text())
        assert traces_made(monkeypatch, connect, [f946] * n, [d1] * n) == n * len(f946)

    def test_multi_component_rejected(self):
        two = FrontWord((("L", 1), ("R", 1), ("L", 1), ("R", 1)))
        with pytest.raises(InputError):
            connected_sum(two, UNKNOT)

    def test_composed_certificate(self):
        unknot_cert = FillingCertificate((Death(1),), (0, 1))
        total = connected_sum(UNKNOT, UNKNOT)
        cert = compose_certificates(UNKNOT, unknot_cert, unknot_cert)
        assert cert.declared_surface == (1, 2)
        report = check_certificate(total, cert)
        assert report.euler == 1
        assert report.tb_matches
