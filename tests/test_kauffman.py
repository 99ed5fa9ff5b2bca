import itertools
import random

import pytest

from diskfill import data_path, kauffman
from diskfill.errors import BudgetError, InputError
from diskfill.kauffman import (
    DELTA_NUMERATOR,
    DiagramTrace,
    LinkDiagram,
    canonical_key,
    delta_power,
    kauffman_F,
    parse_pd,
    regular_isotopy_polynomial,
    render_pd,
    simplify,
    smooth_crossing,
    switch_crossing,
    tb_upper_bound,
    trace_diagram,
)
from diskfill.laurent import BiLaurent, min_deg_a

from helpers import (
    a_mirror,
    all_starts_key,
    braid_pd,
    incidence_trace,
    mirror,
    naive_F,
    naive_lambda,
    pretzel_lambda,
    pretzel_pd,
    stepwise_simplify,
    token_key,
    union_find_smoothing,
)

UNKNOT = parse_pd("O(1)")
KINK_POS = LinkDiagram(((7, 7, 3, 3),), 0)
KINK_NEG = LinkDiagram(((3, 7, 7, 3),), 0)
TREFOIL_LH = pretzel_pd([1, 1, 1])
Z = BiLaurent.z(1)


def relabel(diagram, rng):
    labels = sorted({e for c in diagram.crossings for e in c})
    new = list(range(101, 101 + len(labels)))
    rng.shuffle(new)
    m = dict(zip(labels, new))
    return LinkDiagram(
        tuple(tuple(m[e] for e in c) for c in diagram.crossings), diagram.loops
    )


def random_diagram(rng, max_crossings=6):
    """Random small diagram grown by skein-style surgeries on a trefoil sum."""
    d = TREFOIL_LH
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(d.n)
        op = rng.randrange(3)
        if op == 0:
            d = switch_crossing(d, i)
        else:
            nd = smooth_crossing(d, i, op - 1)
            if nd.n:
                d = nd
    return d


class TestParsing:
    def test_unknot_and_loops(self):
        assert UNKNOT.loops == 1
        assert trace_diagram(UNKNOT).components == 1

    def test_trefoil_pd(self):
        d = parse_pd("X(1,4,2,5)\nX(3,6,4,1)\nX(5,2,6,3)")
        assert d.n == 3
        assert trace_diagram(d).components == 1

    def test_label_reuse_rejected(self):
        with pytest.raises(InputError, match="exactly twice"):
            parse_pd("X(1,1,1,2)\nX(2,3,3,4)")
        with pytest.raises(InputError, match="exactly twice"):
            parse_pd("X(1,2,3,4)\nX(1,2,3,5)")

    def test_malformed(self):
        with pytest.raises(InputError):
            parse_pd("X(1,2,3)\n")
        with pytest.raises(InputError):
            parse_pd("Y(1,2,3,4)\n")
        with pytest.raises(InputError):
            LinkDiagram((), 0)

    def test_render_roundtrip(self):
        text = render_pd(TREFOIL_LH, header="demo")
        again = parse_pd(text)
        assert again.crossings == TREFOIL_LH.crossings

    def test_loop_label_reusing_an_edge_rejected(self):
        with pytest.raises(InputError, match="line 2: loop label 1 is a crossing edge label"):
            parse_pd("X(1,2,2,1)\nO(1)")
        with pytest.raises(InputError, match="line 1: loop label 2 is a crossing edge label"):
            parse_pd("O(2)\nX(1,2,2,1)")

    def test_repeated_loop_label_rejected(self):
        with pytest.raises(InputError, match="line 2: loop label 5 repeats line 1"):
            parse_pd("O(5)\nO(5)\nO(5)")
        with pytest.raises(InputError, match="line 4: loop label 5 repeats line 2"):
            parse_pd("X(1,1,2,2)\nO(5)\nO(6)\nO(5)")

    def test_rendered_loops_parse(self):
        for d in (LinkDiagram(((7, 7, 3, 3),), 2), LinkDiagram((), 3), TREFOIL_LH):
            again = parse_pd(render_pd(d))
            assert (again.crossings, again.loops) == (d.crossings, d.loops)


class TestPlanarity:
    def test_crossing_on_a_torus_rejected(self):
        # edge 1 and edge 2 each join opposite slots of the one crossing
        with pytest.raises(InputError, match=r"not planar: V - E \+ F = 0 over 1 connected"):
            parse_pd("X(1,2,1,2)")

    def test_split_diagram_checks_each_piece(self):
        planar = "X(1,1,2,2)\nO(5)\n"
        assert parse_pd(planar + "X(3,4,4,3)").n == 2
        with pytest.raises(InputError, match=r"= 2 over 2 connected piece\(s\), expected 4"):
            parse_pd(planar + "X(3,4,3,4)")

    def test_bundled_and_pretzel_codes_parse(self):
        for name in ("9_46.pd", "trefoil_lh.pd", "trefoil_rh.pd", "unknot.pd"):
            parse_pd(data_path(name).read_text())
        for twists in ([1, 1, 1], [2, 2], [3, -2], [-3, -3, 3], [2, -1, 2], [3, 3, 3, 3]):
            d = pretzel_pd(twists)
            assert parse_pd(render_pd(d)).crossings == d.crossings

    def test_accepted_random_codes_match_naive_oracle(self):
        # about three in four random codes are non-planar, and on those the
        # engine and the naive oracle disagree; every planar one must agree
        rng = random.Random(3)
        accepted = rejected = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            labels = [e for e in range(1, 2 * n + 1) for _ in (0, 1)]
            rng.shuffle(labels)
            text = "".join("X({},{},{},{})\n".format(*labels[4 * i:4 * i + 4]) for i in range(n))
            try:
                d = parse_pd(text)
            except InputError as exc:
                assert "not planar" in str(exc)
                rejected += 1
                continue
            accepted += 1
            assert kauffman_F(d) == naive_F(d), text
        assert accepted > 50 and rejected > 150


class TestRegularIsotopy:
    def test_unknot(self):
        assert regular_isotopy_polynomial(UNKNOT) == BiLaurent.constant(1)

    def test_kinks(self):
        assert regular_isotopy_polynomial(KINK_POS) == BiLaurent.a(-1)
        assert regular_isotopy_polynomial(KINK_NEG) == BiLaurent.a(1)

    def test_two_component_unlink(self):
        two = parse_pd("O(1)\nO(2)")
        assert regular_isotopy_polynomial(two) == delta_power(1)
        assert delta_power(1) == DELTA_NUMERATOR * BiLaurent.z(-1)

    def test_budget(self, monkeypatch):
        # the budget counts keyed diagrams, not crossings: 27 crossings,
        # above the 16-crossing cap the engine once had, evaluate
        assert regular_isotopy_polynomial(pretzel_pd([9, 9, -9])) == pretzel_lambda([9, 9, -9])
        # the torus knot T(4,5), the closure of (s1 s2 s3)^5: 15 crossings
        # and no kink or bigon, so the input is the largest keyed diagram
        monkeypatch.setattr(kauffman, "MAX_KEYS", 100)
        with pytest.raises(BudgetError, match="keyed 101 diagrams, more than 100; "
                                              "the largest had 15 crossings"):
            regular_isotopy_polynomial(braid_pd(4, [1, 2, 3] * 5))

    def test_budget_counts_this_evaluation_only(self, monkeypatch):
        # a memo may hold more entries than MAX_KEYS; only the diagrams
        # the evaluation itself keys count, up to the limit
        d = pretzel_pd([4, -3, 4])
        alone = {}
        lam = kauffman._lam(d, alone, [])
        shared = {}
        kauffman._lam(pretzel_pd([3, -5, 5]), shared, [])
        monkeypatch.setattr(kauffman, "MAX_KEYS", len(alone))
        assert kauffman._lam(d, shared, []) == lam == regular_isotopy_polynomial(d)
        assert len(shared) > kauffman.MAX_KEYS
        monkeypatch.setattr(kauffman, "MAX_KEYS", len(alone) - 1)
        with pytest.raises(BudgetError, match=f"keyed {len(alone)} diagrams"):
            regular_isotopy_polynomial(d)

    def test_skein_relation_at_nodes(self):
        rng = random.Random(51)
        for _ in range(100):
            d = random_diagram(rng)
            if not d.n:
                continue
            i = rng.randrange(d.n)
            lam = regular_isotopy_polynomial
            lhs = lam(d) + lam(switch_crossing(d, i))
            rhs = Z * (lam(smooth_crossing(d, i, 0)) + lam(smooth_crossing(d, i, 1)))
            assert lhs == rhs


class TestNormalizedF:
    def test_unknot_with_kinks(self):
        assert kauffman_F(UNKNOT) == BiLaurent.constant(1)
        assert kauffman_F(KINK_POS) == BiLaurent.constant(1)
        assert kauffman_F(KINK_NEG) == BiLaurent.constant(1)

    def test_trefoil_values(self):
        # frozen engine outputs, cross-checked against the plain
        # exponential oracle and the sharp tb bounds below
        F = kauffman_F(TREFOIL_LH)
        assert str(F) == (
            "a^-2*z^2 - 2*a^-2 + a^-3*z + a^-4*z^2 - a^-4 + a^-5*z"
        )
        assert F == naive_F(TREFOIL_LH)
        assert min_deg_a(F) == -5

    def test_mirror_property_trefoils(self):
        F = kauffman_F(TREFOIL_LH)
        assert kauffman_F(mirror(TREFOIL_LH)) == a_mirror(F)

    def test_mirror_property_946(self):
        d946 = parse_pd(data_path("9_46.pd").read_text())
        F = kauffman_F(d946)
        assert kauffman_F(mirror(d946)) == a_mirror(F)
        assert min_deg_a(F) == 0

    def test_oracle_agreement_corpus(self):
        rng = random.Random(52)
        diagrams = [UNKNOT, KINK_POS, KINK_NEG, TREFOIL_LH, mirror(TREFOIL_LH),
                    pretzel_pd([1, 1, 1, 1]), pretzel_pd([2, 2]),
                    pretzel_pd([3, -2]), pretzel_pd([2, -1, 2])]
        diagrams += [random_diagram(rng) for _ in range(12)]
        for d in diagrams:
            if d.n > 8:
                continue
            assert regular_isotopy_polynomial(d) == naive_lambda(d), render_pd(d)

    def test_z_exponents_nonnegative_for_knots(self):
        for name in ("trefoil_rh.pd", "trefoil_lh.pd", "9_46.pd"):
            F = kauffman_F(parse_pd(data_path(name).read_text()))
            assert min(ez for (_, ez) in F.terms) >= 0

    def test_negative_z_exponent_for_a_knot_raises(self, monkeypatch):
        monkeypatch.setattr(kauffman, "regular_isotopy_polynomial", lambda d: BiLaurent.z(-1))
        with pytest.raises(ArithmeticError, match="z-exponents >= 0"):
            kauffman_F(UNKNOT)

    def test_invariance_under_reidemeister_moves(self):
        # engine-level moves: switch+smooth identities already pin the
        # skein; here check the diagram-level reductions leave lam alone
        rng = random.Random(53)
        for _ in range(40):
            d = random_diagram(rng)
            lam = regular_isotopy_polynomial(d)
            red, unit = simplify(d)
            assert lam == unit * regular_isotopy_polynomial(red)
            # lam never depends on labels; F additionally needs an
            # orientation, so it is label-free only for knots
            assert regular_isotopy_polynomial(relabel(d, rng)) == lam
            if trace_diagram(d).components == 1:
                assert kauffman_F(relabel(d, rng)) == kauffman_F(d)

    def test_determinism(self):
        d = pretzel_pd([3, -2, 3])
        assert kauffman_F(d) == kauffman_F(d)

    def test_input_is_traced_once(self, monkeypatch):
        # writhe and component count come from one trace of the input;
        # every other trace is the skein recursion's own
        calls = []
        real = kauffman.trace_diagram
        monkeypatch.setattr(kauffman, "trace_diagram", lambda d: calls.append(d) or real(d))
        d = parse_pd(data_path("9_46.pd").read_text())
        regular_isotopy_polynomial(d)
        skein = len(calls)
        for evaluate in (kauffman_F, tb_upper_bound):
            calls.clear()
            evaluate(d)
            assert len(calls) == skein + 1
            assert calls[0] is d


class TestSimplify:
    def test_kinked_unknot_reduces(self):
        from diskfill.front import FrontWord, Move, apply_move
        from helpers import front_to_pd, stepped

        front = FrontWord((("L", 1), ("R", 1)))
        for _ in range(3):
            front = stepped(apply_move, front, Move("r1a+", 1, 1))
        d = front_to_pd(front)
        assert d.n == 3
        red, unit = simplify(d)
        assert red.n == 0 and red.loops == 1
        assert unit in (BiLaurent.a(3), BiLaurent.a(-3))

    def test_r2_pair_reduces(self):
        # switching one trefoil crossing makes an unknot diagram whose
        # bigon cancels; simplify must collapse it completely
        t = switch_crossing(TREFOIL_LH, 0)
        red, unit = simplify(t)
        assert red.n == 0 and red.loops == 1
        assert regular_isotopy_polynomial(t) == unit

    def test_strictly_reducing_or_identity(self):
        rng = random.Random(54)
        for _ in range(60):
            d = random_diagram(rng)
            red, _ = simplify(d)
            assert red.n <= d.n

    def test_matches_stepwise_simplify(self, keyed):
        # same order of removals and the same surviving labels, so the
        # very same PD code, loop count and unit
        rng = random.Random(59)
        corpus = keyed + [random_diagram(rng) for _ in range(60)]
        corpus += [KINK_POS, KINK_NEG, LinkDiagram(((7, 7, 3, 3),), 1), switch_crossing(TREFOIL_LH, 0)]
        for d in corpus:
            red, unit = simplify(d)
            old, old_unit = stepwise_simplify(d)
            assert (red.crossings, red.loops) == (old.crossings, old.loops), render_pd(d)
            assert unit == old_unit, render_pd(d)

    def test_every_two_crossing_code_matches_stepwise_simplify(self):
        # all planar codes on two crossings: bigons whose outer ends meet
        # each other or close up, kinks on both crossings, and loops
        codes = set(itertools.permutations((1, 1, 2, 2, 3, 3, 4, 4)))
        checked = 0
        for code in sorted(codes):
            try:
                d = parse_pd("X({},{},{},{})\nX({},{},{},{})\nO(9)".format(*code))
            except InputError:
                continue
            checked += 1
            red, unit = simplify(d)
            old, old_unit = stepwise_simplify(d)
            assert (red.crossings, red.loops, unit) == (old.crossings, old.loops, old_unit), code
        assert checked > 100

    def test_one_diagram_build_per_call(self, keyed, monkeypatch):
        builds = []
        real = LinkDiagram.__new__
        monkeypatch.setattr(LinkDiagram, "__new__",
                            lambda cls, *args: builds.append(real(cls, *args)) or builds[-1])
        reduced = 0
        for d in keyed:
            builds.clear()
            red, _ = simplify(d)
            if red is d:
                assert builds == []
            else:
                reduced += 1
                assert builds == [red]
        assert reduced > 50

    def test_irreducible_input_is_returned_itself(self, keyed):
        for d in keyed:
            red, unit = simplify(d)
            assert simplify(red) == (red, BiLaurent.constant(1))
            assert simplify(red)[0] is red
            if red.crossings == d.crossings:
                assert red is d and unit == 1


class TestSmoothing:
    def test_matches_union_find(self, keyed):
        # both smoothings of every crossing, label for label; a kink at the
        # smoothed crossing makes its two joins share a label, so the
        # second join must read the label the first renamed
        rng = random.Random(60)
        kinked = [LinkDiagram(crossings) for crossings in (
            ((1, 2, 2, 1),), ((1, 1, 2, 2),), ((1, 2, 2, 3), (3, 4, 4, 1)), ((1, 2, 3, 1), (2, 4, 4, 3)),
        )]
        for d in keyed + [random_diagram(rng) for _ in range(60)] + kinked:
            for i in range(d.n):
                for which in (0, 1):
                    new, old = smooth_crossing(d, i, which), union_find_smoothing(d, i, which)
                    assert (new.crossings, new.loops) == (old.crossings, old.loops), (render_pd(d), i, which)

    def test_joined_labels(self):
        # (a,b),(b,d) keeps a; (a,b),(c,a) keeps c; a self-join is a loop
        cases = [
            ((((1, 2, 2, 3), (3, 4, 4, 1)), 0), (((1, 4, 4, 1),), 0)),
            ((((1, 2, 3, 1), (2, 4, 4, 3)), 0), (((3, 4, 4, 3),), 0)),
            ((((1, 2, 2, 1),), 0), ((), 1)),
            ((((1, 1, 2, 2),), 1), ((), 3)),
        ]
        for (crossings, loops), expected in cases:
            smoothed = smooth_crossing(LinkDiagram(crossings, loops), 0, 0)
            assert (smoothed.crossings, smoothed.loops) == expected


@pytest.fixture(scope="module")
def recursion():
    """The diagrams the recursion keys, and the diagrams with crossings
    that ``simplify`` takes or returns, for knots and two-component links
    of 10-13 crossings."""
    keyed, simplified = [], []

    def recording_simplify(d):
        reduced, unit = simplify(d)
        if d.crossings:
            simplified.append(d)
        if reduced is not d and reduced.crossings:
            simplified.append(reduced)
        return reduced, unit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kauffman, "canonical_key", lambda d: keyed.append(d) or canonical_key(d))
        mp.setattr(kauffman, "simplify", recording_simplify)
        for twists in ([3, -5, 5], [-3, 3, 4], [3, 3, -5], [3, 4, -4], [4, -3, 4]):
            kauffman_F(pretzel_pd(twists))
    return keyed, simplified


@pytest.fixture(scope="module")
def keyed(recursion):
    """Every diagram with crossings that ``simplify`` takes or returns:
    the reducible diagrams the recursion meets as well as the reduced
    ones its memo keys."""
    diagrams = recursion[1]
    assert len(diagrams) > 300
    return diagrams


class TestRecursion:
    def test_keys_only_irreducible_diagrams(self, recursion):
        keyed = recursion[0]
        assert keyed
        for d in keyed:
            assert simplify(d)[0].crossings == d.crossings, render_pd(d)

    def test_matches_naive_oracle(self, keyed):
        # the unreduced oracle is exponential: up to 7 crossings it covers
        # 283 of the 372 diagrams in about 2 s, all of them in about 7 min
        memo = {}
        small = [d for d in keyed if d.n <= 7]
        assert len(small) > 250
        for d in small:
            assert regular_isotopy_polynomial(d) == naive_lambda(d, memo), render_pd(d)

    def test_descending_leaf_of_nonzero_writhe(self):
        # switching every target leaves a descending diagram that simplify
        # reduces to 7 crossings of writhe 1, not 0, so the leaf's factor
        # a^-writhe decides the value
        d = braid_pd(3, [1, 2, -1, -2, 2, -2, 1, -2, -1])
        while (target := trace_diagram(d).target) is not None:
            d = switch_crossing(d, target)
        reduced = simplify(d)[0]
        tr = trace_diagram(reduced)
        assert (reduced.n, tr.writhe, tr.components) == (7, 1, 2)
        assert regular_isotopy_polynomial(d) == naive_lambda(d)

    def test_946_key_count(self, monkeypatch):
        keys = []
        monkeypatch.setattr(kauffman, "canonical_key", lambda d: keys.append(d) or canonical_key(d))
        kauffman_F(parse_pd(data_path("9_46.pd").read_text()))
        assert len(keys) == 22

    @pytest.mark.parametrize("strands, word, keys, mirror_keys", [
        (3, [1, 2] * 7, 88, 142),  # T(3,7)
        (4, [1, 2, 3] * 5, 366, 780),  # T(4,5)
    ])
    def test_key_counts_on_both_mirrors(self, strands, word, keys, mirror_keys):
        # the shape of the recursion: a change to the switch rule or to the
        # trace order moves these counts, and the two mirrors differ
        d = braid_pd(strands, word)
        for diagram, expected in ((d, keys), (mirror(d), mirror_keys)):
            memo = {}
            kauffman._lam(diagram, memo, [])
            assert len(memo) == expected

    def test_one_trace_per_memo_miss(self, monkeypatch):
        # each newly keyed diagram is traced once, for the crossing to
        # switch or a descending leaf's value; F traces its input once more
        keys, traces = [], []
        monkeypatch.setattr(kauffman, "canonical_key", lambda d: keys.append(canonical_key(d)) or keys[-1])
        monkeypatch.setattr(kauffman, "trace_diagram", lambda d: traces.append(d) or trace_diagram(d))
        for d in (parse_pd(data_path("9_46.pd").read_text()), pretzel_pd([3, 4, -4]),
                  LinkDiagram(((1, 2, 3, 4), (4, 3, 2, 1)))):
            keys.clear()
            traces.clear()
            kauffman_F(d)
            assert len(traces) == len(set(keys)) + 1


class TestDartMap:
    def test_trace_matches_incidence_walk(self, keyed):
        # the target is the old rule: the least first visit among the
        # crossings first visited on the under strand
        for d in keyed:
            old = incidence_trace(d)
            assert trace_diagram(d) == DiagramTrace(old.components, old.writhe, old.target), render_pd(d)

    def test_far_pairs_the_two_ends_of_each_edge(self):
        d = pretzel_pd([3, 4, -4])
        assert len(d.far) == 4 * d.n
        for (ci, slot), (cj, t) in d.far.items():
            assert d.far[cj, t] == (ci, slot) != (cj, t)
            assert d.crossings[ci][slot] == d.crossings[cj][t]


class TestCanonicalKey:
    def test_relabel_invariance(self):
        rng = random.Random(55)
        for base in (TREFOIL_LH, pretzel_pd([2, 2]), pretzel_pd([3, -2]),
                     pretzel_pd([-3, -3, 3])):
            key = canonical_key(base)
            for _ in range(10):
                assert canonical_key(relabel(base, rng)) == key

    def test_split_diagrams(self):
        rng = random.Random(56)
        a = TREFOIL_LH
        b = relabel(pretzel_pd([2, 2]), random.Random(1))
        # disjoint union: shift labels of b
        shift = 1000
        both = LinkDiagram(
            a.crossings + tuple(tuple(e + shift for e in c) for c in b.crossings), 0
        )
        key = canonical_key(both)
        assert canonical_key(relabel(both, rng)) == key

    def test_distinguishes(self):
        assert canonical_key(TREFOIL_LH) != canonical_key(mirror(TREFOIL_LH))

    def test_same_partition_as_all_starts(self, keyed):
        # starting only at under-strand darts must identify exactly the
        # diagrams all four starts identify
        classes = {}
        for d in keyed:
            classes.setdefault(canonical_key(d), set()).add(all_starts_key(d))
        assert all(len(old) == 1 for old in classes.values())
        assert len(set().union(*classes.values())) == len(classes)

    def test_early_exit_keeps_the_least_code(self, keyed):
        # dropping a start at its first larger token must give the least
        # full token code of every under-strand start
        for d in keyed:
            assert canonical_key(d) == token_key(d), render_pd(d)

    def test_rotation_by_two_keeps_the_key(self, keyed):
        # a crossing tuple rotated by two slots is the same crossing
        rng = random.Random(58)
        for d in keyed:
            rotated = tuple(c[2:] + c[:2] if rng.random() < 0.5 else c for c in d.crossings)
            assert canonical_key(LinkDiagram(rotated, d.loops)) == canonical_key(d), render_pd(d)

    def test_two_traversals_per_crossing(self, monkeypatch):
        calls = []
        real = kauffman._piece_code
        monkeypatch.setattr(
            kauffman, "_piece_code", lambda *args: calls.append(args) or real(*args)
        )
        split = LinkDiagram(
            TREFOIL_LH.crossings
            + tuple(tuple(e + 1000 for e in c) for c in pretzel_pd([2, 2]).crossings),
            1,
        )
        for d in (TREFOIL_LH, pretzel_pd([3, -5, 5]), pretzel_pd([3, 4, -4]), split):
            calls.clear()
            canonical_key(d)
            assert len(calls) == 2 * d.n


class TestBound:
    def test_unknot(self):
        assert tb_upper_bound(UNKNOT) == -1

    def test_trefoils_sharp(self):
        assert tb_upper_bound(parse_pd(data_path("trefoil_rh.pd").read_text())) == 1
        assert tb_upper_bound(parse_pd(data_path("trefoil_lh.pd").read_text())) == -6

    def test_946_bound_consistent_with_filling(self):
        d = parse_pd(data_path("9_46.pd").read_text())
        assert tb_upper_bound(d) == -1
        assert tb_upper_bound(mirror(d)) == -7

    def test_multi_component_rejected(self):
        with pytest.raises(InputError):
            tb_upper_bound(parse_pd("O(1)\nO(2)"))


class TestMirrorInvolution:
    def test_double_mirror(self):
        # tuples come back rotated by two slots, which is the same
        # crossing; compare as diagrams
        rng = random.Random(57)
        for _ in range(30):
            d = random_diagram(rng)
            dd = mirror(mirror(d))
            assert tuple(c[2:] + c[:2] for c in dd.crossings) == d.crossings
            assert canonical_key(dd) == canonical_key(d)


class TestLargeDiagramOracles:
    """The engine at sizes the memo recursion handles but the plain
    exponential oracle cannot: pretzels against ``pretzel_lambda``, and
    the braid closures that are its hardest inputs."""

    def test_pretzel_oracle_matches_the_plain_oracle(self):
        rng = random.Random(60)
        for _ in range(20):
            twists = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            d = pretzel_pd(twists)
            assert pretzel_lambda(twists) == naive_lambda(d), twists

    def test_engine_matches_pretzel_oracle_at_25_to_45_crossings(self):
        rng = random.Random(61)
        components = set()
        for _ in range(10):
            regions = rng.randint(3, 5)
            total = rng.randint(25, 45)
            sizes = [1] * regions
            for _ in range(total - regions):
                sizes[rng.randrange(regions)] += 1
            twists = [rng.choice((-1, 1)) * k for k in sizes]
            d = pretzel_pd(twists)
            assert 25 <= d.n <= 45
            components.add(trace_diagram(d).components)
            assert regular_isotopy_polynomial(d) == pretzel_lambda(twists), twists
        assert 1 in components and len(components) > 1

    def test_braid_closures(self):
        # the closure of s1^3 is the right-handed trefoil, of writhe 3, and
        # the closure of s1^-k is the (2, k) torus diagram pretzel_pd([1] * k)
        rh = parse_pd(data_path("trefoil_rh.pd").read_text())
        for word, expected in (([1, 1, 1], kauffman_F(rh)), ([-1, -1, -1], kauffman_F(mirror(rh)))):
            d = braid_pd(2, word)
            assert trace_diagram(d).writhe == sum(1 if x > 0 else -1 for x in word)
            assert kauffman_F(d) == expected
        for k in (2, 4, 5, 6):
            lam = regular_isotopy_polynomial(braid_pd(2, [-1] * k))
            assert lam == regular_isotopy_polynomial(pretzel_pd([1] * k))
        # a braid closure draws in the plane, and a strand no letter
        # touches is a crossingless loop
        for strands, word in ((3, [1, -2] * 4), (4, [1, 2, 3] * 5), (3, [1, 1])):
            d = braid_pd(strands, word)
            assert parse_pd(render_pd(d)) == d
        assert braid_pd(3, [1, 1]).loops == 1
        with pytest.raises(ValueError):
            braid_pd(3, [3])
