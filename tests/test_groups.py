import itertools
import math
import random

import pytest

from diskfill import groups
from diskfill.errors import BudgetError, InputError
from diskfill.groups import (
    Presentation,
    check_finite_hom,
    exponent_matrix,
    free_reduce,
    h1,
    identity_perm,
    invariant_factors,
    is_image_abelian,
    iter_homs,
    parse_presentation,
    parse_weights,
    parse_witness,
    parse_word,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    render_cycles,
    smith_normal_form,
    validate_abelianization,
    z_surjection,
)

from helpers import (
    brute_homs,
    conjugate_relator,
    invert_relator,
    permute_relators,
    random_word,
    stabilize,
    walk_power,
)

W22_TEXT = """
gens: x1 x2 x3
rel: x1 x2 x1^-1 x2^-1 x1 x2
rel: x3 x2 x3^-1 x2^-1 x3 x2
map: x1=1 x2=-1 x3=1
"""

W12_TEXT = """
gens: x1 x2 x3
rel: x1 x2 x1^-1 x2^-1 x1 x2
rel: x3 x2^-1 x3^-1 x2 x3 x2^-1
map: x1=1 x2=-1 x3=-1
"""

BS12 = Presentation(("x", "y"), (free_reduce((-2, 1, 2, -1, -1)),))


def w22():
    return parse_presentation(W22_TEXT)


def w12():
    return parse_presentation(W12_TEXT)


class TestWords:
    def test_cancellation(self):
        assert free_reduce((1, 2) + (-2,)) == (1,)
        assert free_reduce((1, -1, 2, 2, -2)) == (2,)

    def test_reduce_idempotent_and_inverses(self):
        rng = random.Random(21)
        for _ in range(200):
            w = random_word(rng, 3, rng.randint(0, 12))
            assert free_reduce(w) == w
            assert free_reduce(w + tuple(-x for x in reversed(w))) == ()

    def test_parse_word(self):
        gens = ("x1", "x2")
        assert parse_word("x1 x2^-1 x1^2", gens) == (1, -2, 1, 1)
        with pytest.raises(InputError):
            parse_word("y", gens)

    def test_exponent_bound(self):
        # each power is stored letter by letter, so x^1000000 would make
        # every hom check and Fox derivative walk a million letters
        gens = ("x1", "x2")
        assert parse_word("x2^-1000", gens) == (-2,) * 1000
        with pytest.raises(InputError, match=r"exponent in 'x1\^1001' outside -1000..1000"):
            parse_word("x1^1001", gens)
        with pytest.raises(InputError, match="outside"):
            parse_word("x2 x1^-1000000", gens)


class TestPresentations:
    def test_parse_file_format(self):
        pf = w22()
        assert pf.presentation.gens == ("x1", "x2", "x3")
        assert len(pf.presentation.relators) == 2
        assert pf.maps == ((1, -1, 1),)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            parse_presentation("rel: x\n")
        with pytest.raises(InputError):
            parse_presentation("gens: x x\n")
        with pytest.raises(InputError):
            Presentation(("x",), ((2,),))
        with pytest.raises(InputError):
            parse_weights("x=1", ("x", "y"))
        with pytest.raises(InputError, match="outside -1000..1000"):
            parse_weights("x=-1001 y=0", ("x", "y"))
        assert parse_weights("x=-1000 y=1000", ("x", "y")) == (-1000, 1000)

    def test_exponent_matrix(self):
        assert exponent_matrix(w22().presentation) == [[1, 1, 0], [0, 1, 1]]
        assert exponent_matrix(BS12) == [[-1, 0]]
        assert exponent_matrix(Presentation(("x",), ())) == []


class TestSmithNormalForm:
    def check(self, m):
        d, u, v = smith_normal_form(m)
        rows, cols = len(m), len(m[0])
        # u m v == d
        prod = [
            [
                sum(u[i][k] * m[k][l] * v[l][j] for k in range(rows) for l in range(cols))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        assert prod == d
        assert abs(_int_det(u)) == 1
        assert abs(_int_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        return diag

    def test_examples(self):
        assert invariant_factors([[1, 1, 0], [0, 1, 1]]) == [1, 1]
        assert smith_normal_form([[1, 0], [0, 1]])[0] == [[1, 0], [0, 1]]
        assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_randomized(self):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors as sympy_factors

        rng = random.Random(22)
        for _ in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            self.check(m)
        # up to 6x6 over small entries with many common factors, where an
        # elimination that pivots on each remainder it meets can blow up
        entries = [0, 1, -1, 2, -2, 3, 4, 6, -5, 9, 12]
        for _ in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
            diag = self.check(m)
            expected = [abs(int(f)) for f in sympy_factors(Matrix(m), domain=ZZ) if f]
            assert [x for x in diag if x] == expected


def _int_det(m):
    # fraction-free Bareiss elimination on integers
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class TestH1:
    def test_examples(self):
        assert str(h1(w22().presentation)) == "Z"
        assert str(h1(w12().presentation)) == "Z"
        assert str(h1(BS12)) == "Z"
        assert h1(Presentation(("x", "y"), ())).free_rank == 2
        assert h1(Presentation(("x",), ((1, 1),))).torsion == (2,)

    def test_tietze_invariance(self):
        rng = random.Random(23)
        pres = w22().presentation
        reference = (h1(pres).free_rank, h1(pres).torsion)
        for _ in range(40):
            p = pres
            for _ in range(3):
                op = rng.randrange(3)
                i = rng.randrange(len(p.relators))
                if op == 0:
                    p = conjugate_relator(p, i, random_word(rng, p.rank, 3))
                elif op == 1:
                    p = invert_relator(p, i)
                else:
                    p = stabilize(p, random_word(rng, p.rank, 3), name=f"s{p.rank}")
            assert (h1(p).free_rank, h1(p).torsion) == reference


class TestAbelianizationMaps:
    def test_paper_maps_validate(self):
        assert validate_abelianization(w22().presentation, (1, -1, 1))
        assert validate_abelianization(w12().presentation, (1, -1, -1))
        assert not validate_abelianization(w22().presentation, (1, 1, 1))

    def test_bundled_maps_validate(self):
        for pf in (w22(), w12()):
            for m in pf.maps:
                assert validate_abelianization(pf.presentation, m)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            validate_abelianization(w22().presentation, (1, -1))

    def test_z_surjection(self):
        assert z_surjection(w22().presentation) == (1, -1, 1)
        assert z_surjection(Presentation(("x",), ())) == (1,)
        assert z_surjection(BS12) == (0, 1)
        with pytest.raises(InputError):
            z_surjection(Presentation(("x",), ((1, 1),)))  # free rank 0
        with pytest.raises(InputError):
            z_surjection(Presentation(("x", "y"), ()))  # free rank 2

    def test_z_surjection_takes_one_smith_normal_form(self, monkeypatch):
        real = groups.smith_normal_form
        calls = []

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(groups, "smith_normal_form", counting)
        for pres in (w22().presentation, w12().presentation, BS12, Presentation(("x",), ())):
            del calls[:]
            z_surjection(pres)
            assert len(calls) == 1
        for pres in (Presentation(("x",), ((1, 1),)), Presentation(("x", "y"), ()), Presentation((), ())):
            del calls[:]
            with pytest.raises(InputError, match="need exactly 1"):
                z_surjection(pres)
            assert len(calls) == 1

    def test_z_surjection_checks_raise(self, monkeypatch):
        # a unimodular change of basis never gives these maps, so fake one
        real = groups.smith_normal_form

        def scaled(m):
            d, u, v = real(m)
            return d, u, [[2 * x for x in row] for row in v]

        monkeypatch.setattr(groups, "smith_normal_form", scaled)
        with pytest.raises(ArithmeticError, match="non-primitive"):
            z_surjection(w22().presentation)
        monkeypatch.setattr(groups, "smith_normal_form", real)
        monkeypatch.setattr(groups, "validate_abelianization", lambda pres, w: False)
        with pytest.raises(ArithmeticError, match="misses a relator"):
            z_surjection(w22().presentation)


class TestFiniteQuotients:
    def test_affine_witness(self):
        c = perm_from_cycles("(1 2 3 4 5 6 7)", 7)
        m = tuple(((2 * (i + 1) - 1) - 1) % 7 for i in range(7))
        assert check_finite_hom(BS12, (c, m))
        assert not is_image_abelian((c, m))

    def test_identity_assignment(self):
        ident = identity_perm(5)
        assert check_finite_hom(BS12, (ident, ident))
        assert is_image_abelian((ident, ident))

    def test_image_abelian_compares_distinct_images_once(self):
        # 3,000 images are 4.5M pairs, but two distinct images are one
        a, b = perm_from_cycles("(1 2)", 5), perm_from_cycles("(3 4 5)", 5)
        assert is_image_abelian((a, b) * 1500)
        c = perm_from_cycles("(2 3)", 5)
        assert not is_image_abelian((a, b) * 1500 + (c,))

    def test_failing_assignment(self):
        swap = perm_from_cycles("(1 2)", 3)
        assert not check_finite_hom(BS12, (swap, swap))

    def test_perm_algebra(self):
        rng = random.Random(24)
        for _ in range(100):
            p = tuple(rng.sample(range(5), 5))
            q = tuple(rng.sample(range(5), 5))
            assert perm_mul(p, perm_inv(p)) == identity_perm(5)
            assert perm_mul(p, q)[0] == q[p[0]]

    def test_powers_match_the_cycle_walk_and_repeated_products(self):
        # every exponent path: p, p^-1, squares and cubes and their
        # inverses, the walk for the rest, and k = 0
        def products(p, ks):
            # p^k for each k in ks, multiplying by p or p^-1 one at a time
            found, top = {0: identity_perm(len(p))}, max(map(abs, ks))
            for sign, q in ((1, p), (-1, perm_inv(p))):
                acc = identity_perm(len(p))
                for m in range(1, top + 1):
                    acc = perm_mul(acc, q)
                    if sign * m in ks:
                        found[sign * m] = acc
            return found

        small = range(-40, 41)
        for n in range(1, 6):
            for p in itertools.permutations(range(n)):
                expected = products(p, small)
                for k in small:
                    assert groups._perm_power(p, k) == walk_power(p, k) == expected[k], (p, k)
        rng = random.Random(27)
        large = {s * k for k in (999, 2000, 30000) for s in (1, -1)}
        for n in (6, 7, 8):
            for _ in range(3):
                p = tuple(rng.sample(range(n), n))
                expected = products(p, large)
                for k in large:
                    assert groups._perm_power(p, k) == walk_power(p, k) == expected[k], (p, k)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(InputError):
            check_finite_hom(BS12, (identity_perm(3), identity_perm(4)))

    def test_non_permutation_image_rejected(self):
        with pytest.raises(InputError, match="not a permutation"):
            check_finite_hom(BS12, ((1, 2, 1), identity_perm(3)))

    def test_symbol_in_two_cycles_rejected(self):
        with pytest.raises(InputError, match="repeated symbol"):
            perm_from_cycles("(1 2)(2 3)", 3)
        assert perm_from_cycles("(1 2)(3)", 3) == (1, 0, 2)

    def test_cycles_round_trip(self):
        # each cycle starts at its least symbol and fixed points are left out
        assert render_cycles((1, 2, 0, 3, 5, 4)) == "(1 2 3)(5 6)"
        assert render_cycles(identity_perm(4)) == "()"
        for perm in itertools.permutations(range(5)):
            assert perm_from_cycles(render_cycles(perm), 5) == perm

    def test_witness_lines_in_any_order(self):
        text = "# y^-1 x y = x^2\ny (2 3)\nx (1 2 3)\n"
        assert parse_witness(text, ("x", "y"), 3) == (perm_from_cycles("(1 2 3)", 3),
                                                     perm_from_cycles("(2 3)", 3))
        with pytest.raises(InputError, match="witness missing generators: y"):
            parse_witness("x ()\n", ("x", "y"), 3)

    def test_counts(self):
        x_squared = Presentation(("x",), ((1, 1),))
        assert len(list(iter_homs(x_squared, 3))) == 4
        free2 = Presentation(("x", "y"), ())
        assert len(list(iter_homs(free2, 3))) == 36
        assert len(list(iter_homs(Presentation(("x",), ((1,),)), 4))) == 1

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 1000)
        with pytest.raises(BudgetError):
            list(iter_homs(Presentation(("x", "y", "z"), ()), 5))

    def test_budget_error_says_how_far_the_search_got(self, monkeypatch):
        # with no relators a node costs 3 steps in S3 and a hom 3 more: x
        # and y take their first image (6 steps), z all six (6 homs, 42
        # steps), y its second (45), and the limit trips at z, which the
        # search reached before
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 47)
        free3 = Presentation(("x", "y", "z"), ())
        with pytest.raises(BudgetError, match=r"stopped at 48 steps, past its limit of 47, and "
                                              r"found 6 homs; the deepest generator reached was "
                                              r"z \(3 of 3\)"):
            list(iter_homs(free3, 3))

    def test_budget_counts_symbol_steps(self, monkeypatch):
        # the relator x fails at every image of x but the identity, so the
        # search tries 120 images of x and then 120 of y, not 120^2 pairs:
        # 15 steps for each x (the image, its first power and one segment,
        # 5 symbols each), 5 for each y and 2 for each hom
        pres = Presentation(("x", "y"), ((1,),))
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 120 * 15 + 120 * 5 + 120 * 2)
        assert len(list(iter_homs(pres, 5))) == 120
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 2639)
        with pytest.raises(BudgetError, match="stopped at 2640 steps, past its limit of 2639"):
            list(iter_homs(pres, 5))

    def test_budget_charges_powers_of_two_and_three_like_any_other(self, monkeypatch):
        # y's runs y^2 and y^-3 make two segments, so in S3 an image of y
        # costs 3 steps for itself, 3 for each of its two exponents (it
        # follows symbols through the image and its inverse and takes no
        # power, but is charged as if it took both) and 3 for each segment;
        # an image of x costs 3 and then 2 * (3 + 32) for folding the two
        # stretches x and x^-1, and a hom 2.  With x the identity only
        # y = () survives, so x's first subtree costs 73 + 6 * 15 + 2 = 165,
        # and the next x and its first y reach 253
        pres = parse_presentation("gens: x y\nrel: y^2 x y^-3 x^-1\n").presentation
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 252)
        with pytest.raises(BudgetError, match=r"stopped at 253 steps, past its limit of 252, and "
                                              r"found 1 homs; the deepest generator reached was "
                                              r"y \(2 of 2\)"):
            list(iter_homs(pres, 3))
        # all six images of x cost 163 each and the six homs 2 each
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 6 * 163 + 6 * 2)
        assert len(list(iter_homs(pres, 3))) == 6
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 6 * 163 + 6 * 2 - 1)
        with pytest.raises(BudgetError, match="stopped at 990 steps, .* found 6 homs"):
            list(iter_homs(pres, 3))

    def test_budget_error_on_a_long_relator(self, monkeypatch):
        # every image of x and y has one z, and the relator's 40 lower runs
        # fold into one segment at z, each charged 5 + 32 steps: a y costs 5
        # and the fold, and the 120 images of z cost 15 each and the hom 3
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 1_000_000)
        pres = parse_presentation("gens: x y z\nrel: " + "x y " * 20 + "z\n").presentation
        fold = 37 * 40
        pair = 5 + fold + 120 * 15 + 3
        # 304 pairs finish, under three images of x, and the next fold trips
        steps = 3 * 5 + 304 * pair + 5 + fold
        assert steps == 1_001_052
        with pytest.raises(BudgetError, match=rf"stopped at {steps} steps, past its limit of "
                                              r"1000000, and found 304 homs; the deepest "
                                              r"generator reached was z \(3 of 3\)"):
            list(iter_homs(pres, 5))

    def test_budget_charges_each_segment_of_an_alternating_relator(self, monkeypatch):
        # z alternates with x 1000 times, so z's relator has 1000 segments
        # and 1001 lower runs; in S5 reaching z costs 5 steps for x, 5 for y
        # and (5 + 32) * 1001 for the fold, and each image of z costs 5 * 1002
        pres = parse_presentation("gens: x y z\nrel: " + "x z " * 1000 + "y\n").presentation
        fold, node = 5 + 5 + 37 * 1001, 5 * 1002
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", fold - 1)
        with pytest.raises(BudgetError, match=rf"stopped at {fold} steps, .* found 0 homs; the "
                                              r"deepest generator reached was y \(2 of 3\)"):
            list(iter_homs(pres, 5))
        # the identity at z is a hom, costing 3 steps, and the next image trips
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", fold + node + 3)
        with pytest.raises(BudgetError, match=rf"stopped at {fold + 2 * node + 3} steps, .* "
                                              r"found 1 homs; the deepest generator reached was "
                                              r"z \(3 of 3\)"):
            list(iter_homs(pres, 5))

    def test_budget_trips_at_ten_thousand_symbols(self):
        # an image of S10000 costs 10,000 steps, so the limit stops the
        # search after 1999 of its 10000! homs (not kept: each is 80 kB)
        with pytest.raises(BudgetError, match=r"into S10000 stopped at 20001999 steps, past its "
                                              r"limit of 20000000, and found 1999 homs"):
            for _ in iter_homs(Presentation(("x",), ()), 10_000):
                pass

    def test_budget_is_read_once_per_call(self, monkeypatch):
        # a search started under one limit keeps it to its end
        search = iter_homs(Presentation(("x", "y"), ((1,),)), 5)
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 2639)
        next(search)
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 10**9)
        with pytest.raises(BudgetError, match="stopped at 2640 steps"):
            list(search)

    def test_search_matches_brute_force_across_segment_boundaries(self):
        # z's two runs leave a stretch in the middle and one that wraps
        # round the relator's end, each mixing x and y, which do not
        # commute in S3 or S4: a search that multiplied a stretch in the
        # wrong order, dropped the wrapped part or followed one symbol only
        # would yield other homs.  The next two take squares and cubes and
        # their inverses, at a node and in a fold.  The top generator's runs
        # are all negative in the next two, so a node checks the inverted
        # relator: one takes y^5 as a power, and the other yields other homs
        # if the runs are negated but not reversed.  They have both signs in
        # the last two, so a node follows symbols through its image's
        # inverse, once, twice or three times
        for text, counts in (("gens: x y z\nrel: y x z y^-1 x^-1 z^2 x y\n", None),
                             ("gens: a b\nrel: a^2 b^-3\n", None),
                             ("gens: x y\nrel: x^2 y^-3 x^-3 y^2 x y\n", None),
                             ("gens: x y\nrel: x y^-2 x^2 y^-5\n", (6, 24)),
                             ("gens: x y z\nrel: x z^-1 y z^-2\n", None),
                             ("gens: x y\nrel: y x y^-3 x^-1 y^2\n", (24, 288)),
                             ("gens: x y\nrel: y^-2 x^-1 y x^2 y^-1 x\n", None)):
            pres = parse_presentation(text).presentation
            for i, n in enumerate((3, 4)):
                homs = list(iter_homs(pres, n))
                assert homs == list(brute_homs(pres, n))
                assert counts is None or len(homs) == counts[i]

    def test_count_tietze_invariance(self):
        rng = random.Random(25)
        base = len(list(iter_homs(BS12, 3)))
        for i in range(6):
            p = conjugate_relator(BS12, 0, random_word(rng, 2, 3))
            p = invert_relator(p, 0)
            p = stabilize(p, random_word(rng, 2, 2), name="s")
            assert len(list(iter_homs(p, 3))) == base

    def test_word_evaluation(self):
        c = perm_from_cycles("(1 2 3)", 3)
        assert check_finite_hom(Presentation(("x",), ((1, 1, 1),)), (c,))
        assert not check_finite_hom(Presentation(("x",), ((1, 1),)), (c,))

    def test_word_evaluation_matches_letter_by_letter(self):
        # runs of up to 13 letters, longer than any cycle of S5; a third
        # generator sent to the letter-by-letter product acc makes the
        # relator word z^-1 die exactly when the word evaluates to acc
        rng = random.Random(26)
        for _ in range(200):
            images = tuple(tuple(rng.sample(range(5), 5)) for _ in range(2))
            word = free_reduce(
                [g for _ in range(4) for g in [rng.choice((1, -1, 2, -2))] * rng.randint(1, 13)]
            )
            acc = identity_perm(5)
            for x in word:
                p = images[abs(x) - 1]
                acc = perm_mul(acc, p if x > 0 else perm_inv(p))
            pres = Presentation(("x", "y", "z"), (word + (-3,),))
            assert check_finite_hom(pres, images + (acc,))
            assert not check_finite_hom(pres, images + (perm_mul(acc, (1, 0, 2, 3, 4)),))

    def test_long_powers_cost_one_step_per_run(self):
        # S4 has exponent 12 and 1000 = 4 mod 12, so both presentations have
        # the same count; letter by letter the first walks 6,000 letters per
        # assignment, which took minutes
        big = parse_presentation(
            "gens: x y z\nrel: x^1000 y^-1000 z^1000 x^-1000 y^1000 z^-1000\n"
        ).presentation
        small = parse_presentation("gens: x y z\nrel: x^4 y^-4 z^4 x^-4 y^4 z^-4\n").presentation
        assert len(list(iter_homs(big, 4))) == len(list(iter_homs(small, 4)))

    def test_iter_homs_yields_witness(self):
        found = [
            images
            for images in iter_homs(BS12, 3)
            if not is_image_abelian(images)
        ]
        assert found  # BS(1,2) has non-abelian symmetric images already in S3

    def test_disk_exterior_counts_recorded(self):
        # frozen from the exhaustive enumeration: these quotients do NOT
        # separate the two disk-exterior groups
        for text in (W22_TEXT, W12_TEXT):
            pres = parse_presentation(text).presentation
            assert len(list(iter_homs(pres, 3))) == 30
            assert len(list(iter_homs(pres, 4))) == 168
