import math
import random
import time

import pytest

from diskfill import fox
from diskfill.errors import BudgetError, InputError
from diskfill.fox import alexander_matrix, alexander_polynomial, fox_row, laurent_det
from diskfill.groups import Presentation, free_reduce, parse_presentation
from diskfill.laurent import IntLaurent, div_exact, normalize_unit, substitute_inverse, unit_equivalent

from helpers import (
    abelianize_word,
    abelianized_fox,
    all_minors_gcd,
    conjugate_relator,
    fox_derivative,
    invert_relator,
    permute_relators,
    pretzel_pd,
    random_laurent,
    random_word,
    read_poly,
    ring_add,
    ring_mul,
    stabilize,
    stabilized_weights,
    wirtinger_presentation,
)
from test_groups import BS12, W12_TEXT, W22_TEXT


def L(s):
    return read_poly(IntLaurent, s)


R1 = free_reduce((1, 2, -1, -2, 1, 2))
R2 = free_reduce((3, 2, -3, -2, 3, 2))
R3 = free_reduce((3, -2, -3, 2, 3, -2))
ALPHA = (1, -1, 1)
BETA = (1, -1, -1)


class TestFoxDerivative:
    """The group-ring oracle in helpers, which fox_row is checked against."""

    def test_axioms(self):
        assert fox_derivative((1,), 1) == {(): 1}
        assert fox_derivative((-1,), 1) == {(-1,): -1}
        assert fox_derivative((2,), 1) == {}

    def test_r1_by_x1(self):
        # 1 - x1 x2 x1^-1 + x1 x2 x1^-1 x2^-1, straight from the Leibniz rule
        expected = {
            (): 1,
            (1, 2, -1): -1,
            (1, 2, -1, -2): 1,
        }
        assert fox_derivative(R1, 1) == expected

    def test_leibniz_rule_randomized(self):
        rng = random.Random(31)
        for _ in range(120):
            u = random_word(rng, 3, rng.randint(0, 7))
            v = random_word(rng, 3, rng.randint(0, 7))
            g = rng.randint(1, 3)
            lhs = fox_derivative(free_reduce(u + v), g)
            rhs = ring_add(
                fox_derivative(u, g), ring_mul({u: 1}, fox_derivative(v, g))
            )
            assert lhs == rhs

    def test_ring_helpers(self):
        a = {(1,): 2, (): -1}
        b = {(-1,): 1}
        assert ring_mul(a, b) == {(): 2, (-1,): -1}
        assert ring_mul(a, {}) == {}
        assert ring_add(a, {w: -c for w, c in a.items()}) == {}


def unreduced_word(rng, rank, length):
    """A random word with cancelling pairs x x^-1 and x^-1 x spliced in."""
    word = list(random_word(rng, rank, length))
    for _ in range(rng.randint(0, 3)):
        x = rng.choice([g for g in range(-rank, rank + 1) if g])
        i = rng.randint(0, len(word))
        word[i:i] = [x, -x]
    return tuple(word)


class TestFoxRow:
    def test_matches_the_group_ring_oracle(self):
        rng = random.Random(35)
        for _ in range(400):
            rank = rng.randint(1, 5)
            weights = tuple(rng.randint(-3, 3) for _ in range(rank))
            word = unreduced_word(rng, rank, rng.randint(0, 12))
            expected = tuple(abelianized_fox(word, g, weights) for g in range(1, rank + 1))
            assert fox_row(word, weights) == expected, (word, weights)

    def test_cancelling_pairs_contribute_nothing(self):
        for weights in ((1, -1), (3, 2), (0, 5)):
            assert fox_row((1, -1), weights) == (IntLaurent(), IntLaurent())
            assert fox_row((-2, 2), weights) == (IntLaurent(), IntLaurent())
            assert fox_row((1, 2, -2, -1, -1, 2), weights) == fox_row((-1, 2), weights)

    def test_inverse_letter_steps_back_first(self):
        # d(x^-1)/dx = -x^-1, which abelianizes to -t^-w, not -1
        assert fox_row((-1,), (2,)) == (L("-t^-2"),)
        assert fox_row((1, -2), (1, 3)) == (L("1"), L("-t^-2"))

    def test_product_rule(self):
        # d(uv) = d(u) + u d(v), so row(uv) = row(u) + t^[u] row(v)
        rng = random.Random(36)
        for _ in range(200):
            rank = rng.randint(1, 4)
            weights = tuple(rng.randint(-3, 3) for _ in range(rank))
            u = unreduced_word(rng, rank, rng.randint(0, 8))
            v = unreduced_word(rng, rank, rng.randint(0, 8))
            shift = IntLaurent.t(abelianize_word(u, weights))
            expected = tuple(a + shift * b for a, b in zip(fox_row(u, weights), fox_row(v, weights)))
            assert fox_row(u + v, weights) == expected

    def test_long_relator_is_one_walk(self):
        # 30,000 letters: quadratic prefix copies would take tens of seconds
        word = ((1,) * 1000 + (-2,) * 1000 + (3,) * 1000 + (-1,) * 1000 + (2,) * 1000 + (-3,) * 1000) * 5
        pres = Presentation(("x", "y", "z"), (word, (1, 2, -1, -3), (2, 1, -2, -3)))
        start = time.perf_counter()
        matrix = alexander_matrix(pres, (1, 1, 1))
        assert time.perf_counter() - start < 1.0
        assert matrix.entries[0] == (IntLaurent(),) * 3
        assert alexander_polynomial(matrix) == L("-2*t + 1")


class TestAbelianizedTable:
    def test_all_six_paper_values(self):
        r1a, r1b, r2a, r3b = (fox_row(R1, ALPHA), fox_row(R1, BETA),
                              fox_row(R2, ALPHA), fox_row(R3, BETA))
        assert r1a[0] == L("2 - t^-1")
        assert r1b[0] == L("2 - t^-1")
        assert r1a[1] == L("2*t - 1")
        assert r1b[1] == L("2*t - 1")
        assert r2a[1] == L("2*t - 1")
        assert r2a[2] == L("2 - t^-1")
        assert r3b[1] == L("-2 + t")
        assert r3b[2] == L("2 - t")

    def test_vanishing_entries(self):
        assert fox_row(R1, ALPHA)[2] == IntLaurent()
        assert fox_row(R2, ALPHA)[0] == IntLaurent()
        assert fox_row(R3, BETA)[0] == IntLaurent()

    def test_fundamental_identity_on_relators(self):
        for word, weights in ((R1, ALPHA), (R2, ALPHA), (R1, BETA), (R3, BETA)):
            total = IntLaurent()
            for entry, w in zip(fox_row(word, weights), weights):
                total = total + entry * (IntLaurent.t(w) - 1)
            assert total == IntLaurent()

    def test_fundamental_identity_on_arbitrary_words(self):
        # sum_j d_j(w) (t^wj - 1) telescopes to t^[w] - 1 for any word
        rng = random.Random(32)
        weights = (1, -1, 1)
        for _ in range(100):
            w = unreduced_word(rng, 3, rng.randint(0, 10))
            total = IntLaurent()
            for entry, wt in zip(fox_row(w, weights), weights):
                total = total + entry * (IntLaurent.t(wt) - 1)
            assert total == IntLaurent.t(abelianize_word(w, weights)) - 1


class TestAlexanderMatrix:
    def test_w22_display(self):
        pres = parse_presentation(W22_TEXT).presentation
        am = alexander_matrix(pres, ALPHA)
        assert [[str(e) for e in row] for row in am.entries] == [
            ["2 - t^-1", "2*t - 1", "0"],
            ["0", "2*t - 1", "2 - t^-1"],
        ]

    def test_w12_display(self):
        pres = parse_presentation(W12_TEXT).presentation
        am = alexander_matrix(pres, BETA)
        assert [[str(e) for e in row] for row in am.entries] == [
            ["2 - t^-1", "2*t - 1", "0"],
            ["0", "t - 2", "-t + 2"],
        ]

    def test_empty_matrix(self):
        pres = Presentation(("x", "y"), ())
        am = alexander_matrix(pres, (1, 1))
        assert am.entries == ()

    def test_invalid_map_rejected(self):
        pres = parse_presentation(W22_TEXT).presentation
        with pytest.raises(InputError):
            alexander_matrix(pres, (1, 1, 1))

    def test_weighted_column_sums_vanish(self):
        pres = parse_presentation(W22_TEXT).presentation
        am = alexander_matrix(pres, ALPHA)
        for row in am.entries:
            total = IntLaurent()
            for entry, w in zip(row, am.weights):
                total = total + entry * (IntLaurent.t(w) - 1)
            assert total == IntLaurent()


class TestLaurentDet:
    def test_small(self):
        one = IntLaurent.constant(1)
        t = IntLaurent.t()
        assert laurent_det([]) == one
        assert laurent_det([[t]]) == t
        assert laurent_det([[one, t], [t, one]]) == one - t * t

    def test_matches_sympy(self):
        import sympy

        x = sympy.Symbol("t")
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[random_laurent(rng, span=2, size=2) for _ in range(n)] for _ in range(n)]
            mine = laurent_det(rows)
            sym = sympy.Matrix(
                [
                    [
                        sum(c * x ** e for e, c in entry.terms.items())
                        for entry in row
                    ]
                    for row in rows
                ]
            ).det(method="berkowitz")
            mine_sym = sum(c * x ** e for e, c in mine.terms.items())
            assert sympy.expand(mine_sym - sym) == 0

    def test_inexact_bareiss_division_raises(self, monkeypatch):
        monkeypatch.setattr(fox, "div_exact", lambda p, q: None)
        t = IntLaurent.t()
        with pytest.raises(ArithmeticError):
            laurent_det([[t, t], [t, t + 1]])


class TestAlexanderPolynomial:
    def test_w22(self):
        pres = parse_presentation(W22_TEXT).presentation
        assert alexander_polynomial(alexander_matrix(pres, ALPHA)) == L("4*t^2 - 4*t + 1")

    def test_w12(self):
        pres = parse_presentation(W12_TEXT).presentation
        assert alexander_polynomial(alexander_matrix(pres, BETA)) == L("2*t^2 - 5*t + 2")

    def test_canonical_forms_square_vs_product(self):
        p = L("2 - t^-1")
        assert normalize_unit(p * p) == L("4*t^2 - 4*t + 1")
        assert normalize_unit(p * L("2 - t")) == L("2*t^2 - 5*t + 2")

    def test_single_relator_two_generators(self):
        pres = Presentation(("x", "y"), (((1,)),))
        pres = Presentation(("x", "y"), ((1,),))
        assert alexander_polynomial(alexander_matrix(pres, (0, 1))) == L("1")

    def test_too_few_relators(self):
        with pytest.raises(InputError):
            alexander_polynomial(alexander_matrix(Presentation(("x", "y", "z"), ((1, -2),)), (1, 1, 0)))

    def test_zero_ideal(self):
        pres = Presentation(("x", "y"), ((),))
        assert alexander_polynomial(alexander_matrix(pres, (1, 1))) == IntLaurent()

    def test_bs12(self):
        assert alexander_polynomial(alexander_matrix(BS12, (0, 1))) == L("-2*t + 1")

    def test_deficiency_handling_extra_relators(self):
        pres = parse_presentation(W22_TEXT).presentation
        extra = Presentation(pres.gens, pres.relators + (pres.relators[0],))
        assert alexander_polynomial(alexander_matrix(extra, ALPHA)) == L("4*t^2 - 4*t + 1")

    def test_tietze_invariance_up_to_units(self):
        rng = random.Random(34)
        pres = parse_presentation(W22_TEXT).presentation
        golden = alexander_polynomial(alexander_matrix(pres, ALPHA))
        for trial in range(100):
            p, w = pres, ALPHA
            for _ in range(2):
                op = rng.randrange(4)
                i = rng.randrange(len(p.relators))
                if op == 0:
                    p = conjugate_relator(p, i, random_word(rng, p.rank, 3))
                elif op == 1:
                    p = invert_relator(p, i)
                elif op == 2:
                    perm = list(range(len(p.relators)))
                    rng.shuffle(perm)
                    p = permute_relators(p, perm)
                else:
                    word = random_word(rng, p.rank, 3)
                    p, w = stabilize(p, word, name=f"s{p.rank}"), stabilized_weights(p, w, word)
            got = alexander_polynomial(alexander_matrix(p, w))
            assert unit_equivalent(got, golden), (trial, str(got))

    def test_negating_weights_inverts_t(self):
        pres = parse_presentation(W12_TEXT).presentation
        plus = alexander_polynomial(alexander_matrix(pres, BETA))
        minus = alexander_polynomial(alexander_matrix(pres, tuple(-w for w in BETA)))
        assert unit_equivalent(plus, minus, allow_inversion=True)
        assert unit_equivalent(plus, substitute_inverse(minus))


def torus_presentation(p, q):
    """<a, b | a^p b^-q> with weights (q, p), which kill the relator."""
    return Presentation(("a", "b"), ((1,) * p + (-2,) * q,)), (q, p)


def counting_det(monkeypatch):
    calls = []

    def det(rows):
        calls.append(len(rows))
        return laurent_det(rows)

    monkeypatch.setattr(fox, "laurent_det", det)
    return calls


def torus_variant(p, q, rank, seed):
    """T(p, q) stabilized to ``rank`` generators, no new weight ±1, then conjugated."""
    rng = random.Random(seed)
    pres, weights = torus_presentation(p, q)
    while pres.rank < rank:
        word = random_word(rng, pres.rank, 3)
        if abs(abelianize_word(word, weights)) == 1:
            continue
        pres, weights = (
            stabilize(pres, word, name=f"s{pres.rank}"),
            stabilized_weights(pres, weights, word),
        )
    i = rng.randrange(len(pres.relators))
    return conjugate_relator(pres, i, random_word(rng, pres.rank, 2)), weights


class TestOneMinorPerRowSubset:
    """The one-minor loop against the gcd of every (n-1)-minor."""

    def check(self, pres, weights):
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_det(mp)
            got = alexander_polynomial(alexander_matrix(pres, weights))
        assert got == all_minors_gcd(alexander_matrix(pres, weights)), str(got)
        # one (n-1)x(n-1) determinant per row subset, every subset unless
        # the gcd reached a unit, which happens exactly when the result is 1
        k = pres.rank - 1
        subsets = math.comb(len(pres.relators), k)
        assert calls == [k] * len(calls)
        assert len(calls) == subsets if got != 1 else 1 <= len(calls) <= subsets
        return got

    @pytest.mark.parametrize("twists", [(1, 1, 1), (-3, 1, 1), (3, -1, 3), (2, 3, -1), (2, 2)])
    def test_pretzel_wirtinger(self, twists):
        pres = wirtinger_presentation(pretzel_pd(list(twists)))
        weights = (1,) * pres.rank
        trimmed = Presentation(pres.gens, pres.relators[:-1])
        assert self.check(trimmed, weights) == self.check(pres, weights)

    def test_only_unit_is_minus_one(self):
        # trefoil group a^2 = b^3 plus c = a^-1 b: weights (3, 2, -1)
        pres, weights = torus_presentation(2, 3)
        word = (-1, 2)
        pres, weights = stabilize(pres, word, name="c"), stabilized_weights(pres, weights, word)
        assert weights == (3, 2, -1)
        assert self.check(pres, weights) == L("t^2 - t + 1")

    def test_zero_weight_column(self):
        pres = parse_presentation(W22_TEXT).presentation
        word = (1, 2)
        pres, weights = stabilize(pres, word), stabilized_weights(pres, ALPHA, word)
        assert weights[-1] == 0
        assert self.check(pres, weights) == L("4*t^2 - 4*t + 1")
        assert self.check(BS12, (0, 1)) == L("-2*t + 1")

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("scale", [1, 2, -3])
    def test_scaled_and_negated_maps(self, scale, sign):
        # a map that is not onto Z (scale != ±1) still has a well-defined
        # ideal; the exact division by t^|w_j0| - 1 must hold there too
        for text, weights in ((W22_TEXT, ALPHA), (W12_TEXT, BETA)):
            pres = parse_presentation(text).presentation
            self.check(pres, tuple(sign * scale * w for w in weights))
        self.check(BS12, (0, sign * scale))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (2, 5)])
    def test_torus_stabilizations_without_unit_weights(self, p, q, rank, sign):
        pres, weights = torus_variant(p, q, rank, seed=100 * p + 10 * q + rank)
        self.check(pres, tuple(sign * w for w in weights))

    def test_conjugated_redundant_relator(self, monkeypatch):
        # a conjugate of r1 abelianizes to a multiple of r1's row, so on the
        # row subset {r1, its conjugate} the unit-column minor vanishes
        pres = parse_presentation(W22_TEXT).presentation
        pres = Presentation(pres.gens, pres.relators + (pres.relators[0],))
        pres = conjugate_relator(pres, 2, (2, 3, 2))
        matrix = alexander_matrix(pres, ALPHA)
        assert laurent_det([[matrix.entries[i][j] for j in (1, 2)] for i in (0, 2)]) == IntLaurent()
        assert self.check(pres, ALPHA) == L("4*t^2 - 4*t + 1")
        calls = counting_det(monkeypatch)
        alexander_polynomial(alexander_matrix(pres, ALPHA))
        assert calls == [2, 2, 2]

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (2, 5), (3, 5)])
    def test_torus_groups_take_one_minor(self, p, q, monkeypatch):
        pres, weights = torus_presentation(p, q)
        calls = counting_det(monkeypatch)
        got = alexander_polynomial(alexander_matrix(pres, weights))
        assert calls == [1]  # one 1x1 minor for the one row, though no weight is ±1
        t = IntLaurent.t()
        expected = div_exact((t ** (p * q) - 1) * (t - 1), (t ** p - 1) * (t ** q - 1))
        assert got == normalize_unit(expected)
        assert got == all_minors_gcd(alexander_matrix(pres, weights))

    def test_torus_stabilization_with_three_relators(self, monkeypatch):
        # rank 3, weights (3, 2, 6), and a redundant relator: three row
        # subsets, one 2x2 minor each, none of them a unit
        pres, weights = torus_presentation(2, 3)
        pres, weights = stabilize(pres, (1, 1), name="c"), stabilized_weights(pres, weights, (1, 1))
        assert weights == (3, 2, 6)
        pres = Presentation(pres.gens, pres.relators + (pres.relators[0],))
        pres = conjugate_relator(pres, 2, (3, -2))
        calls = counting_det(monkeypatch)
        assert alexander_polynomial(alexander_matrix(pres, weights)) == L("t^2 - t + 1")
        assert calls == [2, 2, 2]

    def test_one_determinant_per_row_subset(self, monkeypatch):
        pres = wirtinger_presentation(pretzel_pd([3, -1, 3]))
        weights = (1,) * pres.rank
        calls = counting_det(monkeypatch)
        alexander_polynomial(alexander_matrix(Presentation(pres.gens, pres.relators[:-1]), weights))
        assert calls == [pres.rank - 1]
        del calls[:]
        alexander_polynomial(alexander_matrix(pres, weights))
        assert calls == [pres.rank - 1] * pres.rank

    def test_zero_map_is_rejected(self):
        pres = parse_presentation(W12_TEXT).presentation
        with pytest.raises(InputError, match="weight map is zero"):
            alexander_polynomial(alexander_matrix(pres, (0, 0, 0)))

    def test_inexact_final_division_raises(self, monkeypatch):
        monkeypatch.setattr(fox, "div_exact", lambda p, q: None)
        pres, weights = torus_presentation(2, 3)  # a 1x1 minor: no Bareiss division
        with pytest.raises(ArithmeticError, match="must divide"):
            alexander_polynomial(alexander_matrix(pres, weights))


def padded_pretzel_333(extra):
    """The Wirtinger presentation of P(3,3,3), 9 relators on 9 generators,
    plus ``extra`` relators: relator i mod 9 conjugated by one generator
    drawn by ``random.Random(1)``."""
    pres = wirtinger_presentation(pretzel_pd([3, 3, 3]))
    rng = random.Random(1)
    rels = list(pres.relators)
    for i in range(extra):
        g = rng.randint(1, pres.rank)
        rels.append(free_reduce((g,) + pres.relators[i % 9] + (-g,)))
    return Presentation(pres.gens, tuple(rels))


class TestDeterminantBudget:
    """Each 8x8 minor is charged its 7^2 + ... + 1^2 = 140 Bareiss entry
    updates before it is computed; one extra relator gives C(10, 8) = 45
    row subsets."""

    def polynomial(self, monkeypatch, limit):
        monkeypatch.setattr(fox, "MAX_DET_STEPS", limit)
        pres = padded_pretzel_333(1)
        return alexander_polynomial(alexander_matrix(pres, (1,) * pres.rank))

    def test_answers_at_its_exact_total(self, monkeypatch):
        calls = counting_det(monkeypatch)
        assert self.polynomial(monkeypatch, 45 * 140) == L("7*t^2 - 13*t + 7")
        assert calls == [8] * 45

    def test_trips_at_the_first_minor_past_the_limit(self, monkeypatch):
        calls = counting_det(monkeypatch)
        with pytest.raises(BudgetError) as exc:
            self.polynomial(monkeypatch, 45 * 140 - 1)
        assert str(exc.value) == (
            "alexander polynomial stopped at 6300 steps, past its limit of 6299, "
            "after 44 of the C(10, 8) = 45 row subsets of 8x8 minors"
        )
        assert calls == [8] * 44
        del calls[:]
        with pytest.raises(BudgetError, match="stopped at 840 steps, .* after 5 of"):
            self.polynomial(monkeypatch, 5 * 140 + 139)
        assert calls == [8] * 5

    def test_limit_is_read_once_per_call(self, monkeypatch):
        def det(rows):
            monkeypatch.setattr(fox, "MAX_DET_STEPS", 0)
            return laurent_det(rows)

        monkeypatch.setattr(fox, "laurent_det", det)
        assert self.polynomial(monkeypatch, 45 * 140) == L("7*t^2 - 13*t + 7")
