import random

import pytest

from diskfill import laurent
from diskfill.errors import BudgetError, InputError
from diskfill.laurent import (
    BiLaurent,
    IntLaurent,
    div_exact,
    laurent_gcd,
    min_deg_a,
    normalize_unit,
    substitute_inverse,
    unit_equivalent,
)

from helpers import a_mirror, evaluate, fraction_div_exact, random_bilaurent, random_laurent


def L(s):
    return IntLaurent.parse(s)


def B(s):
    return BiLaurent.parse(s)


class TestArithmetic:
    def test_schoolbook_square(self):
        assert L("2*t - 1") * L("2*t - 1") == L("4*t^2 - 4*t + 1")

    def test_unit_multiplication(self):
        assert L("2 - t^-1") * IntLaurent.t() == L("2*t - 1")

    def test_inverse_square_expansion(self):
        # frozen from direct expansion; cross-checked by evaluation below
        p = L("2 - t^-1")
        sq = p * p
        assert sq == L("4 - 4*t^-1 + t^-2")
        for x in (2, 3):
            assert evaluate(sq, x) == evaluate(p, x) ** 2

    def test_zero_and_equality(self):
        assert IntLaurent() == IntLaurent({3: 0})
        assert not IntLaurent()
        assert L("t") != L("t^-1")
        # equal values built different ways hash alike
        assert hash(IntLaurent({1: 2, 0: 0})) == hash(L("2*t"))
        assert hash(L("t + 1") - L("1")) == hash(IntLaurent.t())
        assert hash(B("a*z - a*z + z")) == hash(BiLaurent({(0, 1): 1, (2, 2): 0}))
        # a constant equals its int, so a set holds one of the two
        for kind in (IntLaurent, BiLaurent):
            for c in (0, 3, -1):
                assert len({kind.constant(c), c}) == 1
            assert len({kind(), 0}) == 1

    def test_parse_render_roundtrip(self):
        for s in ("0", "1", "-2*t + 1", "4*t^2 - 4*t + 1", "2 - t^-1", "t^3 - t^-3"):
            assert str(L(s)) == s
        assert L(" 4*t^2-4*t+1 ") == L("4*t^2 - 4*t + 1")
        assert L("2t - 1") == L("2*t - 1")  # optional *

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            L("4x + 1")
        with pytest.raises(InputError):
            B("a^2*b")

    def test_parse_rejects_a_sign_or_star_with_no_factor(self):
        for s in ("t -", "t +", "- - t", "3*", "t * - 3", "-"):
            with pytest.raises(InputError, match="no factor after it"):
                L(s)
        for s in ("a -", "+ + z", "a*z*"):
            with pytest.raises(InputError, match="no factor after it"):
                B(s)
        assert L("- t") == -IntLaurent.t() and L("+ 3*t") == L("3*t")

    def test_parse_rejects_a_star_with_no_factor_before_it(self):
        for s in ("* t", "*3"):
            with pytest.raises(InputError, match="no factor before it"):
                L(s)
        with pytest.raises(InputError, match="no factor before it"):
            B("* a")
        assert L("3*t") == L("3 t") == IntLaurent({1: 3})
        assert L("-t^-1") == IntLaurent({-1: -1})

    def test_ring_laws_randomized(self):
        rng = random.Random(7)
        for _ in range(120):
            p, q, r = (random_laurent(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p + (-p) == IntLaurent()

    def test_bilaurent_ring_laws_randomized(self):
        rng = random.Random(8)
        for _ in range(120):
            p, q, r = (random_bilaurent(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert (p * q) * r == p * (q * r)


class TestTwoNamedTypes:
    def test_types_never_mix(self):
        p, f = L("2*t - 1"), B("a + z")
        assert p != f and f != p
        assert L("1") != B("1")
        for op in (
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: x * y,
        ):
            with pytest.raises(TypeError):
                op(p, f)
            with pytest.raises(TypeError):
                op(f, p)

    def test_int_coercion_both_sides(self):
        cases = ((L("2*t - 1"), IntLaurent.constant(1)), (B("a - z"), BiLaurent.constant(1)))
        for p, one in cases:
            assert 3 - p == -p + 3 * one
            assert p - 3 == p + (-3) * one
            assert 2 * p == p * 2 == p + p
            assert 1 + p == p + 1
            assert p - p == 0 and 0 == p - p
            assert type(2 * p) is type(p)
        assert L("5") == 5 and B("-2") == -2

    def test_repr_keeps_class_name(self):
        assert repr(L("2*t - 1")) == "IntLaurent(2*t - 1)"
        assert repr(B("a + a^-2*z")) == "BiLaurent(a + a^-2*z)"
        assert repr(IntLaurent()) == "IntLaurent(0)"

    def test_bilaurent_power(self):
        f = B("a + z")
        assert f ** 0 == 1
        assert f ** 1 == f
        assert f ** 2 == B("a^2 + 2*a*z + z^2")
        assert f ** 3 == f * f * f
        assert BiLaurent.a(-1) ** 4 == BiLaurent.a(-4)
        with pytest.raises(ValueError):
            f ** -1


class TestNormalizeUnit:
    def test_golden_example(self):
        # 2 - t^-1 shifts to -1 + 2t whose constant term is negative,
        # so the canonical representative is 1 - 2t
        assert normalize_unit(L("2 - t^-1")) == L("-2*t + 1")

    def test_trivial_cases(self):
        assert normalize_unit(L("1")) == L("1")
        assert normalize_unit(L("-t^5")) == L("1")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_unit(IntLaurent())

    def test_idempotent_and_unit_invariant(self):
        rng = random.Random(9)
        seen = 0
        while seen < 100:
            p = random_laurent(rng)
            if not p:
                continue
            seen += 1
            n = normalize_unit(p)
            assert normalize_unit(n) == n
            for k in range(-3, 4):
                assert normalize_unit(p.shifted(k)) == n
                assert normalize_unit(-p.shifted(k)) == n


class TestUnitEquivalence:
    def test_unit_pair(self):
        assert unit_equivalent(L("2*t - 1"), L("2 - t^-1"))

    def test_inversion_flag(self):
        assert not unit_equivalent(L("2*t - 1"), L("2 - t"))
        assert unit_equivalent(L("2*t - 1"), L("2 - t"), allow_inversion=True)

    def test_headline_distinction(self):
        p = L("2 - t^-1")
        q = L("2 - t")
        assert not unit_equivalent(p * p, p * q)
        assert not unit_equivalent(p * p, p * q, allow_inversion=True)

    def test_zero_only_equals_zero(self):
        assert unit_equivalent(IntLaurent(), IntLaurent())
        assert not unit_equivalent(IntLaurent(), L("1"))

    def test_equivalence_relation(self):
        rng = random.Random(10)
        polys = [p for p in (random_laurent(rng) for _ in range(60)) if p]
        for p in polys:
            assert unit_equivalent(p, p)
        for p in polys[:30]:
            for q in polys[:30]:
                for flag in (False, True):
                    assert unit_equivalent(p, q, flag) == unit_equivalent(q, p, flag)
        # transitivity on unit orbits
        for p in polys[:25]:
            q = -p.shifted(2)
            r = p.shifted(-1)
            assert unit_equivalent(p, q) and unit_equivalent(q, r)
            assert unit_equivalent(p, r)


class TestGcd:
    def test_shared_factor(self):
        p = L("2 - t^-1")
        g = laurent_gcd(p * L("2*t - 1"), p * p)
        assert g == normalize_unit(L("2*t - 1") * L("2*t - 1"))
        assert div_exact(p * p, g) is not None

    def test_gcd_with_zero(self):
        p = L("2 - t^-1")
        assert laurent_gcd(p, IntLaurent()) == normalize_unit(p)
        with pytest.raises(ValueError):
            laurent_gcd(IntLaurent(), IntLaurent())

    def test_coprime(self):
        assert laurent_gcd(L("2*t - 1"), L("2 - t")) == L("1")
        import sympy

        t = sympy.Symbol("t")
        assert sympy.resultant(2 * t - 1, 2 - t, t) != 0

    def test_integer_content_counts(self):
        assert laurent_gcd(L("2*t"), L("4")) == L("2")

    def test_divides_both_and_unit_stability(self):
        rng = random.Random(11)
        done = 0
        while done < 100:
            p, q = random_laurent(rng, span=3, size=3), random_laurent(rng, span=3, size=3)
            if not p or not q:
                continue
            done += 1
            g = laurent_gcd(p, q)
            assert div_exact(p, g) is not None
            assert div_exact(q, g) is not None
            assert laurent_gcd(p.shifted(2), -q.shifted(-1)) == g

    def test_common_divisor_divides_gcd(self):
        rng = random.Random(12)
        for _ in range(100):
            d = random_laurent(rng, span=2, size=2)
            a = random_laurent(rng, span=2, size=2)
            b = random_laurent(rng, span=2, size=2)
            if not d or not a or not b:
                continue
            g = laurent_gcd(d * a, d * b)
            assert div_exact(g, d) is not None

    def test_matches_sympy(self):
        import sympy

        t = sympy.Symbol("t")

        def sympy_gcd(p, q):
            sp = sympy.gcd(
                sympy.Poly(
                    sum(c * t ** (e - p.min_exp()) for e, c in p.terms.items()), t
                ),
                sympy.Poly(
                    sum(c * t ** (e - q.min_exp()) for e, c in q.terms.items()), t
                ),
            )
            return IntLaurent({m[0]: int(c) for m, c in sp.terms()})

        # cases where the integer content of the gcd matters
        content_cases = [
            (L("6*t + 6"), L("4*t + 4"), L("2*t + 2")),
            (L("6*t^2 - 6"), L("-9*t - 9"), L("3*t + 3")),
            (L("4*t^2 + 8*t + 4"), L("6*t^-1 + 6"), L("2*t + 2")),
            (L("10"), L("4*t^3 - 6"), L("2")),
            (L("12*t - 6"), L("-8*t + 4"), L("4*t - 2")),
        ]
        for p, q, expected in content_cases:
            mine = laurent_gcd(p, q)
            assert mine == normalize_unit(expected), (str(p), str(q), str(mine))
            assert unit_equivalent(mine, sympy_gcd(p, q))
        rng = random.Random(13)
        done = 0
        while done < 60:
            p, q = random_laurent(rng, span=3, size=3), random_laurent(rng, span=3, size=3)
            if not p or not q:
                continue
            done += 1
            mine = laurent_gcd(p, q)
            theirs = sympy_gcd(p, q)
            assert unit_equivalent(mine, theirs), (str(mine), str(theirs))
        # shared factors with nontrivial content, so the primitive
        # pseudo-remainder sequence runs several steps
        rng = random.Random(15)
        done = 0
        while done < 40:
            d, a, b = (random_laurent(rng, span=2, size=3) for _ in range(3))
            if not d or not a or not b:
                continue
            done += 1
            p, q = d * a * rng.randint(1, 6), d * b * rng.randint(1, 6)
            mine = laurent_gcd(p, q)
            theirs = sympy_gcd(p, q)
            assert unit_equivalent(mine, theirs), (str(mine), str(theirs))


class TestDivExact:
    def test_matches_fraction_long_division(self):
        rng = random.Random(16)
        checked = {"exact": 0, "perturbed": 0}
        while min(checked.values()) < 80:
            p = random_laurent(rng, span=3, size=4)
            q = random_laurent(rng, span=3, size=3)
            if not q:
                continue
            prod = p * q
            perturbed = prod + random_laurent(rng, span=4, size=1, coeff=3)
            for kind, num in (("exact", prod), ("perturbed", perturbed)):
                got = div_exact(num, q)
                assert got == fraction_div_exact(num, q), (str(num), str(q))
                checked[kind] += 1
            assert div_exact(prod, q) == p

    def test_non_integral_rational_quotient(self):
        cases = [
            (L("t + 1"), L("2*t + 1")),
            (L("2*t + 1") * L("t + 1"), L("4*t + 2")),
            (L("3*t^2 + 3"), L("2*t^2 + 2")),
            (L("t^3 - 1"), L("2*t - 2")),
            (L("6*t^-1 + 3"), L("4*t + 2")),
        ]
        for p, q in cases:
            assert fraction_div_exact(p, q) is None, (str(p), str(q))
            assert div_exact(p, q) is None, (str(p), str(q))

    def test_non_monic_exact(self):
        p, q = L("2*t + 1") * L("-3*t^2 + t - 5"), L("-3*t^2 + t - 5")
        assert div_exact(p, q) == L("2*t + 1")
        assert div_exact(p.shifted(-4), q.shifted(2)) == L("2*t + 1").shifted(-6)

    def test_zero_and_short(self):
        assert div_exact(IntLaurent(), L("3*t + 1")) == IntLaurent()
        assert div_exact(L("3"), L("t + 1")) is None
        with pytest.raises(ZeroDivisionError):
            div_exact(L("t"), IntLaurent())

    def test_dense_span_refused_before_allocation(self, monkeypatch):
        # the span, not the term count, sizes the dense list, so t^1001 - 1
        # is refused at a limit of 1000 while t^1000 - 1 is divided
        monkeypatch.setattr(laurent, "MAX_DENSE_SPAN", 1000)
        assert div_exact(L("t^1000 - 1"), L("t - 1")) is not None
        with pytest.raises(BudgetError, match="a polynomial spans 1001 exponents"):
            div_exact(L("t^1001 - 1"), L("t - 1"))
        with pytest.raises(BudgetError, match="spans 1001"):
            laurent_gcd(L("t + 1"), L("t^-1 + t^1000"))


class TestSubstitutionsAndBiLaurent:
    def test_substitute_inverse(self):
        assert substitute_inverse(L("2 - t")) == L("2 - t^-1")

    def test_min_deg_a(self):
        assert min_deg_a(B("1")) == 0
        assert min_deg_a(B("a^-2*z + a")) == -2
        with pytest.raises(ValueError):
            min_deg_a(BiLaurent())

    def test_a_mirror(self):
        assert a_mirror(B("a^2*z + a^-1")) == B("a^-2*z + a")
        rng = random.Random(14)
        for _ in range(50):
            f = random_bilaurent(rng)
            assert a_mirror(a_mirror(f)) == f

    def test_bilaurent_parse_render(self):
        for s in ("0", "a + a^-2*z", "a*z^-1 - 1 + a^-1*z^-1"):
            assert str(B(s)) == s
