"""Acceptance suite: every criterion as one test with a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion PASS lines; each test pins its stated tolerance (exact string
equality for canonical polynomials, wall-clock limits where stated).
"""

import itertools
import random
import time

import pytest

from diskfill import data_path
from diskfill.cli import main
from diskfill.front import (
    check_certificate,
    classical_invariants,
    compose_certificates,
    connected_sum,
    orient,
    parse_certificate,
    parse_front,
)
from diskfill.fox import fox_row
from diskfill.groups import (
    check_finite_hom,
    free_reduce,
    h1,
    is_image_abelian,
    iter_homs,
    parse_presentation,
    perm_from_cycles,
    validate_abelianization,
)
from diskfill.kauffman import (
    LinkDiagram,
    kauffman_F,
    parse_pd,
    regular_isotopy_polynomial,
    smooth_crossing,
    switch_crossing,
    tb_upper_bound,
)
from diskfill.laurent import (
    BiLaurent,
    IntLaurent,
    div_exact,
    laurent_gcd,
    min_deg_a,
    normalize_unit,
    unit_equivalent,
)

from helpers import (
    a_mirror,
    conjugate_relator,
    fox_derivative,
    invert_relator,
    mirror,
    naive_lambda,
    random_laurent,
    random_move,
    random_word,
    read_poly,
    ring_add,
    ring_mul,
    stabilize,
    stabilized_weights,
)


def read(name):
    return data_path(name).read_text()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, {
        line.partition(": ")[0]: line.partition(": ")[2]
        for line in out.splitlines()
    }


def ok(message):
    print(f"PASS {message}")


def test_c1_alexander_reproduction(capsys):
    start = time.monotonic()
    code, values = run_cli(
        capsys, "alexander", "w22.pres", "--map", "x1=1,x2=-1,x3=1", "--machine"
    )
    assert code == 0
    assert values["polynomial"] == "4*t^2 - 4*t + 1"
    first = time.monotonic() - start
    start = time.monotonic()
    code, values = run_cli(
        capsys, "alexander", "w12.pres", "--map", "x1=1,x2=-1,x3=-1", "--machine"
    )
    assert code == 0
    assert values["polynomial"] == "2*t^2 - 5*t + 2"
    second = time.monotonic() - start
    assert first < 1.0 and second < 1.0
    ok(
        "criterion 1: canonical Alexander polynomials 4*t^2 - 4*t + 1 and "
        f"2*t^2 - 5*t + 2 reproduced in {first:.3f}s / {second:.3f}s"
    )


def test_c2_distinction(capsys):
    start = time.monotonic()
    code, values = run_cli(capsys, "compare", "w22.pres", "w12.pres", "--machine")
    elapsed = time.monotonic() - start
    assert code == 0
    assert values["verdict"] == "DISTINCT"
    assert elapsed < 1.0
    ok(f"criterion 2: compare reports DISTINCT under units and inversion in {elapsed:.3f}s")


def test_c3_fox_table():
    r1 = free_reduce((1, 2, -1, -2, 1, 2))
    r2 = free_reduce((3, 2, -3, -2, 3, 2))
    r3 = free_reduce((3, -2, -3, 2, 3, -2))
    alpha, beta = (1, -1, 1), (1, -1, -1)
    table = [
        (r1, 1, alpha, "2 - t^-1"),
        (r1, 1, beta, "2 - t^-1"),
        (r1, 2, alpha, "2*t - 1"),
        (r1, 2, beta, "2*t - 1"),
        (r2, 2, alpha, "2*t - 1"),
        (r2, 3, alpha, "2 - t^-1"),
        (r3, 2, beta, "-2 + t"),
        (r3, 3, beta, "2 - t"),
    ]
    for word, gen, weights, expected in table:
        assert fox_row(word, weights)[gen - 1] == read_poly(IntLaurent, expected)
    for word, weights in ((r1, alpha), (r2, alpha), (r1, beta), (r3, beta)):
        total = IntLaurent()
        for entry, w in zip(fox_row(word, weights), weights):
            total = total + entry * (IntLaurent.t(w) - 1)
        assert total == IntLaurent()
    ok("criterion 3: all displayed Fox derivatives match exactly; fundamental identity is 0")


def test_c4_abelianizations():
    for name, weights in (("w22.pres", (1, -1, 1)), ("w12.pres", (1, -1, -1)), ("bs12.pres", None)):
        pf = parse_presentation(read(name))
        summary = h1(pf.presentation)
        assert summary.free_rank == 1 and summary.torsion == ()
        if weights is not None:
            assert validate_abelianization(pf.presentation, weights)
    ok("criterion 4: H1 = Z for W22, W12 and BS(1,2); the two weight maps validate")


def test_c5_front_invariants():
    unknot = parse_front(read("unknot.front"))
    assert classical_invariants(orient(unknot)) == [(-1, 0)]
    nine = parse_front(read("9_46.front"))
    [(tb, rot)] = classical_invariants(orient(nine))
    assert tb == -1
    rng = random.Random(946)
    front = nine
    for _ in range(1000):
        _, front = random_move(rng, front)
    assert classical_invariants(orient(front)) == [(-1, rot)]
    ok("criterion 5: tb(unknot) = -1, rot 0; tb(9_46 front) = -1; invariant over 1000 rewrites")


def test_c6_filling_certificates():
    start = time.monotonic()
    nine = parse_front(read("9_46.front"))
    certs = {
        1: parse_certificate(read("d1.cert")),
        2: parse_certificate(read("d2.cert")),
    }
    for cert in certs.values():
        report = check_certificate(nine, cert)
        assert report.euler == 1 and report.tb_matches
    total_checked = 0
    for n in range(2, 5):
        for choice in itertools.product((1, 2), repeat=n):
            front, cert = nine, certs[choice[0]]
            for i in choice[1:]:
                cert = compose_certificates(front, cert, certs[i])
                front = connected_sum(front, nine)
            report = check_certificate(front, cert)
            assert report.euler == 1 and report.tb_matches
            total_checked += 1
    elapsed = time.monotonic() - start
    assert total_checked == 4 + 8 + 16
    assert elapsed < 10.0
    ok(
        f"criterion 6: both disk certificates and all {total_checked} composed "
        f"certificates replay with euler 1 in {elapsed:.2f}s"
    )


def test_c7_kauffman_engine():
    start = time.monotonic()
    assert kauffman_F(parse_pd(read("unknot.pd"))) == BiLaurent.constant(1)
    kinked = LinkDiagram(((7, 7, 3, 3),), 0)
    assert kauffman_F(kinked) == BiLaurent.constant(1)
    for name in ("trefoil_rh.pd", "trefoil_lh.pd", "9_46.pd"):
        d = parse_pd(read(name))
        assert kauffman_F(mirror(d)) == a_mirror(kauffman_F(d))
    corpus = [
        parse_pd(read("trefoil_rh.pd")),
        parse_pd(read("trefoil_lh.pd")),
        kinked,
        LinkDiagram(((3, 7, 7, 3),), 0),
    ]
    rng = random.Random(77)
    seed = parse_pd(read("9_46.pd"))
    for _ in range(8):
        d = seed
        while d.n > 8:
            d = smooth_crossing(d, rng.randrange(d.n), rng.randrange(2))
        corpus.append(d)
    memo = {}  # the corpus shares sub-diagrams of 9_46
    for d in corpus:
        assert d.n <= 8
        assert regular_isotopy_polynomial(d) == naive_lambda(d, memo)
    nine = parse_pd(read("9_46.pd"))
    assert min_deg_a(kauffman_F(nine)) >= 0
    assert tb_upper_bound(nine) >= -1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok(
        "criterion 7: F(unknots) = 1, mirror rule on trefoils and 9_46, "
        f"oracle agreement on {len(corpus)} diagrams, min_deg_a(F(9_46)) >= 0 "
        f"({elapsed:.2f}s)"
    )


def test_c7_optional_k_ak_regression():
    try:
        text = read("k_ak.pd")
    except FileNotFoundError:
        pytest.skip("k_ak.pd not supplied; drop a PD file into diskfill/data to enable")
    d = parse_pd(text)
    assert min_deg_a(kauffman_F(d)) == -1
    assert min_deg_a(kauffman_F(mirror(d))) == -8
    ok("criterion 7 (optional): user-supplied k_ak.pd has a-degrees -1 / -8")


def test_c8_finite_quotients():
    bs = parse_presentation(read("bs12.pres")).presentation
    cycle = perm_from_cycles("(1 2 3 4 5 6 7)", 7)
    double = tuple(((2 * (i + 1) - 1) - 1) % 7 for i in range(7))
    assert check_finite_hom(bs, (cycle, double))
    assert not is_image_abelian((cycle, double))
    rng = random.Random(88)
    for pres_name in ("w22.pres", "w12.pres", "bs12.pres"):
        pres = parse_presentation(read(pres_name)).presentation
        start = time.monotonic()
        counts = (len(list(iter_homs(pres, 3))), len(list(iter_homs(pres, 4))))
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        moved = conjugate_relator(pres, 0, random_word(rng, pres.rank, 3))
        moved = invert_relator(moved, 0)
        moved = stabilize(moved, random_word(rng, moved.rank, 2), name="s")
        assert (len(list(iter_homs(moved, 3))), len(list(iter_homs(moved, 4)))) == counts
    ok(
        "criterion 8: affine order-7 witness satisfies the relator with "
        "non-commuting images; S3/S4 counts finish under 5s and are Tietze-invariant"
    )


def test_c8_affine_quotients_separate_the_pair():
    # a witness of the headline that uses no Fox calculus: W22 and W12
    # have different numbers of maps into AGL(1,5), the maps x -> ax+b
    # mod 5, while S3 and S4 do not tell them apart
    affine = [tuple((a * x + b) % 5 for x in range(5)) for a in range(1, 5) for b in range(5)]
    assert len(set(affine)) == 20
    counts = {}
    start = time.monotonic()
    for pres_name in ("w22.pres", "w12.pres"):
        pres = parse_presentation(read(pres_name)).presentation
        counts[pres_name] = (
            sum(check_finite_hom(pres, images)
                for images in itertools.product(affine, repeat=pres.rank)),
            len(list(iter_homs(pres, 3))),
            len(list(iter_homs(pres, 4))),
        )
    elapsed = time.monotonic() - start
    assert counts == {"w22.pres": (140, 30, 168), "w12.pres": (60, 30, 168)}
    # nor does S5: 120^3 assignments each, within the search's node budget
    w22, w12 = (parse_presentation(read(name)).presentation for name in ("w22.pres", "w12.pres"))
    assert len(list(iter_homs(w22, 5))) == len(list(iter_homs(w12, 5))) == 1680
    ok(
        "criterion 8 (second witness): 140 vs 60 homomorphisms into AGL(1,5) "
        f"separate W22 and W12, which S3 (30/30), S4 (168/168) and S5 (1680/1680) "
        f"do not; AGL(1,5), S3 and S4 counts in {elapsed:.3f}s"
    )


def test_c9_property_suites():
    rng = random.Random(99)
    # Laurent ring laws
    for _ in range(100):
        p, q, r = (random_laurent(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r and (p * q) * r == p * (q * r)
    # gcd divisibility
    done = 0
    while done < 100:
        p, q = random_laurent(rng, span=3, size=3), random_laurent(rng, span=3, size=3)
        if not p or not q:
            continue
        done += 1
        g = laurent_gcd(p, q)
        assert div_exact(p, g) is not None and div_exact(q, g) is not None
    # normalize_unit idempotence
    done = 0
    while done < 100:
        p = random_laurent(rng)
        if not p:
            continue
        done += 1
        assert normalize_unit(normalize_unit(p)) == normalize_unit(p)
    # Fox Leibniz rule
    for _ in range(100):
        u = random_word(rng, 3, rng.randint(0, 6))
        v = random_word(rng, 3, rng.randint(0, 6))
        g = rng.randint(1, 3)
        assert fox_derivative(free_reduce(u + v), g) == ring_add(
            fox_derivative(u, g), ring_mul({u: 1}, fox_derivative(v, g))
        )
    # Alexander Tietze invariance up to units
    from diskfill.fox import alexander_matrix, alexander_polynomial

    w22 = parse_presentation(read("w22.pres"))
    golden = alexander_polynomial(alexander_matrix(w22.presentation, w22.maps[0]))
    for _ in range(100):
        p, w = w22.presentation, w22.maps[0]
        op = rng.randrange(3)
        i = rng.randrange(len(p.relators))
        if op == 0:
            p = conjugate_relator(p, i, random_word(rng, p.rank, 3))
        elif op == 1:
            p = invert_relator(p, i)
        else:
            word = random_word(rng, p.rank, 3)
            p, w = stabilize(p, word, name="s"), stabilized_weights(p, w, word)
        assert unit_equivalent(alexander_polynomial(alexander_matrix(p, w)), golden)
    # skein relation at recursion nodes
    z = BiLaurent.z(1)
    base = parse_pd(read("9_46.pd"))
    lam = regular_isotopy_polynomial
    for _ in range(100):
        d = base
        while d.n > 7:
            d = smooth_crossing(d, rng.randrange(d.n), rng.randrange(2))
        for _ in range(rng.randint(0, 3)):
            if d.n <= 4:
                break
            d = smooth_crossing(d, rng.randrange(d.n), rng.randrange(2))
        if not d.n:
            continue
        i = rng.randrange(d.n)
        assert lam(d) + lam(switch_crossing(d, i)) == z * (
            lam(smooth_crossing(d, i, 0)) + lam(smooth_crossing(d, i, 1))
        )
    ok("criterion 9: five property suites, 100 randomized cases each, zero failures")
