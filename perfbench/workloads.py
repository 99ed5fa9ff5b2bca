"""The four workloads: one round of checked ``diskfill`` operations each.

A round is a fixed list of operation kinds and sizes, so every seed and
every round gets the same mix, while the seed picks the concrete inputs
(twist counts and signs, Tietze moves, summand certificates, corrupted
steps).  About three fifths of each round are cheap operations and about
a fifth are the largest ones, so p50 and p90 fall inside groups of
similar operations rather than between them.  Each operation carries the
input properties that later optimizations depend on as tags, a
per-operation check, and optionally a family: operations of one family
must agree with each other (see ``relate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import checks as C
from . import inputs as I


@dataclass
class Op:
    argv: list
    check: Callable  # (stdout, stderr) -> value for the family; raises CheckError
    tags: dict
    family: str = None
    role: str = "value"
    rc: int = 0


@dataclass
class Round:
    ops: list = field(default_factory=list)
    directory: Path = None

    def write(self, name, text):
        path = self.directory / name
        path.write_text(text)
        return str(path)

    def add(self, *args, **kwargs):
        self.ops.append(Op(*args, **kwargs))


def _tags_for(pres, **extra):
    gens, relators, weights = pres
    tags = {"rank": len(gens), "relators": len(relators),
            "unit_weight": any(abs(w) == 1 for w in weights)}
    tags.update(extra)
    return tags


def _coprime_pair(rng, top):
    while True:
        p, q = sorted(rng.sample(range(2, top + 1), 2))
        if math.gcd(p, q) == 1:
            return p, q


def _add_redundant(rng, pres):
    """Append a conjugate of an existing relator (no change to the group)."""
    gens, relators, weights = pres
    i = rng.randrange(len(relators))
    copy = I.conjugate(pres, i, I.random_word(rng, len(gens), 2))[1][i]
    return gens, relators + (copy,), weights


# -- alexander ---------------------------------------------------------------------

def alexander_round(rng, rd):
    e22, e12 = C.parse_t(I.W22_ALEXANDER), C.parse_t(I.W12_ALEXANDER)

    def alexander(name, pres, expected=None, det=None, family=None, with_map=True, **tags):
        path = rd.write(name, I.render_presentation(pres, with_map))
        rd.add(["alexander", path, "--machine"],
               lambda out, err: C.check_alexander(out, pres, expected, det, with_map),
               _tags_for(pres, **tags), family)
        return path, expected

    def compare(a, b):
        rd.add(["compare", a[0], b[0], "--machine"],
               lambda out, err: C.check_compare(out, a[1], b[1]), {"pair": True})

    w22 = alexander("w22.pres", I.W22, e22)
    w12 = alexander("w12.pres", I.W12, e12)
    compare(w22, w12)

    # Tietze-stabilized and conjugated W22/W12, rank 4-9; without a map
    # line the program takes the weights from the Smith normal form
    variants = []
    for i, rank in enumerate((4, 4, 4, 4, 5, 5, 5, 5, 6, 7, 8, 9)):
        base, expected = rng.choice(((I.W22, e22), (I.W12, e12)))
        pres = I.tietze_variant(rng, base, rank)
        variants.append(alexander(f"tietze{i}.pres", pres, expected,
                                  with_map=rng.random() < 0.5))

    # torus-knot groups <a, b | a^p b^-q> with weights (q, p), never a
    # unit; stabilized copies keep it that way, the last one also has a
    # redundant relator
    tori = []
    for i, rank in enumerate((2,) * 8 + (3,) * 8 + (4,)):
        p, q = _coprime_pair(rng, 9)
        pres = I.tietze_variant(rng, I.torus_group(p, q), rank, avoid_unit=True)
        if rank == 4:
            pres = _add_redundant(rng, pres)
        expected = C.torus_alexander(p, q)
        tori.append(alexander(f"torus{i}.pres", pres, expected,
                              det=abs(C.evaluate(expected, -1))))
    for pool in (variants[:8], variants[:8], variants[:8], tori[:16], tori[:16]):
        compare(*rng.sample(pool, 2))

    # Wirtinger presentations of 3-strand pretzel knots with one relator
    # dropped; the 8- and 9-crossing ones are also given in full.  Odd
    # crossing numbers (three odd twist regions) vary least in cost.
    for i, crossings in enumerate((8, 9, 13, 13, 15, 15, 15, 15)):
        twists = I.random_pretzel(rng, crossings, 1)
        gens, relators, weights = I.wirtinger(I.pretzel_pd(twists))
        det = I.pretzel_determinant(twists)
        drop = rng.randrange(len(relators))
        trimmed = (gens, relators[:drop] + relators[drop + 1:], weights)
        family = f"pretzel{i}"
        alexander(f"{family}.pres", trimmed, det=det, family=family, crossings=crossings)
        if crossings < 10:
            shuffled = list(relators)
            rng.shuffle(shuffled)
            alexander(f"{family}-full.pres", (gens, tuple(shuffled), weights), det=det,
                      family=family, crossings=crossings)


# -- kauffman ------------------------------------------------------------------------

def _relabel(rng, crossings):
    labels = sorted({e for c in crossings for e in c})
    image = labels[:]
    rng.shuffle(image)
    new = dict(zip(labels, image))
    return tuple(tuple(new[e] for e in c) for c in crossings)


def kauffman_round(rng, rd):
    def diagram(name, pd, det, components, family, role, bound=None, tb=True):
        path = rd.write(name, I.render_pd(pd))
        budget = ["--budget-crossings", str(max(16, len(pd)))]
        tags = {"crossings": len(pd), "components": components}
        rd.add(["kauffman", path, "--machine"] + budget,
               lambda out, err: C.check_kauffman(out, det, components), tags, family, role)
        if tb:
            rd.add(["tb-bound", path, "--machine"] + budget,
                   lambda out, err: C.check_tb_bound(out, bound), tags, family, "tb" + role[1:])

    diagram("946.pd", I.PD_946, 9, 1, "946", "F", -1)
    diagram("946m.pd", I.mirror_pd(I.PD_946), 9, 1, "946", "Fm", -7)
    diagram("trefoil_rh.pd", I.PD_TREFOIL_RH, 3, 1, "trefoil", "F", 1)
    diagram("trefoil_lh.pd", I.PD_TREFOIL_LH, 3, 1, "trefoil", "Fm", -6)

    # pretzel knots (3 twist regions) and two-component links, each with
    # its relabelled mirror; knots get one tb bound, on a random side.
    # Twist regions of similar size keep the cost of a size steady across
    # sign patterns.
    for crossings, components in ((8, 1), (8, 1), (8, 1), (9, 1), (9, 1), (10, 1),
                                  (10, 2), (11, 2), (13, 1), (13, 1), (13, 1), (13, 1)):
        strands = 3 if components == 1 or crossings % 2 else 4
        twists = I.random_pretzel(rng, crossings, components, strands, balanced=True)
        pd = I.pretzel_pd(twists)
        det = I.pretzel_determinant(twists)
        family = f"{'knot' if components == 1 else 'link'}{len(rd.ops)}"
        bounded = rng.randrange(2) if components == 1 else None
        diagram(f"{family}.pd", pd, det, components, family, "F", tb=bounded == 0)
        diagram(f"{family}m.pd", _relabel(rng, I.mirror_pd(pd)), det, components, family,
                "Fm", tb=bounded == 1)
    # one larger knot, above the default crossing budget
    twists = I.random_pretzel(rng, 17, 1, balanced=True)
    det = I.pretzel_determinant(twists)
    rd.add(["kauffman", rd.write("large.pd", I.render_pd(I.pretzel_pd(twists))),
            "--budget-crossings", "17", "--machine"],
           lambda out, err: C.check_kauffman(out, det, 1), {"crossings": 17, "components": 1})


# -- fillings --------------------------------------------------------------------------

def fillings_round(rng, rd):
    summand_files = {}
    for name, (events, steps, pinches, deaths) in I.SUMMANDS.items():
        front = rd.write(f"{name}.front", I.render_front(events))
        cert = rd.write(f"{name}.cert", I.render_certificate(steps, (pinches, deaths)))
        summand_files[name] = (front, cert)

    def summands(n):
        return [rng.choices(("d1", "d2", "unknot"), (45, 45, 10))[0] for _ in range(n)]

    def tags(names, outcome):
        return {"summands": len(names), "outcome": outcome}

    # accepted certificates of L_n, and tb of each front
    for i, n in enumerate((2, 3, 4, 5, 8, 12, 30, 32, 34)):
        names = summands(n)
        events, steps, pinches, deaths = I.connected_sum(names)
        front = rd.write(f"sum{i}.front", I.render_front(events))
        cert = rd.write(f"sum{i}.cert", I.render_certificate(steps, (pinches, deaths)))
        rd.add(["check-filling", front, cert, "--machine"],
               lambda out, err, p=pinches, d=deaths: C.check_accept(out, p, d),
               tags(names, "accept"))
        rd.add(["tb", front, "--machine"], lambda out, err: C.check_tb(out),
               tags(names, "accept"))

    # corrupted certificates, rejected with exit code 4 at the stated
    # step; the large ones fail where their replay costs about as much as
    # accepting L_32
    kinds = list(I.CORRUPTIONS)
    rng.shuffle(kinds)
    kinds += [rng.choice(("truncated", "expect")), rng.choice(list(I.CORRUPTIONS))]
    for i, (n, kind) in enumerate(zip((3, 4, 6, 40, 44, 64), kinds)):
        names = summands(n)
        events, steps, pinches, deaths = I.connected_sum(names)
        expect = (pinches, deaths)
        step, reason = None, None
        if kind == "truncated":
            steps, reason = steps[:-1], "non-empty final word"
        elif kind == "expect":
            expect, reason = (pinches + 1, deaths + 1), "declared surface"
        elif n < 10:
            step = rng.randrange(len(steps))
        elif n < 50:
            step = rng.randint(35 * len(steps) // 100, 45 * len(steps) // 100)
        else:
            step = rng.randint(8 * len(steps) // 100, 12 * len(steps) // 100)
        if step is not None:
            steps = steps[:step] + [I.CORRUPTIONS[kind]] + steps[step + 1:]
        front = rd.write(f"bad{i}.front", I.render_front(events))
        cert = rd.write(f"bad{i}.cert", I.render_certificate(steps, expect))
        rd.add(["check-filling", front, cert, "--machine"],
               lambda out, err, s=step, r=reason: C.check_reject(err, s, r),
               tags(names, "reject"), rc=4)
        rd.add(["tb", front, "--machine"], lambda out, err: C.check_tb(out),
               tags(names, "accept"))

    # connect builds and replays the composed certificate itself
    for i, n in enumerate((2, 3, 7)):
        names = summands(n)
        events, steps, pinches, deaths = I.connected_sum(names)
        out_front = str(rd.directory / f"connect{i}.front")
        out_cert = str(rd.directory / f"connect{i}.cert")
        argv = (["connect"] + [summand_files[s][0] for s in names]
                + ["--certs"] + [summand_files[s][1] for s in names]
                + ["--out-front", out_front, "--out-cert", out_cert, "--machine"])
        rd.add(argv,
               lambda out, err, a=(out_front, out_cert, events, steps, pinches, deaths):
               C.check_connect(out, *a),
               tags(names, "accept"))


# -- quotients ---------------------------------------------------------------------------

def quotients_round(rng, rd):
    counts = {"w22": {3: 30, 4: 168}, "w12": {3: 30, 4: 168}, "bs12": {3: 12, 4: 48}}
    bases = {"w22": I.W22, "w12": I.W12, "bs12": I.BS12}

    def homs(name, pres, n, count):
        path = rd.write(name, I.render_presentation(pres))
        rd.add(["homs", path, str(n), "--machine"],
               lambda out, err: C.check_homs(out, pres, n, count),
               _tags_for(pres, symbols=n))

    def torus(top):
        p, q = _coprime_pair(rng, top)
        return I.torus_group(p, q), {n: C.torus_hom_count(p, q, n) for n in (3, 4, 5)}

    def base(names):
        name = rng.choice(names)
        return torus(7) if name == "torus" else (bases[name], counts[name])

    for name in ("w22", "w12", "bs12"):
        homs(f"{name}-S3.pres", bases[name], 3, counts[name][3])
    homs("bs12-S4.pres", I.BS12, 4, 48)

    # S3 on Tietze variants of rank 2-6
    for i, rank in enumerate((2, 3, 3, 4, 4, 5, 6)):
        pres, count = base(("w22", "w12", "bs12", "torus"))
        pres = I.tietze_variant(rng, pres, max(rank, len(pres[0])))
        homs(f"s3-{i}.pres", pres, 3, count[3])
    # S4 on conjugated rank-2 BS(1,2) and torus groups
    for i, names in enumerate((("bs12",), ("torus",))):
        pres, count = base(names)
        homs(f"s4-{i}.pres", I.tietze_variant(rng, pres, 2), 4, count[4])
    # the largest searches, of similar cost: S4 on rank-3 W22/W12 and S5 on
    # the trefoil group, relators inverted and reordered but not conjugated
    for i in range(4):
        name = rng.choice(("w22", "w12"))
        homs(f"s4-{name}{i}.pres", I.tietze_variant(rng, bases[name], 3, conjugations=0),
             4, counts[name][4])
    for i in range(2):
        homs(f"s5-{i}.pres", I.tietze_variant(rng, I.torus_group(2, 3), 2, conjugations=0),
             5, C.torus_hom_count(2, 3, 5))

    # Smith normal form of Tietze variants, rank 3-9
    for i, rank in enumerate((3, 3, 4, 4, 5, 5, 6, 7, 8, 9)):
        pres = base(("w22", "w12", "bs12", "torus"))[0]
        pres = I.tietze_variant(rng, pres, max(rank, len(pres[0])))
        matrix = I.exponent_matrix(pres)
        path = rd.write(f"snf{i}.pres", I.render_presentation(pres))
        rd.add(["snf", path, "--machine"],
               lambda out, err, m=matrix, r=len(pres[0]) - 1: C.check_snf(out, m, r),
               _tags_for(pres))


BUILDERS = {
    "alexander": alexander_round,
    "kauffman": kauffman_round,
    "fillings": fillings_round,
    "quotients": quotients_round,
}


# -- relations between operations ---------------------------------------------------------

def relate(family, values):
    """Check one family's values, given as {role: [value, ...]}.

    Repeated executions of one role must agree.  Alexander families have
    the single role ``value``.  Kauffman families relate F of a diagram,
    Fm of its mirror and the tb bounds of each: Fm = a_mirror(F) and
    bound = min_deg_a - 1.  For links F depends on the orientation the
    program traces, which changes the writhe by multiples of 4, so there
    Fm = a^(4k) a_mirror(F) for some k.
    """
    for role, vs in values.items():
        C.expect(all(v == vs[0] for v in vs), f"repeated {role} values disagree")
    first = {role: vs[0] for role, vs in values.items()}
    if "F" in first and "Fm" in first:
        mirrored = C.a_mirror(first["F"])
        shift = 0
        if family.startswith("link"):
            shift = min(ea for ea, _ in first["Fm"]) - min(ea for ea, _ in mirrored)
            C.expect(shift % 4 == 0, f"mirror differs by a^{shift}")
        mirrored = {(ea + shift, ez): c for (ea, ez), c in mirrored.items()}
        C.expect(first["Fm"] == mirrored, "F(mirror D) != a_mirror(F(D))")
    for poly, bound in (("F", "tb"), ("Fm", "tbm")):
        if poly in first and bound in first:
            C.expect(first[bound] == min(ea for ea, _ in first[poly]) - 1,
                     "tb bound differs from min_deg_a(F) - 1")
