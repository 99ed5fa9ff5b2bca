"""Command-line interface.

One command per invocation; exit codes are 0 (success), 1 (usage),
2 (input validation), 3 (budget exceeded), 4 (certificate or
verification failure).  ``--machine`` switches every command to stable
line-oriented ``key: value`` output whose polynomial values round-trip
through the parsers in this package.

Input paths are used as given when the file exists; otherwise a bare
file name is looked up among the bundled data files, so ``diskfill
alexander w22.pres`` works from anywhere.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import data_path
from .errors import BudgetError, CertificateError, DiskfillError, InputError
from .front import (
    check_certificate,
    classical_invariants,
    connect,
    orient,
    parse_certificate,
    parse_front,
    render_certificate,
    render_front,
)
from .fox import alexander_matrix, alexander_polynomial
from .groups import (
    MAX_SYMBOLS,
    check_finite_hom,
    exponent_matrix,
    h1,
    is_image_abelian,
    iter_homs,
    parse_presentation,
    parse_weights,
    parse_witness,
    render_cycles,
    smith_normal_form,
    z_surjection,
)
from .kauffman import kauffman_F, parse_pd, tb_upper_bound
from .laurent import min_deg_a, unit_equivalent

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
# CPython's default limit on the digits of an int it converts to text
MAX_PRINTED_DIGITS = 4300


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path):
    p = Path(path)
    if not p.is_file():
        try:
            p = data_path(path)
        except FileNotFoundError:
            raise InputError(f"no such file: {path}") from None
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _field(args, key, value, label=None):
    """Print one output line: ``key`` with ``--machine``, else ``label`` or ``key``."""
    print(f"{key if args.machine else label or key}: {value}")


def _weights_for(pf, map_spec):
    """The weight map to use; ``alexander_matrix`` checks that it kills
    every relator."""
    if map_spec is not None:
        return parse_weights(map_spec, pf.presentation.gens)
    if pf.maps:
        return pf.maps[0]
    return z_surjection(pf.presentation)


# -- commands -----------------------------------------------------------------

def cmd_alexander(args):
    pf = parse_presentation(_read(args.presentation))
    weights = _weights_for(pf, args.map)
    pres = pf.presentation
    # compute before printing, so a rejected input leaves stdout empty
    matrix = alexander_matrix(pres, weights)
    polynomial = alexander_polynomial(matrix)
    _field(args, "h1", h1(pres))
    _field(args, "map", " ".join(f"{g}={w}" for g, w in zip(pres.gens, weights)))
    for i, row in enumerate(matrix.entries, start=1):
        _field(args, f"matrix_row_{i}", "[" + ", ".join(str(e) for e in row) + "]")
    _field(args, "polynomial", polynomial, "alexander polynomial")
    return 0


def cmd_compare(args):
    polys = []
    for path in (args.presentation_a, args.presentation_b):
        pf = parse_presentation(_read(path))
        free_rank = h1(pf.presentation).free_rank
        if free_rank != 1:
            raise InputError(f"{path}: H1 free rank is {free_rank}, need 1")
        polys.append(alexander_polynomial(alexander_matrix(pf.presentation, _weights_for(pf, None))))
    _field(args, "polynomial_a", polys[0])
    _field(args, "polynomial_b", polys[1])
    allow = not args.units_only
    _field(args, "equivalence", "units and inversion" if allow else "units only")
    distinct = not unit_equivalent(polys[0], polys[1], allow_inversion=allow)
    _field(args, "verdict", "DISTINCT" if distinct else "INDISTINGUISHABLE")
    if distinct and not args.machine:
        print("the groups (and the disk exteriors) are not isomorphic")
    return 0


def cmd_tb(args):
    front = parse_front(_read(args.front))
    invariants = classical_invariants(orient(front))
    _field(args, "components", len(invariants))
    for i, (tb, rot) in enumerate(invariants, start=1):
        _field(args, f"tb_{i}", tb, f"tb (component {i})")
        _field(args, f"rot_{i}", rot, f"rot (component {i})")
    return 0


def cmd_check_filling(args):
    front = parse_front(_read(args.front))
    cert = parse_certificate(_read(args.certificate))
    report = check_certificate(front, cert)
    _field(args, "result", "ACCEPT")
    _field(args, "pinches", report.pinches)
    _field(args, "deaths", report.deaths)
    _field(args, "euler", report.euler, "euler characteristic")
    _field(args, "genus", report.genus if report.genus is not None else "undefined")
    _field(args, "tb", report.tb)
    _field(args, "tb_check", "ok" if report.tb_matches else "MISMATCH")
    if not report.tb_matches:
        raise CertificateError(
            f"tb {report.tb} != -euler {-report.euler}: front and surface disagree"
        )
    return 0


def cmd_connect(args):
    if len(args.fronts) < 2:
        raise UsageError("connect needs at least two fronts")
    if len(args.certs or ()) != len(args.fronts):
        raise UsageError("need exactly one certificate per front (--certs)")
    fronts = [parse_front(_read(p)) for p in args.fronts]
    certs = [parse_certificate(_read(p)) for p in args.certs]
    total, cert = connect(fronts, certs)
    report = check_certificate(total, cert)
    front_path = Path(args.out_front)
    cert_path = Path(args.out_cert)
    # both targets are checked before either is written, so that a bad one
    # leaves no half of the output behind
    for path in (front_path, cert_path):
        if path.is_dir() or not path.parent.is_dir():
            raise InputError(f"cannot write {path}: not a file in an existing directory")
    if front_path.resolve() == cert_path.resolve():
        raise InputError(f"--out-front {front_path} and --out-cert {cert_path} are one file")
    front_path.write_text(render_front(total, header="connected sum front"))
    cert_path.write_text(render_certificate(cert, header="composed filling certificate"))
    _field(args, "front", front_path)
    _field(args, "certificate", cert_path)
    _field(args, "tb", report.tb)
    _field(args, "euler", report.euler)
    _field(args, "result", "ACCEPT")
    return 0


def _bounded_pd(args):
    """The PD file's diagram, refused above the optional ``--budget-crossings``."""
    bound = args.budget_crossings
    if bound is not None and bound < 0:
        raise InputError(f"--budget-crossings must be at least 0, got {bound}")
    diagram = parse_pd(_read(args.pd))
    if bound is not None and diagram.n > bound:
        raise BudgetError(
            f"{diagram.n} crossings exceeds the budget of {bound}; "
            "raise it explicitly for larger diagrams"
        )
    return diagram


def cmd_kauffman(args):
    value = kauffman_F(_bounded_pd(args))
    _field(args, "polynomial", value, "kauffman polynomial F")
    if value:
        _field(args, "min_deg_a", min_deg_a(value))
    return 0


def cmd_tb_bound(args):
    _field(args, "bound", tb_upper_bound(_bounded_pd(args)), "tb upper bound")
    return 0


def cmd_homs(args):
    pres = parse_presentation(_read(args.presentation)).presentation
    if not 1 <= args.symbols <= MAX_SYMBOLS:
        raise InputError(f"symbol count {args.symbols} outside 1..{MAX_SYMBOLS}")
    if args.witness:
        images = parse_witness(_read(args.witness), pres.gens, args.symbols)
        ok = check_finite_hom(pres, images)
        _field(args, "witness_valid", "yes" if ok else "no")
        if ok:
            _field(args, "image_abelian", "yes" if is_image_abelian(images) else "no")
        return 0 if ok else EXIT_VERIFY
    count = 0
    witness = None
    for images in iter_homs(pres, args.symbols):
        count += 1
        if witness is None and not is_image_abelian(images):
            witness = images
    _field(args, "count", count)
    _field(args, "nonabelian_witness", "none" if witness is None else
           " ".join(f"{g}={render_cycles(p)}" for g, p in zip(pres.gens, witness)))
    return 0


def cmd_snf(args):
    matrix = exponent_matrix(parse_presentation(_read(args.presentation)).presentation)
    if not matrix:
        _field(args, "matrix", "empty")
        return 0
    d, u, v = smith_normal_form(matrix)
    # every row is rendered before any is printed, so a refusal leaves stdout
    # empty; sizes come from bit lengths and str() runs with the interpreter's
    # digit limit lifted, so that limit decides neither the refusal nor a row
    lines = []
    if limit := getattr(sys, "get_int_max_str_digits", lambda: 0)():  # 0: none to lift
        sys.set_int_max_str_digits(0)
    try:
        for name, rows in (("matrix", matrix), ("d", d), ("u", u), ("v", v)):
            top = max(abs(x) for row in rows for x in row)
            digits = int((top.bit_length() - 1) * math.log10(2)) + 1  # the count, or one short
            digits += top >= 10**digits
            if digits > MAX_PRINTED_DIGITS:
                raise BudgetError(f"an entry of {name} has {digits} decimal digits, past the "
                                  f"{MAX_PRINTED_DIGITS} that snf prints")
            lines += [(f"{name}_row_{i}", "[" + ", ".join(str(x) for x in row) + "]")
                      for i, row in enumerate(rows, start=1)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    for key, value in lines:
        _field(args, key, value)
    return 0


# -- wiring ---------------------------------------------------------------------

@functools.cache  # argparse parsers keep no state between parse_args calls
def _build_parser():
    parser = _Parser(prog="diskfill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--machine", action="store_true", help="key: value output")
        return p

    p = add("alexander", cmd_alexander, help="Alexander polynomial of a presentation")
    p.add_argument("presentation")
    p.add_argument("--map", help="weight map, e.g. x1=1,x2=-1,x3=1")

    p = add("compare", cmd_compare, help="compare two presentations' Alexander polynomials")
    p.add_argument("presentation_a")
    p.add_argument("presentation_b")
    p.add_argument(
        "--units-only", action="store_true",
        help="compare up to units +-t^k only, not also up to t -> t^-1",
    )

    p = add("tb", cmd_tb, help="Thurston-Bennequin and rotation numbers of a front")
    p.add_argument("front")

    p = add("check-filling", cmd_check_filling, help="replay a filling certificate")
    p.add_argument("front")
    p.add_argument("certificate")

    p = add("connect", cmd_connect, help="connected sum of fronts with composed certificate")
    p.add_argument("fronts", nargs="+")
    p.add_argument("--certs", nargs="+", required=True)
    p.add_argument("--out-front", default="connected.front")
    p.add_argument("--out-cert", default="connected.cert")

    p = add("kauffman", cmd_kauffman, help="Kauffman polynomial of a PD diagram")
    p.add_argument("pd")
    p.add_argument("--budget-crossings", type=int, metavar="N")

    p = add("tb-bound", cmd_tb_bound, help="Kauffman upper bound for tb")
    p.add_argument("pd")
    p.add_argument("--budget-crossings", type=int, metavar="N")

    p = add("homs", cmd_homs, help="count homomorphisms into a symmetric group")
    p.add_argument("presentation")
    p.add_argument("symbols", type=int)
    p.add_argument("--witness", help="file with one 'gen (cycles)' line per generator")

    p = add("snf", cmd_snf, help="Smith normal form of the exponent matrix")
    p.add_argument("presentation")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DiskfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
