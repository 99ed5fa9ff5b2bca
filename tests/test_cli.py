import sys

import pytest

from diskfill import cli, data_path, fox, groups, kauffman
from diskfill.cli import main
from diskfill.front import parse_certificate, parse_front
from diskfill.groups import MAX_SYMBOLS, parse_presentation
from diskfill.kauffman import parse_pd, render_pd, trace_diagram
from diskfill.laurent import BiLaurent, IntLaurent

from helpers import a_mirror, braid_pd, brute_homs, pretzel_lambda, pretzel_pd, read_poly, run_child


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_dict(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


class TestAlexanderCommands:
    def test_alexander_w22(self, capsys):
        code, out, _ = run(capsys, "alexander", "w22.pres", "--map", "x1=1,x2=-1,x3=1", "--machine")
        assert code == 0
        values = machine_dict(out)
        assert values["polynomial"] == "4*t^2 - 4*t + 1"
        assert values["h1"] == "Z"

    def test_alexander_w12(self, capsys):
        code, out, _ = run(capsys, "alexander", "w12.pres", "--map", "x1=1,x2=-1,x3=-1", "--machine")
        assert code == 0
        assert machine_dict(out)["polynomial"] == "2*t^2 - 5*t + 2"

    def test_alexander_auto_map_matches_explicit(self, capsys):
        _, out_auto, _ = run(capsys, "alexander", "w22.pres", "--machine")
        _, out_map, _ = run(capsys, "alexander", "w22.pres", "--map", "x1=1,x2=-1,x3=1", "--machine")
        from diskfill.laurent import unit_equivalent

        a = read_poly(IntLaurent, machine_dict(out_auto)["polynomial"])
        b = read_poly(IntLaurent, machine_dict(out_map)["polynomial"])
        assert unit_equivalent(a, b, allow_inversion=True)

    def test_alexander_builds_one_matrix(self, capsys, monkeypatch):
        # the printed rows are those of the matrix the polynomial came from
        built = []
        real = fox.alexander_matrix

        def counting(pres, weights):
            built.append(pres)
            return real(pres, weights)

        monkeypatch.setattr(fox, "alexander_matrix", counting)
        monkeypatch.setattr(cli, "alexander_matrix", counting)
        code, out, _ = run(capsys, "alexander", "w22.pres", "--machine")
        assert code == 0 and len(built) == 1
        assert machine_dict(out)["matrix_row_1"].startswith("[")

    def test_alexander_rejected_map_prints_nothing(self, capsys):
        # the all-zero map passes the abelianization check but has no
        # polynomial; no h1, map or matrix line may precede the error
        code, out, err = run(capsys, "alexander", "w12.pres", "--map", "x1=0,x2=0,x3=0", "--machine")
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")

    def test_compare_distinct(self, capsys):
        code, out, _ = run(capsys, "compare", "w22.pres", "w12.pres", "--machine")
        assert code == 0
        assert machine_dict(out)["verdict"] == "DISTINCT"

    def test_compare_self(self, capsys):
        code, out, _ = run(capsys, "compare", "w22.pres", "w22.pres", "--machine")
        assert code == 0
        assert machine_dict(out)["verdict"] == "INDISTINGUISHABLE"

    def test_compare_inversion_flag(self, capsys, tmp_path):
        # BS(1,2) and its reverse have Alexander polynomials related by
        # t -> t^-1 but not by units alone
        reverse = tmp_path / "bs21.pres"
        reverse.write_text("gens: x y\nrel: y x y^-1 x^-2\n")
        code, out, _ = run(capsys, "compare", "bs12.pres", str(reverse), "--machine")
        assert code == 0 and machine_dict(out)["verdict"] == "INDISTINGUISHABLE"
        code, out, _ = run(
            capsys, "compare", "bs12.pres", str(reverse), "--units-only", "--machine"
        )
        assert code == 0 and machine_dict(out)["verdict"] == "DISTINCT"
        # inversion is the default, so there is no flag that asks for it
        code, out, err = run(
            capsys, "compare", "bs12.pres", str(reverse), "--allow-inversion", "--machine"
        )
        assert code == 1 and out == "" and "--allow-inversion" in err

    def test_compare_rank_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "free2.pres"
        bad.write_text("gens: x y\n")
        code, _, err = run(capsys, "compare", str(bad), "w22.pres")
        assert code == 2
        assert "free rank" in err

    def test_invalid_map_rejected(self, capsys):
        code, out, err = run(capsys, "alexander", "w22.pres", "--map", "x1=1,x2=1,x3=1")
        assert code == 2 and out == ""
        assert "weight map does not kill every relator" in err
        # an empty --map is a map with no entries, not a missing option
        for spec in ("", " "):
            code, out, err = run(capsys, "alexander", "w22.pres", "--map", spec)
            assert code == 2 and out == ""
            assert "map missing generators: x1 x2 x3" in err

    def test_weight_out_of_range_rejected(self, capsys, tmp_path):
        # Laurent division spans the weight densely, so a huge one is refused
        comm = tmp_path / "comm.pres"
        comm.write_text("gens: x y\nrel: x y x^-1 y^-1\n")
        code, out, err = run(capsys, "alexander", str(comm), "--map", "x=1001,y=0", "--machine")
        assert code == 2 and out == ""
        assert "outside -1000..1000" in err
        code, out, _ = run(capsys, "alexander", str(comm), "--map", "x=1000,y=0", "--machine")
        assert code == 0
        assert machine_dict(out)["polynomial"] == "-t^1000 + 1"
        mapped = tmp_path / "mapped.pres"
        mapped.write_text("gens: x y\nrel: x y x^-1 y^-1\nmap: x=0 y=-1001\n")
        code, out, err = run(capsys, "alexander", str(mapped), "--machine")
        assert code == 2 and "outside -1000..1000" in err

    def test_zero_map_rejected(self, capsys, tmp_path):
        # every weight 0 kills every relator but is not onto Z
        code, out, err = run(capsys, "alexander", "w12.pres", "--map", "x1=0,x2=0,x3=0", "--machine")
        assert code == 2
        assert "weight map is zero" in err
        assert "polynomial" not in out
        zero = tmp_path / "zero.pres"
        zero.write_text("gens: x y\nrel: y\nmap: x=0 y=0\n")
        for argv in (["alexander", str(zero)], ["compare", str(zero), "w22.pres"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "weight map is zero" in err


class TestFrontCommands:
    def test_tb_unknot(self, capsys):
        code, out, _ = run(capsys, "tb", "unknot.front", "--machine")
        assert code == 0
        values = machine_dict(out)
        assert values["tb_1"] == "-1" and values["rot_1"] == "0"

    def test_check_filling_accepts(self, capsys):
        for cert in ("d1.cert", "d2.cert"):
            code, out, _ = run(capsys, "check-filling", "9_46.front", cert, "--machine")
            assert code == 0
            values = machine_dict(out)
            assert values["result"] == "ACCEPT"
            assert values["euler"] == "1"
            assert values["tb_check"] == "ok"

    def test_check_filling_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.cert"
        bad.write_text("DEATH 1\n")
        code, _, err = run(capsys, "check-filling", "9_46.front", str(bad))
        assert code == 4
        assert "step 0" in err

    def test_check_filling_second_expect_line_is_refused(self, capsys, tmp_path):
        # d1.cert declares EXPECT 1 2 on its line 4; the last declaration
        # used to win silently and the replay was accepted
        doubled = tmp_path / "doubled.cert"
        doubled.write_text("EXPECT 9 9\n" + data_path("d1.cert").read_text())
        code, out, err = run(capsys, "check-filling", "9_46.front", str(doubled), "--machine")
        assert (code, out) == (2, "")
        assert err == "input error: line 5: a second EXPECT line; the first is line 1\n"

    def test_check_filling_bare_move_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bare.cert"
        bad.write_text("MOVE\n")
        code, _, err = run(capsys, "check-filling", "9_46.front", str(bad))
        assert code == 2
        assert "unrecognized step 'MOVE'" in err

    def test_check_filling_slide_with_a_position_is_refused(self, capsys, tmp_path):
        # a slide has no position, so the certificate could not be written back
        bad = tmp_path / "slide.cert"
        bad.write_text("MOVE slide 3 4\n")
        code, out, err = run(capsys, "check-filling", "9_46.front", str(bad))
        assert code == 2 and not out
        assert "line 1: unrecognized step 'MOVE slide 3 4'" in err

    def test_front_position_below_one(self, capsys, tmp_path):
        bad = tmp_path / "zero.front"
        bad.write_text("L 1\nX 0\nR 1\n")
        code, _, err = run(capsys, "tb", str(bad))
        assert code == 2
        assert "event 1: crossing needs strands 0,1 but positions start at 1" in err

    def test_certificate_position_below_one(self, capsys, tmp_path):
        bad = tmp_path / "zero.cert"
        bad.write_text("MOVE r1a+ 0 0\n")
        code, _, err = run(capsys, "check-filling", "unknot.front", str(bad))
        assert code == 4
        assert "step 0" in err
        assert "event 1: crossing needs strands 0,1 but positions start at 1" in err

    def test_connect_roundtrip(self, capsys, tmp_path):
        front_out = tmp_path / "sum.front"
        cert_out = tmp_path / "sum.cert"
        code, out, _ = run(
            capsys, "connect", "9_46.front", "9_46.front",
            "--certs", "d2.cert", "d1.cert",
            "--out-front", str(front_out), "--out-cert", str(cert_out),
            "--machine",
        )
        assert code == 0
        assert machine_dict(out)["result"] == "ACCEPT"
        front = parse_front(front_out.read_text())
        cert = parse_certificate(cert_out.read_text())
        from diskfill.front import check_certificate

        report = check_certificate(front, cert)
        assert report.euler == 1 and report.tb_matches

    @pytest.mark.parametrize("bad", ["front", "cert"])
    def test_connect_bad_target_writes_neither_file(self, capsys, tmp_path, bad):
        targets = {"front": tmp_path / "sum.front", "cert": tmp_path / "sum.cert"}
        targets[bad] = tmp_path / "missing" / "x"
        code, out, err = run(
            capsys, "connect", "9_46.front", "9_46.front", "--certs", "d1.cert", "d2.cert",
            "--out-front", str(targets["front"]), "--out-cert", str(targets["cert"]), "--machine",
        )
        assert (code, out) == (2, "")
        assert f"cannot write {targets[bad]}" in err
        assert list(tmp_path.iterdir()) == []
        targets[bad] = tmp_path  # a directory in place of the file
        code, _, _ = run(
            capsys, "connect", "9_46.front", "9_46.front", "--certs", "d1.cert", "d2.cert",
            "--out-front", str(targets["front"]), "--out-cert", str(targets["cert"]),
        )
        assert code == 2 and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cert_target", ["X", "./X"])
    def test_connect_refuses_one_file_for_both_outputs(self, capsys, tmp_path, monkeypatch,
                                                         cert_target):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "connect", "9_46.front", "9_46.front", "--certs", "d1.cert", "d2.cert",
            "--out-front", "X", "--out-cert", cert_target, "--machine",
        )
        assert (code, out) == (2, "")
        assert "--out-front X and --out-cert X are one file" in err
        assert list(tmp_path.iterdir()) == []

    def test_connect_usage_errors(self, capsys):
        code, _, err = run(capsys, "connect", "9_46.front", "--certs", "d1.cert")
        assert code == 1


class TestKauffmanCommands:
    def test_tb_bound_unknot(self, capsys):
        code, out, _ = run(capsys, "tb-bound", "unknot.pd", "--machine")
        assert code == 0
        assert machine_dict(out)["bound"] == "-1"

    def test_kauffman_mirror_pair(self, capsys):
        _, out_r, _ = run(capsys, "kauffman", "trefoil_rh.pd", "--machine")
        _, out_l, _ = run(capsys, "kauffman", "trefoil_lh.pd", "--machine")
        fr = read_poly(BiLaurent, machine_dict(out_r)["polynomial"])
        fl = read_poly(BiLaurent, machine_dict(out_l)["polynomial"])
        assert fr == a_mirror(fl)

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "kauffman", "9_46.pd", "--budget-crossings", "4")
        assert code == 3

    def test_recursion_too_deep_is_a_budget_error(self, capsys, tmp_path):
        # the skein recursion nests about once per crossing; a limit only
        # 40 frames above the caller's keeps the 60-crossing T(2,60) quick
        path = tmp_path / "t2_60.pd"
        path.write_text(render_pd(braid_pd(2, [1] * 60)))
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            code, out, err = run(capsys, "kauffman", str(path), "--machine")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 3 and not out
        assert "the skein recursion on 60 crossings nested deeper" in err

    @pytest.mark.parametrize("command", ["kauffman", "tb-bound"])
    @pytest.mark.parametrize("budget", ["-1", "-16"])
    def test_negative_budget_rejected(self, capsys, command, budget):
        code, out, err = run(capsys, command, "unknot.pd", "--budget-crossings", budget, "--machine")
        assert code == 2 and not out
        assert f"--budget-crossings {budget!r} below 0" in err

    def test_zero_budget_allows_crossingless_diagrams(self, capsys):
        code, out, _ = run(capsys, "tb-bound", "unknot.pd", "--budget-crossings", "0", "--machine")
        assert code == 0 and out == "bound: -1\n"

    @pytest.mark.parametrize("command", ["kauffman", "tb-bound"])
    def test_budget_crossings_is_an_optional_input_bound(self, capsys, tmp_path, command):
        path = tmp_path / "p27.pd"
        path.write_text(render_pd(pretzel_pd([9, 9, -9])))  # a 27-crossing knot
        code, out, err = run(capsys, command, str(path), "--machine")
        assert code == 0 and out and not err
        code, out, err = run(capsys, command, str(path), "--budget-crossings", "26", "--machine")
        assert code == 3 and not out
        assert "27 crossings exceeds the budget of 26" in err
        code, out, _ = run(capsys, command, str(path), "--budget-crossings", "27", "--machine")
        assert code == 0 and out

    @pytest.mark.parametrize("twists", [[9, 9, -9], [9, -9, 9, -9, 9]])
    def test_pretzels_above_16_crossings_match_the_tangle_oracle(self, capsys, tmp_path, twists):
        d = pretzel_pd(twists)
        path = tmp_path / "p.pd"
        path.write_text(render_pd(d))
        code, out, _ = run(capsys, "kauffman", str(path), "--machine")
        assert code == 0
        expected = BiLaurent.a(trace_diagram(d).writhe) * pretzel_lambda(twists)
        assert read_poly(BiLaurent, machine_dict(out)["polynomial"]) == expected

    def test_key_limit_exit_code(self, capsys, tmp_path, monkeypatch):
        # this closed braid of T(4,7) keys 7,665 diagrams; with the limit
        # lowered the run stops at the first key past it
        monkeypatch.setattr(kauffman, "MAX_KEYS", 300)
        path = tmp_path / "t47.pd"
        path.write_text(render_pd(braid_pd(4, [1, 2, 3] * 7)))
        code, out, err = run(capsys, "kauffman", str(path), "--machine")
        assert code == 3 and not out
        assert "keyed 301 diagrams, more than 300; the largest had 21 crossings" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X(1,2,2,1)\nO(1)\n", "line 2: loop label 1 is a crossing edge label"),
            ("O(5)\nO(5)\nO(5)\n", "line 2: loop label 5 repeats line 1"),
        ],
    )
    def test_loop_label_reuse_rejected(self, capsys, tmp_path, text, message):
        path = tmp_path / "reuse.pd"
        path.write_text(text)
        for command in ("kauffman", "tb-bound"):
            code, out, err = run(capsys, command, str(path), "--machine")
            assert code == 2 and not out
            assert message in err

    @pytest.mark.parametrize("label, printed", [("-" + "9" * 60, "-" + "9" * 60),
                                                ("-" + "9" * 61, "-<61 digits>")])
    def test_an_error_prints_a_number_past_60_digits_as_its_digit_count(
            self, capsys, tmp_path, label, printed):
        path = tmp_path / "loops.pd"
        path.write_text(f"O({label})\nO({label})\n")
        code, out, err = run(capsys, "kauffman", str(path))
        assert (code, out, err) == (2, "", f"input error: line 2: loop label {printed} repeats line 1\n")

    def test_usage_exit_code(self, capsys):
        code, _, _ = run(capsys, "definitely-not-a-command")
        assert code == 1

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(capsys, "tb", "no-such.front")
        assert code == 2


class TestHomsCommand:
    def test_exhaustive_with_witness(self, capsys):
        code, out, _ = run(capsys, "homs", "bs12.pres", "3", "--machine")
        assert code == 0
        values = machine_dict(out)
        assert values["count"] == "12"
        assert values["nonabelian_witness"] != "none"

    def test_witness_validation(self, capsys, tmp_path):
        # a generator and its cycles split at any whitespace, as in every
        # other input format
        witness = tmp_path / "affine.witness"
        for sep in (" ", "\t", " \t "):
            witness.write_text(f"x{sep}(1 2 3 4 5 6 7)\ny{sep}(2 3 5)(4 7 6)\n")
            code, out, _ = run(capsys, "homs", "bs12.pres", "7", "--witness", str(witness), "--machine")
            assert code == 0
            values = machine_dict(out)
            assert values["witness_valid"] == "yes"
            assert values["image_abelian"] == "no"

    @pytest.mark.parametrize(
        "text, message",
        [
            # (1 2)(2 3) is not a permutation; its x^-2 once looped forever
            ("x (1 2)(2 3)\ny ()\n", "repeated symbol"),
            ("x (1 2 3)\ny (2 3)\nx (1 3 2)\n", "listed twice"),
            ("x (a b)\ny ()\n", "bad cycle symbol"),
            ("x 1 2 3\ny ()\n", "expected cycles"),
        ],
    )
    def test_malformed_witness_rejected(self, capsys, tmp_path, text, message):
        witness = tmp_path / "bad.witness"
        witness.write_text(text)
        code, out, err = run(capsys, "homs", "bs12.pres", "3", "--witness", str(witness))
        assert code == 2
        assert message in err and not out

    def test_s5_count_within_the_step_budget(self, capsys):
        # 120^3 assignments, but the search takes 1,786,920 symbol steps
        code, out, _ = run(capsys, "homs", "w22.pres", "5", "--machine")
        assert code == 0
        assert machine_dict(out)["count"] == "1680"

    def test_s6_count_matches_brute_force(self, capsys, tmp_path):
        # no symbol cap: S6 is counted as S5 is, within the step budget
        path = tmp_path / "cube.pres"
        path.write_text("gens: x\nrel: x^3\n")
        code, out, _ = run(capsys, "homs", str(path), "6", "--machine")
        assert code == 0
        pres = parse_presentation(path.read_text()).presentation
        assert machine_dict(out)["count"] == str(sum(1 for _ in brute_homs(pres, 6))) == "81"

    def test_large_symbol_count_trips_the_step_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(groups, "MAX_HOM_STEPS", 100_000)
        code, out, err = run(capsys, "homs", "bs12.pres", "7")
        assert code == 3 and not out
        assert "hom search into S7 stopped at" in err
        assert "past its limit of 100000" in err

    @pytest.mark.parametrize("symbols", ["0", "-3", str(10**15)])
    def test_symbol_count_out_of_range(self, capsys, tmp_path, symbols):
        # checked before either path, so a witness of identities cannot
        # pass at -3 and no permutation on 10**15 symbols is ever built
        witness = tmp_path / "identity.witness"
        witness.write_text("x ()\ny ()\n")
        for extra in (["--witness", str(witness)], []):
            code, out, err = run(capsys, "homs", "bs12.pres", symbols, *extra)
            assert code == 2
            assert f"symbol count {symbols!r} outside 1..{MAX_SYMBOLS}" in err and not out


class TestSnfCommand:
    def test_snf_output(self, capsys):
        code, out, _ = run(capsys, "snf", "w22.pres", "--machine")
        assert code == 0
        values = machine_dict(out)
        assert values["matrix_row_1"] == "[1, 1, 0]"
        assert values["d_row_1"] == "[1, 0, 0]"

    def test_coefficient_blowup_finishes(self, tmp_path):
        # an elimination that pivots on each remainder it meets doubles the
        # entries' bit length every pass at the fourth pivot here; the
        # subprocess timeout makes such a blow-up a failure, not a hang
        pres = tmp_path / "blowup.pres"
        pres.write_text(
            "gens: x1 x2 x3 x4 x5\n"
            "rel: x1^9 x2^3 x3^-2 x4^9\n"
            "rel: x1^3 x2^4 x3^9 x4^2 x5^4\n"
            "rel: x1^-5 x2^2 x3^9 x4^3 x5^-1\n"
            "rel: x2^12 x3^4\n"
            "rel: x2^2 x3 x4^-2 x5^4\n"
            "rel: x2^-5 x4^6 x5^9\n"
        )
        snf = run_child(["snf", str(pres)], timeout=60)
        assert snf.returncode == 0
        d = [v for k, v in sorted(machine_dict(snf.stdout).items()) if k.startswith("d_row_")]
        assert d == [
            "[1, 0, 0, 0, 0]", "[0, 1, 0, 0, 0]", "[0, 0, 1, 0, 0]",
            "[0, 0, 0, 1, 0]", "[0, 0, 0, 0, 2]", "[0, 0, 0, 0, 0]",
        ]
        for argv in (["alexander", str(pres)], ["compare", str(pres), "w22.pres"]):
            result = run_child(argv, timeout=60)
            assert result.returncode == 2
            assert "free rank is 0" in result.stderr and not result.stdout


class TestBundledData:
    def test_every_bundled_file_validates(self):
        from diskfill.front import check_certificate, validate
        from diskfill.groups import parse_presentation, validate_abelianization

        directory = data_path("w22.pres").parent
        names = sorted(p.name for p in directory.iterdir())
        assert {
            "w22.pres", "w12.pres", "bs12.pres",
            "unknot.front", "9_46.front", "d1.cert", "d2.cert",
            "unknot.pd", "trefoil_rh.pd", "trefoil_lh.pd", "9_46.pd",
        } <= set(names)
        for name in names:
            text = data_path(name).read_text()
            if name.endswith(".pres"):
                pf = parse_presentation(text)
                for weights in pf.maps:
                    assert validate_abelianization(pf.presentation, weights)
            elif name.endswith(".front"):
                validate(parse_front(text))
            elif name.endswith(".pd"):
                parse_pd(text)
            elif name.endswith(".cert"):
                parse_certificate(text)

    def test_bundled_lookup_takes_bare_names_only(self, capsys, tmp_path, monkeypatch):
        # ../cli.py from inside diskfill/data is the package's own source
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "tb", "../cli.py", "--machine")
        assert (code, out, err) == (2, "", "input error: no such file: ../cli.py\n")
        for name in ("../cli.py", "./9_46.front", "data/9_46.front", "..", ".", ""):
            with pytest.raises(FileNotFoundError):
                data_path(name)
        assert data_path("9_46.front").name == "9_46.front"

    @pytest.mark.parametrize("argv", [
        ("tb", "{}"),
        ("check-filling", "9_46.front", "{}"),
        ("alexander", "{}"),
        ("kauffman", "{}"),
        ("homs", "bs12.pres", "3", "--witness", "{}"),
    ], ids=["front", "certificate", "presentation", "pd", "witness"])
    def test_non_utf8_input_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        real_init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert run(capsys, "tb", "unknot.front")[0] == 0
        first = len(built)
        assert run(capsys, "tb", "unknot.front", "--machine")[0] == 0
        assert run(capsys, "tb")[0] == 1  # a usage error leaves the parser usable
        assert run(capsys, "tb", "unknot.front")[0] == 0
        assert len(built) == first

    def test_machine_output_stable(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run(capsys, "alexander", "w22.pres", "--machine")
            runs.append(out)
        assert runs[0] == runs[1]
