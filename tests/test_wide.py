"""The command-line case table: each row runs one ``diskfill`` command
through ``helpers.run_child``, in a child process that limits its own
address space to 1 GiB, under a 10 s timeout or the row's tighter one,
through ``python -m diskfill.cli`` and through the installed ``diskfill``
script when there is one.  Each row names the exit code it must end in,
0, 2, 3 or 4, and a fragment of its stdout or stderr; a fragment that
starts and ends with a newline is a whole line.  No row may end in a
traceback, an exhausted address space or the timeout.

Some rows read bundled data by bare name: the sharp tb bound of 9_46,
its d1 filling, and hom counts of W22 and BS(1,2).  Most read wide
generated inputs.  ``helpers.wide_presentation`` seeds each file by its
relator count k, so every run sees the same files.  They are small but
wide: many generators, many relators, and many distinct exponents.  The
other inputs are wide in one way each: 2,000 generators, relators of
30,000 letters in one run and in runs of 1,000, of 1,001 runs and of
30,001 runs, an exponent of thousands of digits, relators whose runs of one generator
have both signs, searched in S6 and S10000, a 27-crossing pretzel, a
4-braid closure whose skein recursion keys thousands of diagrams, a
connected sum of 200 fronts, and a front of 100,000 events, both as
``render_front`` writes it and with a comment on every line and CRLF
line ends.  Last, one token of 5,000 characters in each input format,
and one of 700 digits in three, must be refused in one short line, and
so must every input number of 640 digits or more that an error names.
"""

import pytest

from diskfill import data_path
from diskfill.front import FrontWord, parse_front, render_front
from diskfill.groups import MAX_SYMBOLS
from diskfill.kauffman import render_pd

from helpers import braid_pd, pretzel_pd, run_child, wide_presentation


def wide(k, rank):
    """A ``wide_presentation`` file of k relators on ``rank`` generators."""
    return f"wide{k}_{rank}.pres", lambda: wide_presentation(k, [f"x{i}" for i in range(rank)])


def relator(name, gens, text):
    """A presentation file of one relator."""
    return name, lambda: f"gens: {gens}\nrel: {text}\n"


GENS_2000 = ("gens2000.pres",
             lambda: "gens: " + " ".join(f"g{i}" for i in range(2000)) + "\nrel: g0\n")
T47 = ("t47.pd", lambda: render_pd(braid_pd(4, [1, 2, 3] * 7)))
P27 = ("p27.pd", lambda: render_pd(pretzel_pd([9, 9, -9])))
Y30000 = relator("y30000.pres", "x y", "x" + " y^1000" * 30)
Y2000 = relator("y2000.pres", "x y", "x y^1000 y^1000")
MIXED = relator("mixed.pres", "x y", "y x y^-2 x^-1")
CUBES = relator("cubes.pres", "a b", "a^2 b^-3")
RUNS_1001 = relator("runs1001.pres", "x y z", " ".join(["x y"] * 500 + ["z"]))
ALTERNATING = relator("alternating.pres", "x y z", " ".join(["x z"] * 15000 + ["y"]))
EXPONENT_5000 = relator("exp5000.pres", "x y", "x^" + "1" * 5000)
EXPONENT_1000 = relator("exp1000.pres", "x y", "x^" + "1" * 1000)
SIXTHS = "x^1000 y^-1000 z^1000 x^-1000 y^1000 z^-1000"
LETTERS_30000 = ("letters30000.pres", lambda: (
    f"gens: x y z\nrel: {' '.join([SIXTHS] * 5)}\nrel: x y x^-1 z^-1\nrel: y x y^-1 z^-1\n"))

# one token of 5,000 characters in each input format: every refusal names
# the line it is on, names a number as outside its range or longer than
# 640 digits, and quotes 60 characters of the token's repr
ONES = "1" * 5000
SEVENS = "7" * 700


def cut(text):
    return f"{repr(text)[:60]}... ({len(text)} characters)"


TWO_GENS = relator("xy.pres", "x y", "x y x^-1 y^-1")
LABEL_PD = f"X({ONES},1,1,2)\nX(2,3,3,4)"
LONG_TOKENS = {
    "alexander_map_line_weight": (
        "alexander", [("map.pres", lambda: f"gens: x\nmap: x={ONES}\n")], [],
        f"line 2: weight {cut(ONES)} for 'x' outside -1000..1000"),
    "alexander_option_map_weight": (
        "alexander", [TWO_GENS], ["--map", f"x={ONES} y=1"],
        f"weight {cut(ONES)} for 'x' outside -1000..1000"),
    "alexander_exponent": (
        "alexander", [relator("exp.pres", "x", f"x^{ONES}")], [],
        f"line 2: exponent in {cut('x^' + ONES)} outside -1000..1000"),
    "alexander_word_token_of_letters": (
        "alexander", [relator("word.pres", "x", "y" * 5000)], [],
        f"line 2: unknown generator {cut('y' * 5000)}"),
    "homs_witness_cycle_symbol": (
        "homs", [TWO_GENS, "--witness", ("long.wit", lambda: f"x (1 {ONES})\ny ()\n")], ["3"],
        f"witness line 1: cycle symbol in {cut(f'(1 {ONES})')} outside 1..3"),
    "kauffman_pd_edge_label": (
        "kauffman", [("label.pd", lambda: LABEL_PD + "\n")], [],
        f"line 1: edge label has more than 640 digits in {cut(LABEL_PD.splitlines()[0])}"),
    "tb_front_position": (
        "tb", [("long.front", lambda: f"L 1\nX {ONES}\nR 1\n")], [],
        f"line 2: position {cut(ONES)} has more than 640 digits"),
    "check_filling_certificate_integer": (
        "check-filling", ["9_46.front", ("long.cert", lambda: f"DEATH 1\nPINCH 1 {ONES}\n")], [],
        f"line 2: integer in {cut(f'PINCH 1 {ONES}')} has more than 640 digits"),
}
# 700 digits, run under the default digit limit and under the least one
# an interpreter may set: the limit decides nothing
DIGITS_700 = {
    "kauffman_pd_edge_labels": (
        "kauffman", [("labels700.pd", lambda: f"X({SEVENS},{SEVENS},2,2)\n")], [],
        f"line 1: edge label has more than 640 digits in {cut(f'X({SEVENS},{SEVENS},2,2)')}"),
    "alexander_map_weight": (
        "alexander", [TWO_GENS], ["--map", f"x={SEVENS} y=1"],
        f"weight {cut(SEVENS)} for 'x' outside -1000..1000"),
    "tb_front_position": (
        "tb", [("pos700.front", lambda: f"L 1\nX {SEVENS}\nR 1\n")], [],
        f"line 2: position {cut(SEVENS)} has more than 640 digits"),
}

# numbers an error names, refused in one short line in which each of more
# than 60 digits is its digit count: (command, inputs, extra arguments,
# exit code, the line, whether the interpreter's digit limit decided the
# outcome before, so that the row runs under the least limit too)
NINES = "9" * 640  # one more is 641 digits, past the least limit's str()
NUMBERS = {
    "check_filling_death_of_700_digits": (
        "check-filling", ["9_46.front", ("death.cert", lambda: f"DEATH {'1' * 700}\n")], [], 2,
        f"input error: line 1: integer in {cut('DEATH ' + '1' * 700)} has more than 640 digits",
        True),
    "homs_symbol_count_of_700_digits": (
        "homs", ["w22.pres", SEVENS], [], 2,
        f"input error: symbol count {cut(SEVENS)} outside 1..{MAX_SYMBOLS}", True),
    "tb_front_crossing_at_640_digits": (
        "tb", [("crossing.front", lambda: f"L 1\nX {NINES}\nR 1\n")], [], 2,
        "input error: event 1: crossing needs strands <640 digits>,<641 digits> but only 2 exist",
        True),
    "check_filling_move_index_of_640_digits": (
        "check-filling", ["9_46.front", ("move.cert", lambda: f"MOVE r1a+ {NINES} 1\n")], [], 4,
        "verification failure: step 0 (Move(kind='r1a+', index=<640 digits>, pos=1)): move index "
        "<640 digits> out of range: expected a 0-event window inside 0..16, found "
        "<640 digits>..<640 digits>", False),
    "check_filling_pinch_column_of_640_digits": (
        "check-filling", ["9_46.front", ("pinch.cert", lambda: f"PINCH {NINES} 1\n")], [], 4,
        "verification failure: step 0 (Pinch(index=<640 digits>, pos=1)): pinch column "
        "<640 digits> out of range 0..16", False),
    "kauffman_pd_label_of_640_digits_three_times": (
        "kauffman", [("thrice.pd", lambda: f"X({NINES},{NINES},{NINES},1)\n")], [], 2,
        "input error: edge labels must occur exactly twice, <640 digits> occurs more often", False),
    "kauffman_pd_loop_label_of_640_digits_twice": (
        "kauffman", [("loops.pd", lambda: f"O({NINES})\nO({NINES})\n")], [], 2,
        "input error: line 2: loop label <640 digits> repeats line 1", False),
    "kauffman_pd_of_2000_crossings_whose_labels_occur_once": (
        "kauffman", [("once.pd", lambda: "".join(f"X({4 * i + 1},{4 * i + 2},{4 * i + 3},{4 * i + 4})\n"
                                                 for i in range(2000)))], [], 2,
        "input error: edge labels must occur exactly twice, [1, 2, 3, ... (8000 labels)] occur once",
        False),
}

# the default digit limit, and the least one an interpreter may set
LIMITS = [("", {}), ("_digit_limit_640", {"PYTHONINTMAXSTRDIGITS": "640"})]

# (command, inputs, extra arguments, environment, exit code, stream, fragment[, timeout]);
# an input is a file name or option passed as written, or a (name, text) file written first
CASES = {
    # u of the Smith normal form gets an entry of 4,510 digits
    "snf_k48": ("snf", [wide(48, 48)], [], {}, 3, "stderr",
                "an entry of u has 4510 decimal digits"),
    # the interpreter's own digit limit does not decide the refusal
    "snf_k48_no_digit_limit": ("snf", [wide(48, 48)], [], {"PYTHONINTMAXSTRDIGITS": "0"},
                               3, "stderr", "an entry of u has 4510 decimal digits"),
    # nor the printed rows, whose entries run to hundreds of digits
    "snf_k32_digit_limit_640": ("snf", [wide(32, 32)], [], {"PYTHONINTMAXSTRDIGITS": "640"},
                                0, "stdout", "v_row_32: ["),
    # the map onto Z has weights near 10^11, so the Bareiss quotients span
    # trillions of exponents
    "alexander_k8": ("alexander", [wide(8, 9)], [], {}, 3, "stderr", "a polynomial spans"),
    "compare_k8_with_itself": ("compare", [wide(8, 9)] * 2, [], {}, 3, "stderr",
                               "a polynomial spans"),
    "compare_k48": ("compare", [wide(48, 48)] * 2, [], {}, 2, "stderr",
                    "H1 free rank is 0, need 1"),
    # a relator of 30,000 letters, each run of 1,000 walked once
    "alexander_30000_letters": ("alexander", [LETTERS_30000], [], {}, 0, "stdout",
                                "\npolynomial: -2*t + 1\n", 5),
    # an exponent is refused before int() meets the interpreter's digit
    # limit: 4,300 digits by default, here 640
    "alexander_exponent_of_5000_digits": ("alexander", [EXPONENT_5000], [], {}, 2, "stderr",
                                          "outside -1000..1000"),
    "homs_exponent_of_1000_digits_digit_limit_640": (
        "homs", [EXPONENT_1000], ["2"], {"PYTHONINTMAXSTRDIGITS": "640"}, 2, "stderr",
        "outside -1000..1000"),
    # about 60 runs per relator, each folded at a call's cost
    "homs_k60_s2": ("homs", [wide(60, 60)], ["2"], {}, 3, "stderr",
                    "hom search into S2 stopped at"),
    # the search keeps its own stack, so depth 2,000 is no recursion
    "homs_2000_gens_s2": ("homs", [GENS_2000], ["2"], {}, 3, "stderr",
                          "the deepest generator reached was g1999 (2000 of 2000)"),
    # y's runs have both signs, so each image of y is inverted once and
    # symbols are followed through that inverse, never searched for
    "homs_mixed_signs_s6": ("homs", [MIXED], ["6"], {}, 0, "stdout", "\ncount: 2880\n"),
    "homs_mixed_signs_s10000": ("homs", [MIXED], ["10000"], {}, 3, "stderr",
                                "hom search into S10000 stopped at 20030066 steps"),
    # b has only negative runs, so a node reads the relator inverted
    "homs_cubes_s5": ("homs", [CUBES], ["5"], {}, 0, "stdout", "\ncount: 600\n"),
    "homs_cubes_s6": ("homs", [CUBES], ["6"], {}, 0, "stdout", "\ncount: 6480\n"),
    # one run of 30,000 letters, whose power walks the cycles of y once
    "homs_y30000_s5": ("homs", [Y30000], ["5"], {}, 0, "stdout", "count: 120\n"),
    # y^1000 y^1000 is one run of 2,000, a power by the cycle walk
    "homs_y2000_s5": ("homs", [Y2000], ["5"], {}, 0, "stdout", "\ncount: 120\n"),
    # a relator of 1,001 runs, and one alternating 15,000 times, spend the
    # budget and stop at it
    "homs_1001_runs_s5": ("homs", [RUNS_1001], ["5"], {}, 3, "stderr",
                          "past its limit of 20000000"),
    "homs_alternating_s5": ("homs", [ALTERNATING], ["5"], {}, 3, "stderr",
                            "past its limit of 20000000"),
    "homs_w22_s5": ("homs", ["w22.pres"], ["5"], {}, 0, "stdout", "\ncount: 1680\n"),
    "homs_bs12_s6": ("homs", ["bs12.pres"], ["6"], {}, 0, "stdout", "\ncount: 2880\n"),
    # T(4,7) as a closed 4-braid keys more diagrams than the budget allows
    "kauffman_t47": ("kauffman", [T47], [], {}, 3, "stderr", "keyed 5001 diagrams, more than 5000"),
    # 27 crossings: the bound has no crossing cap, kauffman the one it is given
    "tb_bound_p27": ("tb-bound", [P27], [], {}, 0, "stdout", "\nbound: "),
    "kauffman_p27_budget_26": ("kauffman", [P27], ["--budget-crossings", "26"], {}, 3, "stderr",
                               "27 crossings exceeds the budget of 26"),
    "tb_bound_9_46": ("tb-bound", ["9_46.pd"], [], {}, 0, "stdout", "\nbound: -1\n"),
    "check_filling_9_46_d1": ("check-filling", ["9_46.front", "d1.cert"], [], {}, 0, "stdout",
                              "\nresult: ACCEPT\n"),
    # a name with a directory part is never looked up among the bundled
    # files, where ../cli.py would be the package's own source
    "tb_path_with_a_directory": ("tb", ["../cli.py"], [], {}, 2, "stderr",
                                 "no such file: ../cli.py"),
    **{f"{name}_of_5000_characters": (command, inputs, extra, {}, 2, "stderr",
                                      f"\ninput error: {message}\n")
       for name, (command, inputs, extra, message) in LONG_TOKENS.items()},
    **{f"{name}_of_700_digits{suffix}": (command, inputs, extra, env, 2, "stderr",
                                         f"\ninput error: {message}\n")
       for name, (command, inputs, extra, message) in DIGITS_700.items()
       for suffix, env in LIMITS},
    **{f"{name}{suffix}": (command, inputs, extra, env, code, "stderr", f"\n{line}\n")
       for name, (command, inputs, extra, code, line, both) in NUMBERS.items()
       for suffix, env in LIMITS[:1 + both]},
}

PREFIX = {2: "input error: ", 3: "budget exceeded: ", 4: "verification failure: "}


def run_case(tmp_path, case):
    command, inputs, extra, env, code, stream, fragment, *timeout = CASES[case]
    paths = []
    for item in inputs:
        if not isinstance(item, str):
            name, text = item
            (tmp_path / name).write_text(text())
            item = str(tmp_path / name)
        paths.append(item)
    result = run_child([command, *paths, *extra], env, *timeout, cwd=tmp_path)
    assert result.returncode == code, result.stderr[-2000:]
    assert fragment in "\n" + getattr(result, stream)
    if code:
        # a refusal is one line, whose quotes of input are cut short
        assert not result.stdout and result.stderr.startswith(PREFIX[code])
        assert result.stderr.count("\n") == 1 and len(result.stderr) <= 201, result.stderr


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][4] == 3])
def test_wide_presentation_is_refused_within_its_budget(tmp_path, case):
    run_case(tmp_path, case)


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][4] != 3])
def test_wide_input_is_answered_or_rejected(tmp_path, case):
    run_case(tmp_path, case)


def test_snf_prints_the_same_rows_under_a_low_digit_limit(tmp_path):
    name, text = wide(32, 32)
    path = tmp_path / name
    path.write_text(text())
    low = run_child(["snf", str(path)], {"PYTHONINTMAXSTRDIGITS": "640"})
    default = run_child(["snf", str(path)], {"PYTHONINTMAXSTRDIGITS": "4300"})  # CPython's default
    assert low.returncode == default.returncode == 0 and low.stdout == default.stdout


def connect_and_check(tmp_path, copies):
    """Connect ``copies`` bundled 9_46 fronts, filled by d1 and d2 in turn,
    check the pair written, and return the front's path and the check."""
    front, cert = tmp_path / "sum.front", tmp_path / "sum.cert"
    result = run_child(["connect", *["9_46.front"] * copies,
                        "--certs", *(["d1.cert", "d2.cert"] * copies)[:copies],
                        "--out-front", str(front), "--out-cert", str(cert)])
    assert result.returncode == 0 and "\neuler: 1\nresult: ACCEPT\n" in result.stdout
    return front, run_child(["check-filling", str(front), str(cert)])


def test_connect_of_two_fronts_replays(tmp_path):
    _, result = connect_and_check(tmp_path, 2)
    assert result.returncode == 0
    assert "result: ACCEPT\npinches: 3\ndeaths: 4\neuler: 1\n" in result.stdout


def test_connect_of_200_fronts_replays(tmp_path):
    front, result = connect_and_check(tmp_path, 200)
    assert result.returncode == 0
    assert "result: ACCEPT\npinches: 399\ndeaths: 400\neuler: 1\n" in result.stdout
    result = run_child(["tb", str(front)])
    assert result.returncode == 0 and result.stdout == "components: 1\ntb_1: -1\nrot_1: 0\n"


def front_of_100000_events():
    """The connected sum of 7,142 copies of the bundled 9_46 front (99,990
    events), with five zigzags on its top strand: tb -1 - 5 = -6, rot -5."""
    events = parse_front(data_path("9_46.front").read_text()).events
    total = list(events)
    for _ in range(7141):
        total[-1:] = events[1:]  # splice at the closing right cusp
    total[1:1] = [("L", 1), ("R", 2)] * 5
    return FrontWord(tuple(total))


@pytest.mark.parametrize("form", ["canonical", "commented_crlf"])
def test_tb_of_a_front_of_100000_events(tmp_path, form):
    front = front_of_100000_events()
    assert len(front.events) == 100_000
    text = render_front(front, header="100,000 events")
    if form == "commented_crlf":
        text = "".join(f"{line}  # line {i}\r\n" for i, line in enumerate(text.splitlines(), 1))
    path = tmp_path / "wide.front"
    path.write_bytes(text.encode())
    result = run_child(["tb", str(path)])
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == "components: 1\ntb_1: -6\nrot_1: -5\n"
