"""Wide generated inputs, each run through commands in a child process
that limits its own address space to 1 GiB, under a 10 s timeout.

``helpers.wide_presentation`` seeds each file by its relator count k, so
every run sees the same files.  They are small but wide: many generators,
many relators, and many distinct exponents.  The other inputs are wide in
one way each: 2,000 generators, a relator with a run of 30,000 letters,
a relator whose runs of one generator have both signs, searched in S10000,
a 4-braid closure whose skein recursion keys thousands of diagrams, and a
connected sum of 200 fronts.  Each case names the exit code it must end
in, 0, 2 or 3, and a fragment of its stdout or stderr; no case may end in
a traceback, an exhausted address space or the timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskfill import cli
from diskfill.kauffman import render_pd

from helpers import braid_pd, wide_presentation

CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from diskfill.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def wide(k, rank):
    """A ``wide_presentation`` file of k relators on ``rank`` generators."""
    return f"wide{k}_{rank}.pres", lambda: wide_presentation(k, [f"x{i}" for i in range(rank)])


GENS_2000 = ("gens2000.pres",
             lambda: "gens: " + " ".join(f"g{i}" for i in range(2000)) + "\nrel: g0\n")
T47 = ("t47.pd", lambda: render_pd(braid_pd(4, [1, 2, 3] * 7)))
Y30000 = ("y30000.pres", lambda: "gens: x y\nrel: x" + " y^1000" * 30 + "\n")
MIXED = ("mixed.pres", lambda: "gens: x y\nrel: y x y^-2 x^-1\n")

# (command, input files, extra arguments, environment, exit code, stream, fragment)
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
    # about 60 runs per relator, each folded at a call's cost
    "homs_k60_s2": ("homs", [wide(60, 60)], ["2"], {}, 3, "stderr",
                    "hom search into S2 stopped at"),
    # the search keeps its own stack, so depth 2,000 is no recursion
    "homs_2000_gens_s2": ("homs", [GENS_2000], ["2"], {}, 3, "stderr",
                          "the deepest generator reached was g1999 (2000 of 2000)"),
    # y's runs have both signs, so each image of y is inverted once and
    # symbols are followed through that inverse, never searched for
    "homs_mixed_signs_s10000": ("homs", [MIXED], ["10000"], {}, 3, "stderr",
                                "hom search into S10000 stopped at 20030066 steps"),
    # one run of 30,000 letters, whose power walks the cycles of y once
    "homs_y30000_s5": ("homs", [Y30000], ["5"], {}, 0, "stdout", "count: 120\n"),
    # T(4,7) as a closed 4-braid keys more diagrams than the budget allows
    "kauffman_t47": ("kauffman", [T47], [], {}, 3, "stderr", "keyed 5001 diagrams, more than 5000"),
}

PREFIX = {2: "input error: ", 3: "budget exceeded: "}


def run_child(argv, env_extra=None):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **(env_extra or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", CHILD, *argv, "--machine"],
                            capture_output=True, text=True, env=env, timeout=10)
    assert "Traceback" not in result.stderr, result.stderr[-2000:]
    return result


def run_case(tmp_path, case):
    command, inputs, extra, env_extra, code, stream, fragment = CASES[case]
    paths = []
    for name, text in inputs:
        path = tmp_path / name
        path.write_text(text())
        paths.append(str(path))
    result = run_child([command, *paths, *extra], env_extra)
    assert result.returncode == code, result.stderr[-2000:]
    assert fragment in getattr(result, stream)
    if code:
        assert not result.stdout and result.stderr.startswith(PREFIX[code])


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


def test_connect_of_200_fronts_replays(tmp_path):
    front, cert = tmp_path / "sum.front", tmp_path / "sum.cert"
    result = run_child(["connect", *["9_46.front"] * 200, "--certs", *["d1.cert", "d2.cert"] * 100,
                        "--out-front", str(front), "--out-cert", str(cert)])
    assert result.returncode == 0 and "result: ACCEPT\n" in result.stdout
    result = run_child(["check-filling", str(front), str(cert)])
    assert result.returncode == 0
    assert "result: ACCEPT\npinches: 399\ndeaths: 400\neuler: 1\n" in result.stdout
    result = run_child(["tb", str(front)])
    assert result.returncode == 0 and result.stdout == "components: 1\ntb_1: -1\nrot_1: 0\n"
