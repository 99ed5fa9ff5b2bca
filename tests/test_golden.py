"""``--machine`` output of the bundled data and of a composed L_8, byte for
byte.

Each bundled-data case's stdout, then an ``exit: <code>`` line, is stored
in ``tests/golden/<name>.out``.  Inputs that are not bundled with the
package (the pretzel PD codes and the L_8 files) live next to the outputs.

The L_8 cases run ``check-filling``, ``tb`` and ``connect`` on the front
and certificate that ``connect`` writes for eight 9_46 summands
(``l8.front``, ``l8.cert``), and three rejections: a bad integer, an
unknown move kind (both exit 2) and a failing replay step (exit 4).  Their
golden files add stderr and every file the command writes.  Each case runs
on its inputs twice: as stored, and with a comment on every line and CRLF
line ends; both must give the stored bytes.

A change that means to alter one of these outputs regenerates the files
with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description; any other difference is a regression.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from diskfill.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "alexander_w22": ["alexander", "w22.pres"],
    "alexander_w12": ["alexander", "w12.pres"],
    "alexander_bs12": ["alexander", "bs12.pres"],
    "compare_w22_w12": ["compare", "w22.pres", "w12.pres"],
    "kauffman_9_46": ["kauffman", "9_46.pd"],
    "kauffman_trefoil_lh": ["kauffman", "trefoil_lh.pd"],
    "kauffman_trefoil_rh": ["kauffman", "trefoil_rh.pd"],
    "tb_bound_9_46": ["tb-bound", "9_46.pd"],
    "tb_bound_trefoil_lh": ["tb-bound", "trefoil_lh.pd"],
    "tb_bound_trefoil_rh": ["tb-bound", "trefoil_rh.pd"],
    "tb_9_46": ["tb", "9_46.front"],
    "check_filling_d1": ["check-filling", "9_46.front", "d1.cert"],
    "check_filling_d2": ["check-filling", "9_46.front", "d2.cert"],
    "homs_w22_3": ["homs", "w22.pres", "3"],
    "snf_w12": ["snf", "w12.pres"],
    "kauffman_pretzel_3_m5_5": ["kauffman", str(GOLDEN / "pretzel_3_m5_5.pd")],
    "kauffman_pretzel_3_4_m4": ["kauffman", str(GOLDEN / "pretzel_3_4_m4.pd")],
    "tb_bound_pretzel_3_m5_5": ["tb-bound", str(GOLDEN / "pretzel_3_m5_5.pd")],
    "tb_bound_pretzel_3_4_m4": ["tb-bound", str(GOLDEN / "pretzel_3_4_m4.pd")],
}

# name -> (argv with input file names from tests/golden, files written);
# connect writes into the working directory, so its stdout names the
# same relative paths on every run
L8_CASES = {
    "l8_check_filling": (["check-filling", "l8.front", "l8.cert"], []),
    "l8_tb": (["tb", "l8.front"], []),
    "l8_connect": (["connect", "l8.front", "l8.front", "--certs", "l8.cert", "l8.cert",
                    "--out-front", "sum.front", "--out-cert", "sum.cert"],
                   ["sum.front", "sum.cert"]),
    "l8_bad_integer": (["check-filling", "l8.front", "l8_bad_integer.cert"], []),
    "l8_unknown_move": (["check-filling", "l8.front", "l8_unknown_move.cert"], []),
    "l8_failing_step": (["check-filling", "l8.front", "l8_failing_step.cert"], []),
}
L8_INPUTS = ["l8.front", "l8.cert", "l8_bad_integer.cert", "l8_unknown_move.cert",
             "l8_failing_step.cert"]
FORMS = ("canonical", "commented_crlf")


def run_machine(argv):
    """Exit code and stdout of one ``--machine`` command."""
    code, stdout, _ = run_captured(argv)
    return code, stdout


def run_captured(argv):
    """Exit code, stdout and stderr of one ``--machine`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--machine"])
    return code, out.getvalue(), err.getvalue()


def render(code, stdout):
    return f"{stdout}exit: {code}\n"


def commented_crlf(text):
    """``text`` with a comment on every line and CRLF line ends."""
    return "".join(f"{line}  # note {i}\r\n" for i, line in enumerate(text.splitlines()))


def run_l8(name, form, directory):
    """The golden text of L_8 case ``name``, run in ``directory`` on its
    inputs in ``form``: exit code, stdout, stderr and each written file."""
    argv, written = L8_CASES[name]
    for input_name in L8_INPUTS:
        text = (GOLDEN / input_name).read_text()
        if form == "commented_crlf":
            text = commented_crlf(text)
        (directory / input_name).write_bytes(text.encode())
    previous = os.getcwd()
    os.chdir(directory)
    try:
        code, stdout, stderr = run_captured(argv)
    finally:
        os.chdir(previous)
    parts = [render(code, stdout), f"-- stderr\n{stderr}"]
    parts += [f"-- {path}\n{(directory / path).read_text()}" for path in written]
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_is_unchanged(name):
    code, stdout = run_machine(CASES[name])
    assert render(code, stdout) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", sorted(L8_CASES))
def test_l8_output_is_unchanged_in_both_forms(tmp_path, name, form):
    assert run_l8(name, form, tmp_path) == (GOLDEN / f"{name}.out").read_text()


def test_commented_crlf_form_differs_on_every_line():
    text = (GOLDEN / "l8.front").read_text()
    lines = commented_crlf(text).split("\r\n")
    assert len(lines) == len(text.splitlines()) + 1 and all("#" in line for line in lines[:-1])


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES) | set(L8_CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(render(*run_machine(argv)))
    for name in L8_CASES:
        with tempfile.TemporaryDirectory() as directory:
            (GOLDEN / f"{name}.out").write_text(run_l8(name, "canonical", Path(directory)))
