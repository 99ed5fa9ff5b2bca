"""``--machine`` output of the bundled data, byte for byte.

Each case's stdout, then an ``exit: <code>`` line, is stored in
``tests/golden/<name>.out``.  Inputs that are not bundled with the
package (the pretzel PD codes) live next to the outputs.  A change that means to alter one of these
outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description; any other difference is a regression.
"""

import contextlib
import io
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


def run_machine(argv):
    """Exit code and stdout of one ``--machine`` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--machine"])
    return code, buf.getvalue()


def render(code, stdout):
    return f"{stdout}exit: {code}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_is_unchanged(name):
    code, stdout = run_machine(CASES[name])
    assert render(code, stdout) == (GOLDEN / f"{name}.out").read_text()


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(render(*run_machine(argv)))
