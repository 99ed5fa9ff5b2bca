"""Wide generated presentations, each run through one command in a child
process that limits its own address space to 1 GiB, under a 10 s timeout.

``helpers.wide_presentation`` seeds each file by its relator count k, so
every run sees the same files.  They are small but wide: many generators,
many relators, and many distinct exponents.  Each case must end in a
budget refusal, exit 3 with empty stdout, and never in a traceback, an
exhausted address space or the timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskfill import cli

from helpers import wide_presentation

CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from diskfill.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)

# (command, k, generator count, extra arguments, environment, message part)
CASES = {
    # u of the Smith normal form gets an entry of 4,510 digits
    "snf_k48": ("snf", 48, 48, [], {}, "an entry of u has 4510 decimal digits"),
    # the interpreter's own digit limit does not decide the refusal
    "snf_k48_no_digit_limit": ("snf", 48, 48, [], {"PYTHONINTMAXSTRDIGITS": "0"},
                               "an entry of u has 4510 decimal digits"),
    # the map onto Z has weights near 10^11, so the Bareiss quotients span
    # trillions of exponents
    "alexander_k8": ("alexander", 8, 9, [], {}, "a polynomial spans"),
    # about 60 runs per relator, each folded at a call's cost
    "homs_k60_s2": ("homs", 60, 60, ["2"], {}, "hom search into S2 stopped at"),
}


@pytest.mark.parametrize("case", CASES)
def test_wide_presentation_is_refused_within_its_budget(tmp_path, case):
    command, k, rank, extra, env_extra, message = CASES[case]
    path = tmp_path / f"wide{k}.pres"
    path.write_text(wide_presentation(k, [f"x{i}" for i in range(rank)]))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env_extra,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, command, str(path), *extra, "--machine"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert "Traceback" not in result.stderr, result.stderr[-2000:]
    assert result.returncode == 3 and not result.stdout
    assert result.stderr.startswith("budget exceeded: ") and message in result.stderr
