"""Seeded mutations of the bundled files, run through every command.

A mutant deletes, duplicates or swaps lines, moves a number by one or to
1000000, or changes an event, step or line kind.  Whatever the mutant,
each command must end with exit code 0, 2, 3 or 4 (an answer, an input
error, a budget error or a rejected certificate), never a traceback.
Fronts and certificates matter most: ``pinch`` and ``death`` presume a
valid word, so a replay must reject a bad one before it gets there.
Witness files matter too: a symbol in two cycles is not a permutation,
and raising one to a power such as bs12's ``x^-2`` never returns.
"""

import random
import re

import pytest

from diskfill import data_path
from diskfill.cli import main

MUTANTS_PER_FILE = 30

# files that are not bundled: homomorphisms from BS(1,2) onto copies of S3
# inside S4, with the fixed points written out so that mutants can collide
WITNESSES = {
    "bs12_s4_123.witness": "# y^-1 x y = x^2\nx (1 2 3)(4)\ny (2 3)(1)(4)\n",
    "bs12_s4_234.witness": "# y^-1 x y = x^2\nx (2 3 4)(1)\ny (3 4)(1)(2)\n",
}

# per file suffix: the pattern of a line's kind, and kinds to put there
KINDS = {
    ".front": (r"^\S+", ("L", "R", "X")),
    ".cert": (r"^(MOVE \S+|\S+)", ("PINCH", "DEATH", "EXPECT", "MOVE slide", "MOVE r1a+", "MOVE r2d-", "MOVE r3")),
    ".pd": (r"^[A-Z]", ("X", "O")),
    ".pres": (r"^\S+", ("gens:", "rel:", "map:")),
    ".witness": (r"^\S+", ("x", "y", "z")),
}


def commands(suffix, path, tmp_path):
    """Every command that reads a file with ``suffix``, reading ``path``."""
    out = ["--out-front", str(tmp_path / "sum.front"), "--out-cert", str(tmp_path / "sum.cert")]
    if suffix == ".front":
        return [
            ["tb", path],
            ["check-filling", path, "d1.cert"],
            ["connect", path, "9_46.front", "--certs", "d2.cert", "d1.cert", *out],
        ]
    if suffix == ".cert":
        return [
            ["check-filling", "9_46.front", path],
            ["connect", "9_46.front", "unknot.front", "--certs", path, str(tmp_path / "unknot.cert"), *out],
        ]
    if suffix == ".pd":
        return [["kauffman", path], ["tb-bound", path, "--machine"]]
    if suffix == ".witness":
        return [["homs", "bs12.pres", "4", "--witness", path]]
    return [
        ["alexander", path],
        ["compare", path, "w12.pres"],
        ["homs", path, "3"],
        ["snf", path, "--machine"],
    ]


def mutate(rng, lines, kinds):
    lines = list(lines)
    content = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    if not content:
        return lines
    i = rng.choice(content)
    how = rng.randrange(5)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[i])
    elif how == 2:
        j = rng.choice(content)
        lines[i], lines[j] = lines[j], lines[i]
    elif how == 3 and re.search(r"\d+", lines[i]):
        numbers = list(re.finditer(r"-?\d+", lines[i]))
        m = rng.choice(numbers)
        value = rng.choice((int(m.group()) - 1, int(m.group()) + 1, 1000000))
        lines[i] = lines[i][:m.start()] + str(value) + lines[i][m.end():]
    else:
        pattern, choices = kinds
        lines[i] = re.sub(pattern, rng.choice(choices), lines[i], count=1)
    return lines


@pytest.mark.parametrize(
    "name",
    ["9_46.front", "unknot.front", "d1.cert", "d2.cert", "9_46.pd", "trefoil_lh.pd",
     "trefoil_rh.pd", "unknot.pd", "w22.pres", "w12.pres", "bs12.pres", *WITNESSES],
)
def test_mutated_inputs_exit_cleanly(name, tmp_path, capsys):
    # a one-step certificate for the unknot, so that connect has a partner
    (tmp_path / "unknot.cert").write_text("DEATH 1\n")
    text = WITNESSES[name] if name in WITNESSES else data_path(name).read_text()
    lines = text.splitlines()
    suffix = name[name.rindex("."):]
    rng = random.Random(f"mutate {name}")
    codes = set()
    for m in range(MUTANTS_PER_FILE):
        mutant = lines
        for _ in range(rng.randint(1, 2)):
            mutant = mutate(rng, mutant, KINDS[suffix])
        text = "\n".join(mutant) + "\n"
        path = tmp_path / f"mutant{m}{suffix}"
        path.write_text(text)
        for argv in commands(suffix, str(path), tmp_path):
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3, 4), (argv, text)
            codes.add(code)
    assert codes - {0}, "no mutant was rejected"
