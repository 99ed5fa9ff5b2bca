"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks as C
from perfbench import inputs as I
from perfbench import workloads
from perfbench.run import Result, call, check_results, import_package
from perfbench.tracing import Tracer, layer_metrics, unit_of

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


# -- the declaration ---------------------------------------------------------------

def test_benchmark_json_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = []
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["unit"] == unit_of(m["name"])
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(u) for u in units)


def test_per_layer_names_match_the_traced_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(layer_metrics(Tracer())) | {
        "cli.import_ms", "trace.traced_ops_per_s", "trace.untraced_ops_per_s",
        "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


# -- oracles --------------------------------------------------------------------------

def test_torus_alexander_closed_form():
    assert C.torus_alexander(2, 3) == {0: 1, 1: -1, 2: 1}
    assert C.torus_alexander(3, 4) == {0: 1, 1: -1, 3: 1, 5: -1, 6: 1}


def test_torus_hom_count_matches_enumeration():
    gens, relators, _ = I.torus_group(2, 3)
    perms = list(itertools.permutations(range(3)))
    brute = sum(
        1 for x in perms for y in perms
        if C._evaluate(relators[0], (x, y), 3) == (0, 1, 2)
    )
    assert C.torus_hom_count(2, 3, 3) == brute


def test_pretzel_generators():
    assert I.pretzel_determinant((-3, -3, 3)) == 9
    rng = random.Random(0)
    for crossings, components, strands in ((8, 1, 3), (17, 1, 3), (10, 2, 4), (11, 2, 3)):
        twists = I.random_pretzel(rng, crossings, components, strands)
        assert len(twists) == strands and sum(abs(t) for t in twists) == crossings
        assert I.traverse(I.pretzel_pd(twists)).components == components


def test_polynomial_parsing_and_integer_det():
    assert C.parse_az("a^-2*z + 3 - z^-1") == {(-2, 1): 1, (0, 0): 3, (0, -1): -1}
    assert C.parse_t("0") == {}
    assert C.int_det([[2, 1], [7, 4]]) == 1
    assert C.int_det([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == -5


def test_connected_sum_counts():
    events, steps, pinches, deaths = I.connected_sum(["d1", "unknot", "d2"])
    assert (pinches, deaths) == (1 + 0 + 1 + 2, 2 + 1 + 2)
    assert steps[0] == f"PINCH {len(I.FRONT_946) - 1} 1"


# -- the checks catch wrong answers ---------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    return import_package()


def _round(workload, tmp_path, seed=3):
    rd = workloads.Round(directory=tmp_path)
    workloads.BUILDERS[workload](random.Random(seed), rd)
    return rd.ops


def _execute(cli, ops):
    return [Result(op, 0, *call(cli, op.argv), 0) for op in ops]


def _recheck(results, ops):
    """The same program outputs, checked against other expectations."""
    return check_results([
        Result(op, r.round, r.rc, r.out, r.err, r.crash, r.ns) for r, op in zip(results, ops)
    ])


WRONG_EXPECTATIONS = {
    "alexander": (I, "W22_ALEXANDER", "4*t^2 - 5*t + 1"),
    "kauffman": (I, "pretzel_determinant",
                 lambda twists, det=I.pretzel_determinant: det(twists) + 2),
    "fillings": (I, "SUMMANDS", {**I.SUMMANDS, "d1": I.SUMMANDS["d1"][:2] + (2, 2)}),
    "quotients": (C, "torus_hom_count", lambda p, q, n: 7),
}


@pytest.mark.parametrize("workload", sorted(WRONG_EXPECTATIONS))
def test_wrong_expected_value_is_a_failure(workload, cli, tmp_path, monkeypatch):
    ops = _round(workload, tmp_path)
    results = _execute(cli, ops)
    failed, messages = check_results(results)
    assert not failed, messages
    owner, attr, wrong = WRONG_EXPECTATIONS[workload]
    monkeypatch.setattr(owner, attr, wrong)
    failed, messages = _recheck(results, _round(workload, tmp_path))
    assert failed and messages


def test_mirror_relation_is_checked():
    f = C.parse_az("a^5*z + a^4*z^2 - a^4")
    workloads.relate("knot9", {"F": [f], "Fm": [C.a_mirror(f)], "tb": [3]})
    with pytest.raises(C.CheckError):
        workloads.relate("knot9", {"F": [f], "Fm": [f]})
    with pytest.raises(C.CheckError):
        workloads.relate("knot9", {"F": [f], "tb": [4]})


def test_exit_code_and_traceback_are_failures(cli, tmp_path):
    path = tmp_path / "w22.pres"
    path.write_text(I.render_presentation(I.W22))
    op = workloads.Op(["alexander", str(path), "--machine"],
                      lambda out, err: C.check_alexander(out, I.W22), {})
    good = Result(op, 0, *call(cli, op.argv), 0)
    assert check_results([good])[0] == set()
    assert check_results([Result(op, 0, 2, good.out, "", None, 0)])[0] == {0}
    assert check_results([Result(op, 0, None, "", "", "Traceback ...", 0)])[0] == {0}


# -- tracing ----------------------------------------------------------------------------------

def test_tracer_wraps_and_restores(cli, tmp_path):
    import diskfill.fox
    import diskfill.laurent

    original = diskfill.laurent.div_exact
    path = tmp_path / "w12.pres"
    path.write_text(I.render_presentation(I.W12))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        rc, out, _, crash = call(cli, ["alexander", str(path), "--machine"])
    finally:
        tracer.uninstall()
    assert rc == 0 and crash is None
    assert diskfill.laurent.div_exact is original and diskfill.fox.div_exact is original
    metrics = layer_metrics(tracer)
    assert metrics["fox.laurent_det.calls"] == 3
    assert metrics["fox.minors_per_poly"] == 3
    assert metrics["laurent.IntLaurent.mul.calls"] > 0
    assert tracer.totals()["cli.main"][0] == 1
    assert all(r["self_ms"] >= 0 for r in tracer.span_records(0))


# -- the command without the package ------------------------------------------------------------

def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alexander", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
