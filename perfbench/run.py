#!/usr/bin/env python3
"""Closed-loop benchmark of the ``diskfill`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload alexander --seed 1 --seconds 20 --trace 0

One operation is one ``diskfill <command> ... --machine`` call, made in
this process through ``diskfill.cli.main(argv)`` with stdout and stderr
captured.  A single client runs the operations one after another for
``--seconds`` seconds, finishing the round it is in.  Inputs come from
``--seed`` and are written to a temporary directory under
``.perfbench_run/`` before timing starts; answers are checked after the
timed loop (see ``checks.py``).  ``setup_s`` and ``cli.import_ms`` are
medians over fresh interpreters that import ``diskfill.cli`` and run one
trivial command.

Every reported time is scaled to a reference machine speed: a short
fixed pure-Python loop runs after every operation (and at the start of
every set-up interpreter), and the times of a round are multiplied by
``REFERENCE_MS`` over the loop's mean time in that round.  The shared
machine the benchmark was tuned on changes speed by up to 1.5x from one
minute to the next; the scaling cancels most of that, so runs of the
same code agree.  The unscaled figures are printed on the third line of
the output.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` every round runs twice, untraced and traced in alternating
order, and the last line reports the per-layer metrics of the traced
passes plus the tracing overhead; the spans are written to
``.perfbench_run/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
if not __package__:
    # run as a script: import the benchmark as a package from the root
    sys.path[0] = str(ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.checks import CheckError, expect  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics, unit_of  # noqa: E402

ROUNDS = 24  # distinct rounds generated; more are run only by cycling
MIN_SAMPLES = 110  # so that at least ten operations lie beyond p90
SETUP_STARTS = 15
REFERENCE_MS = 1.0  # the calibration loop's time at the reference speed

SETUP_CHILD = """
import sys, time


def loop():
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return time.perf_counter() - t0


loop_s = sum(loop() for _ in range(3)) / 3
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import diskfill.cli
t1 = time.perf_counter()
code = diskfill.cli.main(["tb", {front!r}, "--machine"])
sys.stderr.write("loop %r import %r\\n" % (loop_s, t1 - t0))
sys.exit(code)
"""


class SetupError(Exception):
    pass


@dataclass
class Result:
    op: object
    round: int
    rc: object
    out: str
    err: str
    crash: str
    ns: int
    scale: float = 1.0  # see Speed.scale
    traced: bool = False


class Speed:
    """Samples of a fixed loop's time, taken between measured pieces of work."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Reference time per measured time, over the samples so far; resets."""
        mean = statistics.fmean(self.samples)
        self.samples = []
        return REFERENCE_MS / 1000 / mean


def import_package():
    if not (SRC / "diskfill" / "cli.py").is_file():
        raise SetupError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import diskfill.cli

    if Path(diskfill.cli.__file__).resolve().parent != SRC / "diskfill":
        raise SetupError(f"imported diskfill from {diskfill.cli.__file__}, not from {SRC}")
    return diskfill.cli


def measure_setup(tmp):
    """Fresh interpreters: wall time to import and run a trivial command.

    Each child first times the calibration loop three times (see
    ``Speed``); that time is taken out of its wall time and sets its
    scale.  Returns the scaled medians of the wall time in seconds and of
    the import time in milliseconds, and the median scale.
    """
    front = tmp / "setup-unknot.front"
    front.write_text("L 1\nR 1\n")
    child = SETUP_CHILD.format(src=str(SRC), front=str(front))
    walls, imports, scales = [], [], []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", child], cwd=tmp,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != "components: 1\ntb_1: -1\nrot_1: 0\n":
            raise SetupError(f"trivial command failed: {proc.stderr.strip()[-300:]}")
        loop, import_s = (float(x) for x in proc.stderr.split()[1::2])
        scales.append(REFERENCE_MS / 1000 / loop)
        walls.append((wall - 3 * loop) * scales[-1])
        imports.append(import_s * 1000 * scales[-1])
    return statistics.median(walls), statistics.median(imports), statistics.median(scales)


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            rc, crash = None, traceback.format_exc()
    return rc, out.getvalue(), err.getvalue(), crash


def run_round(cli, rounds, r, speed, tracer=None, first_id=0):
    """Run round r; the loop's time after each operation goes to ``speed``."""
    results = []
    for i, op in enumerate(rounds[r % len(rounds)].ops):
        if tracer is not None:
            tracer.begin_op(first_id + i)
        t0 = time.perf_counter_ns()
        rc, out, err, crash = call(cli, op.argv)
        ns = time.perf_counter_ns() - t0
        speed.sample()
        results.append(Result(op, r % len(rounds), rc, out, err, crash, ns,
                              traced=tracer is not None))
    return results


def check_results(results):
    """Return the indices of failed operations and one message per failure."""
    failed, messages = set(), []
    values = defaultdict(lambda: defaultdict(list))
    members = defaultdict(list)
    for i, res in enumerate(results):
        op = res.op
        try:
            expect(res.crash is None, f"traceback: {(res.crash or '').strip().splitlines()[-1:]}")
            expect(res.rc == op.rc, f"exit code {res.rc}, expected {op.rc}: {res.err.strip()[:200]}")
            value = op.check(res.out, res.err)
        except Exception as exc:  # a wrong or unparseable answer
            failed.add(i)
            messages.append(f"{' '.join(op.argv[:2])}: {exc}")
            continue
        if op.family is not None:
            key = (res.round, op.family)
            values[key][op.role].append(value)
            members[key].append(i)
    for key, family in values.items():
        try:
            workloads.relate(key[1], family)
        except CheckError as exc:
            failed.update(members[key])
            messages.append(f"family {key[1]} of round {key[0]}: {exc}")
    return failed, messages


def latency_stats(results, scaled=True):
    ms = sorted(r.ns / 1e6 * (r.scale if scaled else 1) for r in results)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90, sum(1 for x in ms if x > p90)


def tag_summary(results):
    values = defaultdict(list)
    for r in results:
        for key, value in r.op.tags.items():
            values[key].append(value)
    parts = []
    for key, vs in sorted(values.items()):
        share = len(vs) / len(results)
        if all(isinstance(v, bool) for v in vs):
            parts.append(f"{key}={sum(vs) / len(vs):.2f} (of {share:.2f})")
        elif all(isinstance(v, int) for v in vs):
            parts.append(f"{key}={min(vs)}..{max(vs)} median {statistics.median(vs)} (of {share:.2f})")
        else:
            counts = Counter(vs)
            parts.append(f"{key}=" + ",".join(f"{v}:{c / len(vs):.2f}" for v, c in sorted(counts.items()))
                         + f" (of {share:.2f})")
    return "; ".join(parts)


def run(args):
    cli = import_package()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = measure_setup(tmp)
        rng = random.Random(f"{args.workload}:{args.seed}")
        build = workloads.BUILDERS[args.workload]
        rounds = []
        for k in range(ROUNDS):
            rd = workloads.Round(directory=tmp / f"r{k}")
            rd.directory.mkdir()
            build(rng, rd)
            rounds.append(rd)
        if args.trace:
            return traced_run(args, cli, rounds, setup)
        return untraced_run(args, cli, rounds, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _timed_loop(args, step):
    """Run rounds until the time is up and enough samples exist.

    ``step(r, speed)`` runs round r and returns its results.  Returns the
    scaled and the unscaled time spent in operations, the number of
    rounds and the median scale.
    """
    start = time.perf_counter()
    r = samples = 0
    busy = scaled = 0.0
    scales = []
    while True:
        speed = Speed()
        part = step(r, speed)
        scales.append(speed.scale())
        for res in part:
            res.scale = scales[-1]
        dt = sum(res.ns for res in part) / 1e9
        busy += dt
        scaled += dt * scales[-1]
        samples += len(part)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (samples >= MIN_SAMPLES or elapsed >= 4 * args.seconds):
            return scaled, busy, r, statistics.median(scales)


def untraced_run(args, cli, rounds, setup):
    setup_s, _, setup_scale = setup
    results = []

    def step(r, speed):
        part = run_round(cli, rounds, r, speed)
        results.extend(part)
        return part

    scaled, busy, nrounds, scale = _timed_loop(args, step)
    failed, messages = check_results(results)
    p50, p90, beyond = latency_stats(results)
    raw_p50, raw_p90, _ = latency_stats(results, scaled=False)
    n = len(results)
    metrics = {
        "ops_per_s": (n / scaled, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_frac": ((n - len(failed)) / n, "frac"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"workload {args.workload} seed {args.seed}: {n} operations in {nrounds} rounds, "
          f"{busy:.2f} s, {beyond} samples beyond p90, {len(failed)} failed")
    print(f"tags: {tag_summary(results)}")
    print(f"unscaled: machine scale {scale:.4f} (set-up {setup_scale:.4f}), "
          f"ops_per_s {n / busy:.4f}, op_p50_ms {raw_p50:.4f}, op_p90_ms {raw_p90:.4f}, "
          f"setup_s {setup_s / setup_scale:.4f}")
    return report(metrics, n, failed, messages)


def traced_run(args, cli, rounds, setup):
    _, import_ms, _ = setup
    tracer = Tracer()
    results = []

    def step(r, speed):
        # alternate which pass runs first so neither always finds caches warm
        part = []
        for traced in (r % 2 == 1, r % 2 == 0):
            if traced:
                tracer.install()
                try:
                    part += run_round(cli, rounds, r, speed, tracer, len(results) + len(part))
                finally:
                    tracer.uninstall()
            else:
                part += run_round(cli, rounds, r, speed)
        results.extend(part)
        return part

    _, _, nrounds, scale = _timed_loop(args, step)
    failed, messages = check_results(results)
    busy = {traced: sum(r.ns * r.scale for r in results if r.traced == traced) / 1e9
            for traced in (False, True)}
    ops = {traced: sum(1 for r in results if r.traced == traced) for traced in (False, True)}
    traced_rate = ops[True] / busy[True]
    untraced_rate = ops[False] / busy[False]
    values = layer_metrics(tracer, scale)
    values["cli.import_ms"] = import_ms
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    print(f"workload {args.workload} seed {args.seed} traced: {ops[True]} traced and "
          f"{ops[False]} untraced operations in {nrounds} rounds, {len(failed)} failed; "
          f"tracing overhead {untraced_rate / traced_rate:.2f}x")
    write_spans(args, tracer, results)
    return report(metrics, len(results), failed, messages)


def write_spans(args, tracer, results):
    ops = []
    for i, res in enumerate(results):
        if not res.traced:
            continue
        ops.append({"id": i, "round": res.round, "command": res.op.argv[0],
                    "tags": res.op.tags, "ms": res.ns / 1e6, "scale": res.scale,
                    "spans": tracer.span_records(i)})
    path = WORK / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops}))
    print(f"spans written to {path.relative_to(ROOT)}")


def report(metrics, attempted, failed, messages):
    for message in messages[:20]:
        print(f"FAILED {message}")
    line = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
