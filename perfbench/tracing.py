"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install`` replaces each function in ``WRAPPED`` by a timing
wrapper, in its defining module and in every other ``diskfill`` module
that bound the same object with ``from ... import`` (``cli`` does this
for most of them), and ``uninstall`` puts the originals back.  Nothing
inside the package changes.

A span is one call of a wrapped function: its name, the enclosing
wrapped call (its parent), the operation it belongs to, and its self
time (duration minus the time of wrapped calls inside it).  Leaf
functions run millions of times, so spans are kept aggregated per
(operation, name, parent) with call count, total and self time, and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name); attributes with a dot are methods.  Besides
# the functions the per-layer metrics name, the list holds the engine entry
# points the CLI calls, so that cli.main's self time is argument parsing,
# file parsing and printing only.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("laurent", "IntLaurent.__mul__", "laurent.IntLaurent.mul"),
    ("laurent", "BiLaurent.__mul__", "laurent.BiLaurent.mul"),
    ("laurent", "div_exact", "laurent.div_exact"),
    ("laurent", "laurent_gcd", "laurent.laurent_gcd"),
    ("laurent", "normalize_unit", "laurent.normalize_unit"),
    ("laurent", "unit_equivalent", "laurent.unit_equivalent"),
    ("fox", "alexander_matrix", "fox.alexander_matrix"),
    ("fox", "laurent_det", "fox.laurent_det"),
    ("fox", "alexander_polynomial", "fox.alexander_polynomial"),
    ("groups", "h1", "groups.h1"),
    ("groups", "z_surjection", "groups.z_surjection"),
    ("groups", "smith_normal_form", "groups.smith_normal_form"),
    ("groups", "iter_homs", "groups.iter_homs"),
    ("groups", "check_finite_hom", "groups.check_finite_hom"),
    ("kauffman", "kauffman_F", "kauffman.kauffman_F"),
    ("kauffman", "tb_upper_bound", "kauffman.tb_upper_bound"),
    ("kauffman", "canonical_key", "kauffman.canonical_key"),
    ("kauffman", "simplify", "kauffman.simplify"),
    ("kauffman", "smooth_crossing", "kauffman.smooth_crossing"),
    ("kauffman", "switch_crossing", "kauffman.switch_crossing"),
    ("kauffman", "trace_diagram", "kauffman.trace_diagram"),
    ("front", "validate", "front.validate"),
    ("front", "orient", "front.orient"),
    ("front", "classical_invariants", "front.classical_invariants"),
    ("front", "apply_move", "front.apply_move"),
    ("front", "pinch", "front.pinch"),
    ("front", "death", "front.death"),
    ("front", "check_certificate", "front.check_certificate"),
    ("front", "connected_sum", "front.connected_sum"),
    ("front", "compose_certificates", "front.compose_certificates"),
)


class Tracer:
    def __init__(self):
        self._stack = []  # [name, start_ns, child_ns] per open span
        self._restore = []
        self._op = None
        self._keys = set()
        # (op, name, parent) -> [calls, total_ns, self_ns]
        self.spans = defaultdict(lambda: [0, 0, 0])
        self.counts = Counter()  # outcome counters, summed over operations
        self.ops = 0

    # -- spans ------------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._keys = set()
        self.ops += 1

    def _enter(self, name):
        self._stack.append([name, perf_counter_ns(), 0])

    def _exit(self, calls=1):
        name, start, child = self._stack.pop()
        duration = perf_counter_ns() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        span = self.spans[(self._op, name, parent[0] if parent else None)]
        span[0] += calls
        span[1] += duration
        span[2] += duration - child

    def _wrap(self, name, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        # time spent producing each item belongs to the generator's span;
        # time the consumer spends between items does not
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(calls)
                    calls = 0
                self.counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def _observers(self):
        def nonzero_minor(args, result):
            self.counts["fox.laurent_det.nonzero"] += bool(result)

        def repeated_key(args, result):
            if result in self._keys:
                self.counts["kauffman.canonical_key.repeated"] += 1
            else:
                self._keys.add(result)

        def reduced(args, result):
            self.counts["kauffman.simplify.reduced"] += (
                result[0].crossings != args[0].crossings)

        return {
            "fox.laurent_det": nonzero_minor,
            "kauffman.canonical_key": repeated_key,
            "kauffman.simplify": reduced,
        }

    # -- installation ----------------------------------------------------------------

    def install(self):
        package = [m for n, m in sys.modules.items() if n.startswith("diskfill.")]
        observers = self._observers()
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"diskfill.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(name, original)
                # __rmul__ is the same function as __mul__ in these classes
                for alias, value in list(cls.__dict__.items()):
                    if value is original:
                        self._restore.append((cls, alias, value))
                        setattr(cls, alias, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for mod in package:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, alias, value))
                        setattr(mod, alias, wrapper)

    def uninstall(self):
        for owner, alias, value in reversed(self._restore):
            setattr(owner, alias, value)
        self._restore = []

    # -- results ---------------------------------------------------------------------

    def totals(self):
        """{name: [calls, total_ns, self_ns]} over all operations."""
        out = defaultdict(lambda: [0, 0, 0])
        for (_, name, _), (calls, total, self_ns) in self.spans.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_ns
        return out

    def steps_replayed(self):
        return sum(
            calls for (_, name, parent), (calls, _, _) in self.spans.items()
            if parent == "front.check_certificate"
            and name in ("front.apply_move", "front.pinch", "front.death")
        )

    def span_records(self, op_id):
        return [
            {"name": name, "parent": parent, "calls": calls,
             "total_ms": total / 1e6, "self_ms": self_ns / 1e6}
            for (op, name, parent), (calls, total, self_ns) in self.spans.items()
            if op == op_id
        ]


_UNITS = {"self_ms": "ms/op", "calls": "count/op", "branch_calls": "count/op",
          "minors_per_poly": "count", "steps_per_s": "1/s", "import_ms": "ms",
          "traced_ops_per_s": "1/s", "untraced_ops_per_s": "1/s"}


def unit_of(name):
    """Unit of a per-layer metric, from the last part of its name."""
    return _UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, scale=1.0):
    """Per-layer metrics: counts and self times per operation, and ratios.

    Times are multiplied by ``scale`` (see ``run.Speed``).
    """
    totals = tracer.totals()
    n = max(tracer.ops, 1)

    def calls(name):
        return totals[name][0] / n if name in totals else 0.0

    def self_ms(name):
        return totals[name][2] / 1e6 / n * scale if name in totals else 0.0

    def raw_calls(name):
        return totals[name][0] if name in totals else 0

    counts = tracer.counts
    replay_s = (totals["front.check_certificate"][1] / 1e9 * scale
                if "front.check_certificate" in totals else 0)
    return {
        "cli.main.self_ms": self_ms("cli.main"),
        "laurent.div_exact.calls": calls("laurent.div_exact"),
        "laurent.div_exact.self_ms": self_ms("laurent.div_exact"),
        "laurent.laurent_gcd.calls": calls("laurent.laurent_gcd"),
        "laurent.laurent_gcd.self_ms": self_ms("laurent.laurent_gcd"),
        "laurent.normalize_unit.self_ms": self_ms("laurent.normalize_unit"),
        "laurent.IntLaurent.mul.calls": calls("laurent.IntLaurent.mul"),
        "laurent.IntLaurent.mul.self_ms": self_ms("laurent.IntLaurent.mul"),
        "laurent.BiLaurent.mul.calls": calls("laurent.BiLaurent.mul"),
        "laurent.BiLaurent.mul.self_ms": self_ms("laurent.BiLaurent.mul"),
        "fox.alexander_matrix.self_ms": self_ms("fox.alexander_matrix"),
        "fox.laurent_det.calls": calls("fox.laurent_det"),
        "fox.laurent_det.self_ms": self_ms("fox.laurent_det"),
        "fox.minors_per_poly": _ratio(raw_calls("fox.laurent_det"),
                                      raw_calls("fox.alexander_polynomial")),
        "fox.nonzero_minor_ratio": _ratio(counts["fox.laurent_det.nonzero"],
                                          raw_calls("fox.laurent_det")),
        "groups.check_finite_hom.calls": calls("groups.check_finite_hom"),
        "groups.hom_yield_ratio": _ratio(counts["groups.iter_homs.yielded"],
                                         raw_calls("groups.check_finite_hom")),
        "groups.iter_homs.self_ms": self_ms("groups.iter_homs"),
        "groups.smith_normal_form.self_ms": self_ms("groups.smith_normal_form"),
        "groups.z_surjection.self_ms": self_ms("groups.z_surjection"),
        "kauffman.canonical_key.calls": calls("kauffman.canonical_key"),
        "kauffman.canonical_key.self_ms": self_ms("kauffman.canonical_key"),
        "kauffman.key_repeat_ratio": _ratio(counts["kauffman.canonical_key.repeated"],
                                            raw_calls("kauffman.canonical_key")),
        "kauffman.simplify.self_ms": self_ms("kauffman.simplify"),
        "kauffman.simplify.reduced_ratio": _ratio(counts["kauffman.simplify.reduced"],
                                                  raw_calls("kauffman.simplify")),
        "kauffman.branch_calls": calls("kauffman.smooth_crossing")
        + calls("kauffman.switch_crossing"),
        "kauffman.trace_diagram.self_ms": self_ms("kauffman.trace_diagram"),
        "front.validate.calls": calls("front.validate"),
        "front.validate.self_ms": self_ms("front.validate"),
        "front.apply_move.calls": calls("front.apply_move"),
        "front.apply_move.self_ms": self_ms("front.apply_move"),
        "front.pinch.self_ms": self_ms("front.pinch"),
        "front.death.self_ms": self_ms("front.death"),
        "front.steps_per_s": _ratio(tracer.steps_replayed(), replay_s),
    }
