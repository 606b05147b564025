"""Tests for the benchmark's own helpers.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
import types

import pytest

import run
from tracer import Tracer


# -- the percentile rule ----------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert run.min_samples(90) == 100
    assert run.min_samples(50) == 20
    assert run.MIN_SAMPLES == 100
    samples = [float(i) for i in range(100)]
    assert run.percentile(samples, 90) == 89.0  # ten samples lie above it
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 90)


def test_median_is_nearest_rank():
    assert run.percentile([float(i) for i in range(1, 21)], 50) == 10.0
    with pytest.raises(ValueError):
        run.percentile([1.0] * 19, 50)


# -- spans and self time --------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def two_modules(clock):
    """Modules a and b; b binds a's functions the way `from .a import f` does."""
    a = types.ModuleType("a")
    b = types.ModuleType("b")

    def leaf():
        clock.now += 5

    def outer():
        clock.now += 2
        b.leaf()
        clock.now += 3

    def countdown(k):
        clock.now += 1
        if k:
            b.countdown(k - 1)  # re-entry through the other module's binding

    a.leaf, a.outer, a.countdown = leaf, outer, countdown
    b.leaf, b.countdown = leaf, countdown
    return a, b


def test_self_time_subtracts_children():
    clock = FakeClock()
    a, b = two_modules(clock)
    tracer = Tracer(clock)
    tracer.patch([a, b], {"a.leaf": (a, "leaf"), "a.outer": (a, "outer")})
    try:
        a.outer()
    finally:
        tracer.restore()
    stats = tracer.summarize()
    assert (stats["a.outer"].calls, stats["a.outer"].self_ns, stats["a.outer"].inclusive_ns) == (1, 5, 10)
    assert (stats["a.leaf"].calls, stats["a.leaf"].self_ns, stats["a.leaf"].inclusive_ns) == (1, 5, 5)


def test_reentry_through_another_binding_counts_once():
    clock = FakeClock()
    a, b = two_modules(clock)
    tracer = Tracer(clock)
    tracer.patch([a, b], {"a.countdown": (a, "countdown")})
    assert a.countdown is b.countdown  # one wrapper for both bindings
    try:
        with tracer.span("op"):
            a.countdown(2)
            clock.now += 4
    finally:
        tracer.restore()
    stats = tracer.summarize()
    s = stats["a.countdown"]
    assert (s.calls, s.self_ns, s.inclusive_ns) == (3, 3, 3)
    assert (stats["op"].self_ns, stats["op"].inclusive_ns) == (4, 7)
    # the parent chain: op <- countdown(2) <- countdown(1) <- countdown(0)
    assert list(tracer.parent) == [-1, 0, 1, 2]


def test_summarize_by_root_span():
    clock = FakeClock()
    a, b = two_modules(clock)
    tracer = Tracer(clock)
    tracer.patch([a, b], {"a.leaf": (a, "leaf")})
    try:
        with tracer.span("dense"):
            a.leaf()
        with tracer.span("sparse"):
            a.leaf()
            b.leaf()
    finally:
        tracer.restore()
    assert tracer.summarize()["a.leaf"].calls == 3
    assert tracer.summarize(root="dense")["a.leaf"].calls == 1
    assert tracer.summarize(root="sparse")["a.leaf"].calls == 2


def test_tally_sums_a_count_of_each_result():
    tracer = Tracer(FakeClock())
    mod = types.ModuleType("m")
    mod.pairs = lambda k: list(range(k))
    tracer.patch([mod], {"m.pairs": (mod, "pairs")}, {"m.pairs": len})
    try:
        mod.pairs(3)
        mod.pairs(4)
    finally:
        tracer.restore()
    assert tracer.summarize()["m.pairs"].tally == 7


# -- restoring the bindings ---------------------------------------------------------------


def test_restore_puts_back_every_binding():
    clock = FakeClock()
    a, b = two_modules(clock)
    originals = (a.leaf, b.leaf, a.outer)

    class Shape:
        def grow(self):
            return "grown"

    method = Shape.__dict__["grow"]
    table = {"check": originals[0]}
    tracer = Tracer(clock)
    tracer.patch([a, b], {"a.leaf": (a, "leaf"), "a.outer": (a, "outer"),
                          "shape.grow": (Shape, "grow")})
    tracer.replace(table, "check", tracer.wrap("check", table["check"]))
    assert a.leaf is not originals[0] and b.leaf is a.leaf
    assert Shape().grow() == "grown"  # a wrapped method still binds self
    assert table["check"] is not originals[0]
    tracer.restore()
    assert (a.leaf, b.leaf, a.outer) == originals
    assert Shape.__dict__["grow"] is method
    assert table["check"] is originals[0]


def test_restore_after_an_exception_in_a_traced_call():
    tracer = Tracer(FakeClock())
    mod = types.ModuleType("m")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    with pytest.raises(KeyError):
        with tracer:
            tracer.patch([mod], {"m.boom": (mod, "boom")})
            mod.boom()
    assert mod.boom is boom
    assert tracer.summarize()["m.boom"].calls == 1  # the span was closed


# -- the workloads against the package ------------------------------------------------------


@pytest.fixture(scope="module")
def kg():
    sys.path.insert(0, str(run.SRC))
    return run.Package()


def test_merged_verify_table_matches_one_run_over_the_corpus(kg):
    workload = run.WORKLOADS["verify-general"]
    items = workload.setup(kg, 3, 27)
    outputs = [workload.result(kg, it, workload.call(kg, it))[0] for it in items]
    whole = kg.verify.run_checks([(it.label, it.graph) for it in items])
    assert workload.pass_output(kg, items, outputs) == whole.table() + "\n"


def test_traced_pass_gives_the_same_outputs_and_restores(kg):
    workload = run.WORKLOADS["verify-bipartite"]
    items = workload.setup(kg, 5, 12)
    order = list(range(len(items)))
    plain = run.run_pass(workload, kg, items, order, float("inf"))
    before = {name: check for name, check in kg.verify.CHECKS_BY_NAME.items()}
    stability_number = kg.stable.stability_number
    tracer = Tracer()
    run.install(tracer, kg)
    assert kg.analysis.stability_number is not stability_number
    try:
        traced = run.run_pass(workload, kg, items, order, float("inf"), tracer)
    finally:
        tracer.restore()
    assert plain.complete and traced.complete and plain.failed == traced.failed == 0
    assert traced.outputs == plain.outputs
    assert kg.analysis.stability_number is stability_number
    assert kg.root.stability_number is stability_number
    assert kg.verify.CHECKS_BY_NAME == before
    stats = tracer.summarize()
    assert stats["verify.run_checks"].calls == len(items)
    assert stats["verify.check.bipartite-zero-core"].calls == len(items)
