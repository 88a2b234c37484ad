import importlib
import time

import numpy as np

import clifft
from clifft.kernels import KernelId
from tracer import TARGETS, Tracer, layer_metrics

MODULES = [importlib.import_module(f"clifft.{name}") for name in
           ("algebra", "basis", "cli", "engine", "exact", "kernels", "series", "special")]


def _bindings(obj):
    """Every (namespace, name) of clifft that binds obj."""
    return {(mod.__name__, name) for mod in [clifft, *MODULES]
            for name, value in vars(mod).items() if value is obj}


def test_wrappers_reach_every_namespace_that_imported_the_name():
    originals = {
        "bessel_jtilde": clifft.special.bessel_jtilde,
        "eval_terms": clifft.kernels.eval_terms,
        "eval_series": clifft.series.eval_series,
    }
    expected = {
        "bessel_jtilde": {"clifft", "clifft.special", "clifft.kernels", "clifft.series", "clifft.engine"},
        "eval_terms": {"clifft.kernels", "clifft.engine"},
        "eval_series": {"clifft", "clifft.series", "clifft.engine"},
    }
    for name, obj in originals.items():
        assert expected[name] <= {ns for ns, _ in _bindings(obj)}
    tracer = Tracer()
    tracer.install()
    try:
        for name, obj in originals.items():
            assert not _bindings(obj), f"{name} still unwrapped somewhere"
            wrapper = clifft.engine.__dict__[name]
            assert wrapper is not obj and wrapper.__wrapped__ is obj
            for ns in expected[name]:
                assert vars(importlib.import_module(ns))[name] is wrapper
        for mod_name, attr, _, _ in TARGETS:
            if "." not in attr:
                assert not _bindings(tracer.original(f"{mod_name}.{attr}")), attr
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_original():
    module_objs = {
        (mod_name, attr): getattr(importlib.import_module(f"clifft.{mod_name}"), attr)
        for mod_name, attr, _, _ in TARGETS if "." not in attr
    }
    bindings = {key: _bindings(obj) for key, obj in module_objs.items()}
    class_raw = {}
    for mod_name, attr, _, _ in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"clifft.{mod_name}"), cls_name)
            class_raw[(cls, meth)] = cls.__dict__[meth]
    chunks = clifft.engine.QuadratureScheme.__dict__["chunks"]

    tracer = Tracer()
    tracer.install()
    assert clifft.kernels.bessel_jtilde is not module_objs[("special", "bessel_jtilde")]
    assert clifft.exact.Exact.__dict__["__add__"] is not class_raw[(clifft.exact.Exact, "__add__")]
    tracer.uninstall()

    assert clifft.kernels.bessel_jtilde is module_objs[("special", "bessel_jtilde")]
    for key, obj in module_objs.items():
        assert _bindings(obj) == bindings[key], key
    for (cls, meth), raw in class_raw.items():
        assert cls.__dict__[meth] is raw, (cls, meth)
    assert clifft.engine.QuadratureScheme.__dict__["chunks"] is chunks


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    totals = tracer.group_totals()
    assert totals["a"] == {"calls": 1, "self_s": 7.0, "s": 10.0}
    assert totals["b"] == {"calls": 1, "self_s": 2.0, "s": 3.0}
    assert totals["c"] == {"calls": 1, "self_s": 1.0, "s": 1.0}


def test_nested_spans_of_one_group_are_not_counted_twice():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("x"):
        with tracer.span("x"):
            pass
    assert tracer.group_totals()["x"] == {"calls": 2, "self_s": 10.0, "s": 10.0}


def test_counting_work_is_charged_to_its_own_span():
    now = [0.0]

    def clock():
        return now[0]

    def work():
        now[0] += 3.0

    def count(tracer, idx, args, kwargs, result):
        now[0] += 1.0

    tracer = Tracer(clock=clock)
    traced = tracer.wrap(work, "layer", count)
    with tracer.span("caller"):
        traced()
    totals = tracer.group_totals()
    assert totals["layer"]["self_s"] == 3.0
    assert totals["trace.count"]["self_s"] == 1.0
    assert totals["caller"]["self_s"] == 0.0


def test_traced_call_is_fully_accounted_and_bypasses_the_grid():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1.6, 1.6, 4), rng.uniform(-1.6, 1.6, 4)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.job"):
            clifft.kernels.pde_residual(KernelId(4, 2), x, y)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, wall, 1, 0)
    assert abs(metrics["trace.accounted_share"] - 1.0) < 0.01
    assert metrics["engine.transform.calls"] == 0
    assert metrics["special.jtilde.calls"] >= metrics["kernels.eval_terms.calls"] > 0
    assert metrics["kernels.eval_kernel.calls"] == 4 * 4 + 1
    assert metrics["algebra.mv_ops"] > 0
    assert metrics["special.jtilde.points"] == (
        metrics["special.jtilde.series.points"]
        + metrics["special.jtilde.trig.points"]
        + metrics["special.jtilde.jv.points"]
    )
