"""Span tracer for the per-layer metrics.

The tracer wraps the public functions of each ``clifft`` module, and
the operators of its classes, from outside the library: every binding
of a wrapped object is replaced, in every ``clifft`` namespace that
imported it, and :meth:`Tracer.uninstall` puts the originals back.

Each call becomes a span (group, start, end, parent) held in memory.
A span's self time is its duration minus the durations of its direct
children; the per-layer metrics are sums of self times, of durations
of the outermost spans of a group, and of counts taken by the wrappers.
Work a wrapper does to take a count (for example counting the points
of an array below t = 1) runs in a span of its own, ``trace.count``,
so it never lands in a library layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

# Half-integer orders with closed trigonometric forms, as twice the order.
TRIG_TWICE_ORDERS = frozenset((-1, 1, 3, 5, 7, 9))


def _twice_order(order) -> int:
    twice = getattr(order, "twice_order", None)
    return twice if twice is not None else int(round(2 * float(order)))


def _count_jtilde(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    order = args[0] if args else kwargs["order"]
    t = np.asarray(args[1] if len(args) > 1 else kwargs["t"], dtype=float)
    small = int(np.count_nonzero(t < 1.0))
    big = t.size - small
    c = tracer.counts
    c["special.jtilde.points"] += t.size
    c["special.jtilde.series.points"] += small
    if _twice_order(order) in TRIG_TWICE_ORDERS:
        c["special.jtilde.trig.points"] += big
    else:
        c["special.jtilde.jv.points"] += big


def _relabel_trig(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    # The trig helper computes sin and cos before it knows whether it has
    # a closed form; a None result sends the caller to jv, so that time
    # belongs to the jv branch.
    if result is None:
        tracer.names[idx] = tracer.group("special.jtilde.jv")


def _count_eval_terms(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    tracer.counts["kernels.eval_terms.points"] += int(np.size(result))


def _count_eval_series(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    n_terms = args[3] if len(args) > 3 else kwargs["n_terms"]
    tracer.counts["series.eval_series.terms"] += int(n_terms) + 1


def _count_truncation(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    c = tracer.counts
    c["series.truncation_bound.max_n"] = max(c["series.truncation_bound.max_n"], int(result))


def _count_transform(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    ys = args[2] if len(args) > 2 else kwargs["ys"]
    rows = tracer.counts.pop("engine.transform.pending_rows", 0)
    tracer.counts["engine.transform.pairs"] += rows * np.atleast_2d(ys).shape[0]


def _count_values(tracer: "Tracer", idx: int, args, kwargs, result) -> None:
    points = args[1] if len(args) > 1 else kwargs["points"]
    tracer.counts["basis.values.points"] += int(np.asarray(points).shape[0])


_EXACT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
    "conjugate", "magnitude", "__complex__",
)
_MULTIVECTOR_OPS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "norm",
)

# (module, attribute or Class.attribute, span group, count callback)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("special", "bessel_jtilde", "special.jtilde", _count_jtilde),
    ("special", "_jtilde_trig", "special.jtilde.trig", _relabel_trig),
    ("special", "_jv", "special.jtilde.jv", None),
    *(
        ("special", name, "special.orthopoly", None)
        for name in (
            "gegenbauer_all", "gegenbauer", "chebyshev_t_all", "chebyshev_t",
            "chebyshev_u_all", "laguerre",
        )
    ),
    ("kernels", "eval_terms", "kernels.eval_terms", _count_eval_terms),
    ("kernels", "eval_kernel", "kernels.eval_kernel", None),
    *(
        ("kernels", name, "kernels.calculus", None)
        for name in (
            "add_terms", "scale_terms", "shift_s", "apply_zinv_dw", "terms_equal",
            "ftilde_terms", "fhat_terms", "g_terms",
        )
    ),
    ("kernels", "verify_recursion", "kernels.checks", None),
    ("kernels", "verify_structural_identities", "kernels.checks", None),
    ("kernels", "pde_residual", "kernels.pde", None),
    ("series", "eval_series", "series.eval_series", _count_eval_series),
    ("series", "truncation_bound", "series.truncation_bound", _count_truncation),
    *(
        ("series", name, "series.streams", None)
        for name in (
            "series_coefficients", "eigenvalues_from_coefficients",
            "inverse_coefficients", "check_cf_constraint",
            "SeriesCoefficients.alpha_exact", "SeriesCoefficients.beta_exact",
            "SeriesCoefficients.lambda_exact",
        )
    ),
    ("engine", "apply_transform_batch", "engine.transform", _count_transform),
    ("engine", "default_scheme", "engine.scheme", None),
    ("engine", "bochner_reduce", "engine.radial", None),
    ("engine", "_radial_bessel_integral", "engine.radial", None),
    ("engine", "verify_eigen", "engine.verify", None),
    ("engine", "verify_inversion", "engine.verify", None),
    ("engine", "inversion_composition_residual", "engine.verify", None),
    *(("exact", f"Exact.{op}", "exact", None) for op in _EXACT_OPS),
    ("basis", "harmonic_basis", "basis.harmonic_basis", None),
    *(
        ("basis", name, "basis.calculus", None)
        for name in ("monogenic_basis", "monogenic_projection", "dirac", "x_times", "laplace")
    ),
    ("basis", "psi", "basis.psi", None),
    ("basis", "BasisFunction.values", "basis.values", _count_values),
    ("basis", "GaussianPolynomial.values", "basis.values", _count_values),
    *(("algebra", f"Multivector.{op}", "algebra", None) for op in _MULTIVECTOR_OPS),
    *(
        ("algebra", name, "algebra", None)
        for name in (
            "geometric_product", "invariants_of", "wedge",
            "ParaBivector.from_geometry", "ParaBivector.to_multivector",
        )
    ),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; ``clock`` is replaceable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, run_id: str = ""):
        self.clock = clock
        self.run_id = run_id
        self.group_names: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._count_gid = self.group("trace.count")

    # -- spans -----------------------------------------------------------

    def group(self, name: str) -> int:
        gid = self._group_ids.get(name)
        if gid is None:
            gid = self._group_ids[name] = len(self.group_names)
            self.group_names.append(name)
        return gid

    def open(self, gid: int) -> int:
        idx = len(self.names)
        self.names.append(gid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[gid] == 0)
        self._depth[gid] += 1
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()
        self._depth[self.names[idx]] -= 1

    def call(self, gid: int, fn, args, kwargs, count=None):
        """Run fn(*args, **kwargs) in a span, then take its count."""
        idx = self.open(gid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        if count is not None:
            cidx = self.open(self._count_gid)
            try:
                count(self, idx, args, kwargs, result)
            finally:
                self.close(cidx)
        return result

    @contextlib.contextmanager
    def span(self, group: str):
        idx = self.open(self.group(group))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, group: str, count=None):
        gid = self.group(group)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(gid, fn, args, kwargs, count)

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ``clifft`` namespace bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "clifft" or name.startswith("clifft."))
        ]
        for mod_name, attr, group, count in TARGETS:
            owner_mod = importlib.import_module(f"clifft.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(owner_mod, cls_name), meth, group, count)
                continue
            original = getattr(owner_mod, attr)
            self._originals[f"{mod_name}.{attr}"] = original
            wrapper = self.wrap(original, group, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        self._patch_chunks(importlib.import_module("clifft.engine").QuadratureScheme)

    def _patch_method(self, cls, meth: str, group: str, count) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self.wrap(raw.__func__, group, count))
        else:
            patched = self.wrap(raw, group, count)
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, patched)

    def _patch_chunks(self, cls) -> None:
        # A generator's body runs between the consumer's statements, so it
        # gets counts but no span.
        raw = cls.__dict__["chunks"]
        counts = self.counts

        @functools.wraps(raw)
        def chunks(scheme, *args, **kwargs):
            for pts, wts in raw(scheme, *args, **kwargs):
                counts["engine.transform.chunks"] += 1
                counts["engine.transform.pending_rows"] += len(pts)
                yield pts, wts

        self._patches.append((cls, "chunks", raw))
        cls.chunks = chunks

    def original(self, key: str):
        """The unwrapped object of a module-level target, e.g. 'basis.psi'."""
        return self._originals[key]

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names, dtype=np.int32),
            "starts": np.asarray(self.starts, dtype=float),
            "ends": np.asarray(self.ends, dtype=float),
            "parents": np.asarray(self.parents, dtype=np.int64),
            "outer": np.asarray(self.outer, dtype=bool),
        }

    def group_totals(self) -> dict[str, dict[str, float]]:
        """Per group: calls, self time, and duration of outermost spans."""
        a = self.arrays()
        n_groups = len(self.group_names)
        dur = a["ends"] - a["starts"]
        has_parent = a["parents"] >= 0
        child_time = np.bincount(
            a["parents"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        calls = np.bincount(a["names"], minlength=n_groups)
        self_s = np.bincount(a["names"], weights=self_time, minlength=n_groups)
        incl_s = np.bincount(a["names"], weights=dur * a["outer"], minlength=n_groups)
        return {
            name: {"calls": int(calls[g]), "self_s": float(self_s[g]), "s": float(incl_s[g])}
            for g, name in enumerate(self.group_names)
        }

    def inside(self, group: str, ancestor: str) -> float:
        """Total duration of outermost ``group`` spans that run inside an
        ``ancestor`` span."""
        gid = self._group_ids.get(group)
        aid = self._group_ids.get(ancestor)
        if gid is None or aid is None:
            return 0.0
        within = np.zeros(len(self.names), dtype=bool)
        total = 0.0
        for idx, (name, parent) in enumerate(zip(self.names, self.parents)):
            inherited = parent >= 0 and (within[parent] or self.names[parent] == aid)
            within[idx] = inherited
            if inherited and name == gid and self.outer[idx]:
                total += self.ends[idx] - self.starts[idx]
        return total

    def save(self, path) -> None:
        """Write the spans, with the group table and run id, as .npz."""
        np.savez_compressed(
            path, groups=np.asarray(self.group_names), run_id=np.asarray(self.run_id),
            **self.arrays(),
        )


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("special.jtilde.calls", "count"),
    ("special.jtilde.points", "count"),
    ("special.jtilde.series.points", "count"),
    ("special.jtilde.trig.points", "count"),
    ("special.jtilde.jv.points", "count"),
    ("special.jtilde.s", "s"),
    ("special.jtilde.self_s", "s"),
    ("special.jtilde.trig.s", "s"),
    ("special.jtilde.jv.s", "s"),
    ("special.jtilde.calls_per_call", "count"),
    ("special.jtilde.points_per_call", "count"),
    ("special.jtilde.us_per_call", "us"),
    ("special.orthopoly.s", "s"),
    ("kernels.eval_terms.calls", "count"),
    ("kernels.eval_terms.points", "count"),
    ("kernels.eval_terms.self_s", "s"),
    ("kernels.eval_kernel.calls", "count"),
    ("kernels.calculus.s", "s"),
    ("series.eval_series.calls", "count"),
    ("series.eval_series.terms", "count"),
    ("series.eval_series.self_s", "s"),
    ("series.truncation_bound.s", "s"),
    ("series.truncation_bound.max_n", "count"),
    ("series.streams.s", "s"),
    ("engine.transform.calls", "count"),
    ("engine.transform.pairs", "count"),
    ("engine.transform.chunks", "count"),
    ("engine.transform.profile_s", "s"),
    ("engine.transform.self_s", "s"),
    ("engine.radial.s", "s"),
    ("engine.scheme.s", "s"),
    ("exact.ops", "count"),
    ("exact.s", "s"),
    ("basis.harmonic_basis.builds", "count"),
    ("basis.harmonic_basis.s", "s"),
    ("basis.psi.s", "s"),
    ("basis.values.points", "count"),
    ("basis.values.s", "s"),
    ("algebra.mv_ops", "count"),
    ("algebra.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bench_s", "s"),
    ("trace.count_s", "s"),
    ("trace.accounted_share", "1"),
    ("trace.spans", "count"),
)


def layer_metrics(tracer: Tracer, wall_s: float, n_calls: int, harmonic_builds: int) -> dict:
    """Per-layer metrics of one traced pass, except ``trace.overhead_s``,
    which needs an untraced pass to compare with.

    ``wall_s`` is the traced time the spans should account for and
    ``n_calls`` the number of workload calls the per-call figures divide by.
    """
    g = tracer.group_totals()
    zero = {"calls": 0, "self_s": 0.0, "s": 0.0}

    def get(group: str, key: str):
        return g.get(group, zero)[key]

    c = tracer.counts
    per_call = max(n_calls, 1)
    out = {
        "special.jtilde.calls": get("special.jtilde", "calls"),
        "special.jtilde.points": c["special.jtilde.points"],
        "special.jtilde.series.points": c["special.jtilde.series.points"],
        "special.jtilde.trig.points": c["special.jtilde.trig.points"],
        "special.jtilde.jv.points": c["special.jtilde.jv.points"],
        "special.jtilde.s": get("special.jtilde", "s"),
        "special.jtilde.self_s": get("special.jtilde", "self_s"),
        "special.jtilde.trig.s": get("special.jtilde.trig", "s"),
        "special.jtilde.jv.s": get("special.jtilde.jv", "s"),
        "special.jtilde.calls_per_call": get("special.jtilde", "calls") / per_call,
        "special.jtilde.points_per_call": c["special.jtilde.points"] / per_call,
        "special.jtilde.us_per_call": 1e6 * get("special.jtilde", "s") / per_call,
        "special.orthopoly.s": get("special.orthopoly", "s"),
        "kernels.eval_terms.calls": get("kernels.eval_terms", "calls"),
        "kernels.eval_terms.points": c["kernels.eval_terms.points"],
        "kernels.eval_terms.self_s": get("kernels.eval_terms", "self_s"),
        "kernels.eval_kernel.calls": get("kernels.eval_kernel", "calls"),
        "kernels.calculus.s": get("kernels.calculus", "s"),
        "series.eval_series.calls": get("series.eval_series", "calls"),
        "series.eval_series.terms": c["series.eval_series.terms"],
        "series.eval_series.self_s": get("series.eval_series", "self_s"),
        "series.truncation_bound.s": get("series.truncation_bound", "s"),
        "series.truncation_bound.max_n": c["series.truncation_bound.max_n"],
        "series.streams.s": get("series.streams", "s"),
        "engine.transform.calls": get("engine.transform", "calls"),
        "engine.transform.pairs": c["engine.transform.pairs"],
        "engine.transform.chunks": c["engine.transform.chunks"],
        "engine.transform.profile_s": tracer.inside("kernels.eval_terms", "engine.transform"),
        "engine.transform.self_s": get("engine.transform", "self_s"),
        "engine.radial.s": get("engine.radial", "s"),
        "engine.scheme.s": get("engine.scheme", "s"),
        "exact.ops": get("exact", "calls"),
        "exact.s": get("exact", "s"),
        "basis.harmonic_basis.builds": harmonic_builds,
        "basis.harmonic_basis.s": get("basis.harmonic_basis", "s"),
        "basis.psi.s": get("basis.psi", "s"),
        "basis.values.points": c["basis.values.points"],
        "basis.values.s": get("basis.values", "s"),
        "algebra.mv_ops": get("algebra", "calls"),
        "algebra.s": get("algebra", "s"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.wall_s": wall_s,
        "trace.bench_s": sum(v["self_s"] for k, v in g.items() if k.startswith("bench.")),
        "trace.count_s": get("trace.count", "self_s"),
        "trace.accounted_share": sum(v["self_s"] for v in g.values()) / wall_s,
        "trace.spans": sum(
            v["calls"] for k, v in g.items() if not k.startswith(("bench.", "probe.", "trace."))
        ),
    }
    return out
