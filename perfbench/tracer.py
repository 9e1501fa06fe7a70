"""Out-of-program tracing for the sliceseg benchmark.

A :class:`Tracer` wraps public functions of the sliceseg layers from
outside. Each wrapper is installed under every name a caller looks the
function up by (``sliceseg.training.backward`` as well as
``sliceseg.autodiff.backward``), records a span per call, and the
originals are put back on exit, so an untraced run executes no
instrumentation. Structured ops additionally get their backward closure
timed, and convolutions report their multiply-accumulate count through
the public ``ops.cost_trace`` hook.

Spans nest: a span's self time is its duration minus the durations of the
spans opened while it ran.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped as plain spans named "<module>.<function>".
FUNCTIONS = (
    ("phantom", "generate_cohort"),
    ("volio", "save_case"), ("volio", "load_case"),
    ("config", "load_config"), ("config", "save_config"), ("config", "expand_grid"),
    ("cli", "run_grid"), ("cli", "load_source"), ("cli", "source_fingerprint"),
    ("cli", "write_aggregate"),
    ("data", "augment"), ("data", "make_folds"),
    ("models", "assemble_model"),
    ("losses", "combined_loss"),
    ("autodiff", "backward"),
    ("training", "run_training"), ("training", "validate"), ("training", "evaluate"),
    ("training", "predict_volume"), ("training", "adam_step"), ("training", "build_samples"),
    ("analysis", "cost_report"),
)
# (class in sliceseg.models, span name) whose ``forward`` method is wrapped.
METHODS = (
    ("SegmentationModel", "models.forward"),
    ("TransitionBlock", "models.transition_fwd"),
    ("EncoderDecoder", "models.backbone_fwd"),
)
# Structured ops whose forward and backward closure are both timed.
RESAMPLE_OPS = ("maxpool_with_indices", "max_unpool", "upsample_nearest")
# The test-only module is never patched.
SKIP_MODULES = ("sliceseg.gradcheck",)


class Tracer:
    """Span and counter accounting for one traced phase.

    Use as a context manager around the code to trace; ``busy``,
    ``self_time`` and ``calls`` map span names to seconds and call counts,
    ``counts`` holds ``conv_macs`` and ``graph_nodes``.
    """

    def __init__(self, package):
        self.package = package
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.patches: list[tuple[object, str, object]] = []
        self._child_time: list[float] = []
        self._cost_records: list | None = None

    # -- accounting -----------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            children = self._child_time.pop()
            self.busy[name] += dt
            self.self_time[name] += dt - children
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += dt

    def _time_backward(self, node, name: str) -> None:
        closure = node._backward
        if closure is not None:
            node._backward = lambda g: self.timed(name, closure, g)

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)
        return wrapper

    def _model_forward(self, fn):
        topo_order = self.package.autodiff.topo_order

        @functools.wraps(fn)
        def forward(model, *args, **kwargs):
            out = self.timed("models.forward", fn, model, *args, **kwargs)
            self.counts["graph_nodes"] += len(topo_order(out))
            return out
        return forward

    def _conv_forward(self, fn, cost_trace):
        @functools.wraps(fn)
        def conv_forward(x, w, *args, **kwargs):
            name = f"ops.conv{w.data.ndim - 2}d"
            # A cost_trace opened by the program (analysis.cost_report) must
            # keep receiving its records, so ours are read from its list.
            records = self._cost_records
            if records is None:
                records = []
                with cost_trace(records):
                    out = self.timed(f"{name}_fwd", fn, x, w, *args, **kwargs)
            else:
                out = self.timed(f"{name}_fwd", fn, x, w, *args, **kwargs)
            self.counts["conv_macs"] += records[-1].macs
            self._time_backward(out, f"{name}_bwd")
            return out
        return conv_forward

    def _op(self, fn, name: str):
        @functools.wraps(fn)
        def op(*args, **kwargs):
            result = self.timed(f"{name}_fwd", fn, *args, **kwargs)
            self._time_backward(result[0] if isinstance(result, tuple) else result,
                                f"{name}_bwd")
            return result
        return op

    def _cost_trace(self, fn):
        @contextlib.contextmanager
        def cost_trace(records):
            outer = self._cost_records
            self._cost_records = records
            try:
                with fn(records) as r:
                    yield r
            finally:
                self._cost_records = outer
        return functools.wraps(fn)(cost_trace)

    # -- install / restore ------------------------------------------------

    def _wrappers(self) -> dict[int, tuple[object, object]]:
        pkg = self.package
        ops = pkg.ops
        table = {}
        for module, attr in FUNCTIONS:
            fn = getattr(getattr(pkg, module), attr)
            table[id(fn)] = (fn, self._span(fn, f"{module}.{attr}"))
        table[id(ops.conv_forward)] = (ops.conv_forward,
                                       self._conv_forward(ops.conv_forward, ops.cost_trace))
        table[id(ops.batch_norm)] = (ops.batch_norm, self._op(ops.batch_norm, "ops.batch_norm"))
        for attr in RESAMPLE_OPS:
            fn = getattr(ops, attr)
            table[id(fn)] = (fn, self._op(fn, f"ops.{attr}"))
        table[id(ops.cost_trace)] = (ops.cost_trace, self._cost_trace(ops.cost_trace))
        return table

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        table = self._wrappers()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sliceseg" or n.startswith("sliceseg.")) and n not in SKIP_MODULES]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = table.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        models = self.package.models
        for cls_name, span in METHODS:
            cls = getattr(models, cls_name)
            fn = cls.__dict__["forward"]
            wrapper = self._model_forward(fn) if span == "models.forward" else self._span(fn, span)
            self._patch(cls, "forward", wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def total_self_time(self) -> float:
        return sum(self.self_time.values())
