"""Span tracing of cfspn's public functions, installed from outside the package.

``Tracer`` replaces every public function of the traced modules, and the
public methods of the classes they define, with a wrapper that records a
span: name, layer, parent span, start, end and the number of input rows.
Names bound by ``from .x import f`` in other cfspn modules are rebound too,
so a call is traced whichever module makes it.  Spans stay in memory until
``write_jsonl``; nothing is written while the traced work runs.

``layer_metrics`` turns the spans into the per-layer numbers the benchmark
reports.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("engine", "inference", "grad", "counterfactual", "training",
          "structure", "circuit")

FORWARD = "engine.CompiledCircuit.forward"
BACKWARD = "engine.CompiledCircuit.backward"
COMPILE = "engine.compile"             # CompiledCircuit construction
COMPILE_CALL = "engine.compile_circuit"
GENERATE = "counterfactual.generate"


@dataclass
class Span:
    id: int
    parent: int | None
    root: int                 # id of the outermost span of the same call tree
    name: str
    layer: str
    start: float
    end: float = float("nan")
    rows: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rows(name: str, args: tuple, kwargs: dict) -> int | None:
    """Input rows of one call: 1 for a single point, B for a (B, d) batch."""
    if name == BACKWARD:
        V = args[1] if len(args) > 1 else kwargs["V"]
        return int(V.shape[1])
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim in (1, 2):
            return 1 if value.ndim == 1 else int(value.shape[0])
    return None


class Tracer:
    """Records spans around cfspn's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._open[-1] if tracer._open else None
            span = Span(id=len(tracer.spans),
                        parent=None if parent is None else parent.id,
                        root=len(tracer.spans) if parent is None else parent.root,
                        name=name, layer=layer, start=0.0,
                        rows=_rows(name, args, kwargs))
            tracer.spans.append(span)
            tracer._open.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()

        return traced

    def _targets(self):
        """(owner, attribute, span name) for every function to trace."""
        for layer in LAYERS:
            module = importlib.import_module(f"cfspn.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            yield obj, meth, f"{layer}.{attr}.{meth}"
        engine = importlib.import_module("cfspn.engine")
        yield engine.CompiledCircuit, "__init__", COMPILE

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items()
                   if n == "cfspn" or n.startswith("cfspn.")]
        for owner, attr, name in list(self._targets()):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # rebind copies made by ``from .module import name``
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, alias, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Context in which traced functions run without recording spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times derived from one traced run's spans."""
    by_id = {s.id: s for s in spans}
    child_seconds: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s.layer] += s.seconds - child_seconds[s.id]

    def entries(layer: str) -> list[Span]:
        """Calls into a layer from outside it that take input points."""
        return [s for s in spans if s.layer == layer and s.rows is not None
                and (s.parent is None or by_id[s.parent].layer != layer)]

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    # nearest enclosing two-step query of each span
    query_of: dict[int, int | None] = {}
    for s in spans:
        inherited = None if s.parent is None else query_of[s.parent]
        query_of[s.id] = s.id if s.name == GENERATE else inherited
    queries = max(len(named(GENERATE)), 1)

    def per_query(selected: list[Span], weight=lambda s: 1) -> float:
        return sum(weight(s) for s in selected
                   if query_of[s.id] is not None) / queries

    forward, backward = named(FORWARD), named(BACKWARD)
    compile_calls = named(COMPILE_CALL)
    fresh = sum(1 for s in named(COMPILE)
                if s.parent is not None and by_id[s.parent].name == COMPILE_CALL)
    fits = named("training.fit")
    fit_s = sum(s.seconds for s in fits)
    fit_ids = {s.id for s in fits}
    fit_engine_s = sum(s.seconds for s in spans
                       if s.layer == "engine" and s.parent in fit_ids)
    grad_entries = entries("grad")
    inference_entries = entries("inference")
    return {
        "engine.forward.self_s": sum(s.seconds - child_seconds[s.id] for s in forward),
        "engine.forward.calls": len(forward),
        "engine.forward.rows": sum(s.rows for s in forward),
        "engine.backward.self_s": sum(s.seconds - child_seconds[s.id] for s in backward),
        "engine.backward.calls": len(backward),
        "engine.backward.rows": sum(s.rows for s in backward),
        "engine.compile.s": sum(s.seconds for s in named(COMPILE)),
        "engine.compile.hit_ratio": ((len(compile_calls) - fresh) / len(compile_calls)
                                     if compile_calls else float("nan")),
        "counterfactual.forward_per_query": per_query(forward),
        "counterfactual.backward_per_query": per_query(backward),
        "counterfactual.grad_evals_per_query": per_query(
            grad_entries, weight=lambda s: s.rows),
        "counterfactual.self_s": self_s["counterfactual"],
        "inference.calls": len(inference_entries),
        "inference.rows": sum(s.rows for s in inference_entries),
        "inference.self_s": self_s["inference"],
        "grad.calls": len(grad_entries),
        "grad.self_s": self_s["grad"],
        "grad.evals": sum(s.rows for s in grad_entries),
        "training.fit.s": fit_s,
        "training.self_s": self_s["training"],
        "training.engine_share": fit_engine_s / fit_s if fit_s else float("nan"),
        "structure.build.s": sum(s.seconds for s in named("structure.build_circuit")),
        "circuit.validate.s": sum(s.seconds for s in named("circuit.validate")),
        "circuit.save.s": sum(s.seconds for s in named("circuit.save")),
        "circuit.load.s": sum(s.seconds for s in named("circuit.load")),
    }
