"""In-memory spans around calls into starwedge's public functions.

The tracer wraps module-level functions and methods of the package from the
benchmark's side: it rebinds each target in every ``starwedge`` module that
holds it (so calls between modules and calls from the benchmark are seen)
and puts the original back afterwards.  The program carries no tracing code.

A span records its name, start, end, the index of the span that caused it
and the index of the op it belongs to.  A call of a traced function from
inside its own span (recursion) opens no new span, so ``busy_s`` counts each
outermost call once.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _unconverged(tracer, args, kwargs, result) -> None:
    if not result.converged:
        tracer.counters["quadrature.mode_integral.unconverged"] += 1


def _rows(tracer, args, kwargs, result) -> None:
    tracer.counters["spectrum.rows"] += len(result.rows)


def _bytes(tracer, args, kwargs, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counters["config.atomic_write_text.bytes"] += len(text.encode("utf-8"))


# (module, attribute, hook run on each outermost call's result)
FUNCTIONS = [
    ("quadrature", "mode_integral", _unconverged),
    ("quadrature", "damped_mode_integral", None),
    ("gammafn", "complex_gamma", None),
    ("spectrum", "f_closed", None),
    ("spectrum", "f_quadrature", None),
    ("spectrum", "deformed_power", None),
    ("spectrum", "compute_spectrum", _rows),
    ("expr", "simplify", None),
    ("expr", "differentiate", None),
    ("expr", "substitute", None),
    ("expr", "eval_numeric", None),
    ("expr", "equality_probe", None),
    ("diffop", "wedge", None),
    ("twists", "build_linear_twist", None),
    ("starprod", "build_table", None),
    ("starprod", "commutator", None),
    ("rindler", "inverse_map_numeric", None),
    ("grammar", "to_text", None),
    ("config", "load_config", None),
    ("config", "atomic_write_text", _bytes),
]

# (module, class, method)
METHODS = [
    ("diffop", "BidiffOp", "apply"),
    ("diffop", "DiffOp", "apply"),
    ("rindler", "RindlerMap", "metric_pullback"),
]


class Tracer:
    """Span and counter store for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                active = False
            tracer.counters[f"{name}.calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; calls made after this are traced."""
        modules = [m for n, m in list(sys.modules.items()) if n == "starwedge" or n.startswith("starwedge.")]
        for mod_name, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[f"starwedge.{mod_name}"], attr)
            traced = self.wrap(f"{mod_name}.{attr}", original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, traced)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"starwedge.{mod_name}"], cls_name)
            self._rebind(cls, attr, self.wrap(f"{mod_name}.{cls_name}.{attr}", vars(cls)[attr]))
        verification = sys.modules["starwedge.verification"]
        self._rebind(
            verification,
            "_check_flat_relations",
            self.wrap("verification.flat_relations", verification._check_flat_relations),
        )
        checks = verification._CHECKS
        self._undo.append((checks, None, list(checks)))
        checks[:] = [(n, self.wrap(f"verification.{n}", fn)) for n, fn in checks]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)

    def summary(self, first_span: int, first_counters: dict[str, int]) -> dict[str, float]:
        """Per-layer totals of the spans and counters recorded since a mark."""
        out: dict[str, float] = {k: v - first_counters.get(k, 0) for k, v in self.counters.items()}
        spans = self.spans[first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans, first_span):
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child_time[i]
        return out
