"""Spans around the calls into each layer, made by wrapping the program's
functions in place.

The pipeline looks up ``run_sampler``, ``run_sem``, the report functions and
the ``io`` writers by name at call time, so replacing those names for the
length of one round records the pipeline's own calls in its own order; none
of its orchestration is repeated here.  Only the outermost wrapped call of a
nest counts towards a layer, so layer times never overlap.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (module attribute of transdim, function names, layer)
TARGETS = (
    ("pipeline", ("run_sampler",), "rjmcmc"),
    ("pipeline", ("run_sem",), "sem"),
    ("sem", ("run_sem",), "sem"),
    (
        "pipeline",
        ("bms_summary", "make_summary_table", "bma_intensity",
         "background_intensity", "mixture_pdf"),
        "report",
    ),
    (
        "io",
        ("write_y_csv", "write_sample_set", "write_acceptance", "write_model",
         "write_trace_csv", "write_allocations", "write_summary_table",
         "write_intensities"),
        "io",
    ),
)


class Tracer:
    """Records spans (name, start, end, parent) in memory and the time each
    layer was busy in the current round."""

    def __init__(self, transdim_package):
        self._pkg = transdim_package
        self.spans: list[dict] = []
        self.layer_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, fn, layer: str, name: str):
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": f"{layer}.{name}", "parent": parent})
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id].update(start=start, end=end)
                if len(self._stack) == 1:  # called by the round itself
                    self.layer_s[layer] += end - start

        return traced

    @contextlib.contextmanager
    def round(self, round_index: int):
        """Wrap every target for one round; the layer times start at zero."""
        self.layer_s = defaultdict(float)
        root = len(self.spans)
        self.spans.append({"id": root, "name": f"round.{round_index}", "parent": None})
        self._stack = [root]
        saved = []
        try:
            for module_name, names, layer in TARGETS:
                module = getattr(self._pkg, module_name)
                for name in names:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(fn, layer, name))
            start = time.perf_counter()
            yield
            self.spans[root].update(start=start, end=time.perf_counter())
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)
