"""In-memory span tracer for the benchmark.

A span is ``[name, start, end, parent_index, run_id]``: ``run_id`` is the
operation the span belongs to (``"setup"`` or the operation number), so
spans of one operation share an identifier. Spans live in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Every :meth:`Tracer.span` call is counted, traced or not, so the untraced
and traced runs count the same calls. With ``enabled=False`` no span is
recorded and the context manager costs one dictionary update.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Span name -> layer (a module of src/repro/) whose self time it adds to.
LAYER_OF = {
    "gen": "workloads",
    "cuts": "cuts",
    "greedy": "greedy",
    "greedy.cutmatrix": "greedy",
    "woodblock": "woodblock",
    "rl.update": "woodblock",
    "cost": "cost",
    "qdtree.query_bids": "qdtree",
    "qdtree.route": "qdtree",
    "spark_io.write": "spark_write",
    "spark_io.read": "spark_read",
    "spark.exec": "spark_read",
    "spark.session": "session",
    "oracle": "oracle",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.run_id: str = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.calls[name] += 1
        if not self.enabled:
            yield
            return
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as span ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time over the run: a span's duration minus the
        part its child spans cover, summed by layer."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[LAYER_OF[name]] += (t1 - t0) - child[i]
        return out

    def op_spans(self) -> int:
        """Spans recorded inside measured operations (not setup)."""
        return sum(1 for s in self.spans if s[4] != "setup")

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run_id")
        with open(path, "w") as f:
            json.dump({"calls": self.calls,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, f)


def span_cost_seconds(n: int = 20000) -> float:
    """Wall time one recorded span adds, measured on a scratch tracer.

    Spans are the only work a traced run adds to an untraced one, so
    spans per operation times this cost is the tracing overhead."""
    tr = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("cost"):
            pass
    return (time.perf_counter() - t0) / n
