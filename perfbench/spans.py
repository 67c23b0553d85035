"""Span tracer for the per-layer run of the selex benchmark.

The tracer replaces a public function of a selex module with a wrapper,
at the module attribute through which its caller looks it up (for example
``selex.estimator.ordering_probability`` is the name ``conditional_log_likelihood``
resolves at call time). Each call becomes one span: name, start, end, the
enclosing traced span, the benchmark operation id, the population count
``p`` of its input and one integer attribute (grid points for the ordering
layer, iterations for a solve, failed replicates for an experiment), and
whether it raised. Spans live in flat ``array`` columns in
memory and are written out once, when the run ends; self time and the
per-layer metrics are derived from them afterwards.

Only the calling process is traced: spans from forked pool workers are not
returned, so traced runs use ``SELEX_THREADS=1``.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

NO_VALUE = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.p = array("i")
        self.attr = array("q")
        self.raised = array("b")
        self.op_id = NO_VALUE
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, module, attr: str, span: str, describe=None, keep_result=None):
        """Replace ``module.attr`` with a traced wrapper.

        ``describe(args, kwargs) -> (p, attr)`` fills the span's input columns;
        ``keep_result(value_or_exc) -> int | None`` may set the attribute from
        the outcome (a returned value, or the exception the call raised).
        """
        fn = getattr(module, attr)
        nid = self.name_id(span)

        def traced(*args, **kwargs):
            idx = len(self.start)
            p, value = describe(args, kwargs) if describe else (NO_VALUE, NO_VALUE)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else NO_VALUE)
            self.op.append(self.op_id)
            self.p.append(p)
            self.attr.append(value)
            self.raised.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = time.perf_counter()
                self.raised[idx] = 1
                if keep_result is not None:
                    self._keep(idx, keep_result(exc))
                raise
            else:
                t1 = time.perf_counter()
                if keep_result is not None:
                    self._keep(idx, keep_result(out))
                return out
            finally:
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def _keep(self, idx: int, value) -> None:
        if value is not None:
            self.attr[idx] = int(value)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "p": np.array(self.p, dtype=np.int32),
            "attr": np.array(self.attr, dtype=np.int64),
            "raised": np.array(self.raised, dtype=bool),
        }

    def write(self, path) -> None:
        """Write every span as compressed columns plus the name table."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)), **self.columns()
        )


class SpanTable:
    """Derived views of a tracer's spans: durations, self time, owners."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.p = cols["p"]
        self.attr = cols["attr"]
        self.raised = cols["raised"]
        self.dur = cols["end"] - cols["start"]
        n = self.dur.size
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        self.self_time = self.dur - child_time

    def mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self.mask(span).sum())

    def seconds(self, span: str) -> float:
        return float(self.dur[self.mask(span)].sum())

    def self_seconds(self, *spans: str) -> float:
        return float(sum(self.self_time[self.mask(s)].sum() for s in spans))

    def owner(self, *spans: str) -> np.ndarray:
        """Index of the nearest enclosing span named in ``spans`` (or the span
        itself); -1 if there is none.

        Parents are always recorded before their children, so one forward
        pass resolves every span.
        """
        targets = {self.names.index(s) for s in spans if s in self.names}
        name = self.name.tolist()
        parent = self.parent.tolist()
        out = [NO_VALUE] * len(name)
        for i, (nm, par) in enumerate(zip(name, parent)):
            if nm in targets:
                out[i] = i
            elif par >= 0:
                out[i] = out[par]
        return np.asarray(out, dtype=np.int64)
