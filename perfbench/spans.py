"""In-memory spans and FFT call counting for the traced run.

A span is (name, start, end, parent span id, request id). Spans are
recorded by the benchmark around calls into the package's public
functions and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.request)

    def durations(self, name: str, probe: bool) -> list[float]:
        """Span durations in seconds, from the fixed probe set or from
        the workload's own requests."""
        return [
            end - start
            for n, start, end, _, req in self.spans
            if n == name and str(req).startswith("probe") == probe
        ]

    def per_request(self, name: str, probe: bool) -> dict:
        out: dict = {}
        for n, start, end, _, req in self.spans:
            if n == name and str(req).startswith("probe") == probe:
                out.setdefault(req, []).append(end - start)
        return out

    def median(self, name: str) -> tuple[float, str]:
        """Median duration, preferring the workload's own spans."""
        own = self.durations(name, probe=False)
        if own:
            return statistics.median(own), "workload"
        return statistics.median(self.durations(name, probe=True)), "probe"

    def dump(self, path) -> None:
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "request": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump(rows, f)


class NullTracer:
    request = None

    def span(self, name: str):
        return nullcontext()


FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


class FftCounter:
    """Counts calls at the numpy.fft and scipy.fft entry points while
    ``active``; bytes are the input array sizes (computed, not measured)."""

    def __init__(self) -> None:
        self.active = False
        self.calls = 0
        self.bytes = 0

    def install(self) -> None:
        import numpy as np
        import numpy.fft
        import scipy.fft

        for module in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self._wrap(fn, np))

    def _wrap(self, fn, np):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            if self.active:
                self.calls += 1
                self.bytes += np.asarray(x).nbytes
            return fn(x, *args, **kwargs)

        return counted

    @contextmanager
    def counting(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def take(self) -> tuple[int, int]:
        out = (self.calls, self.bytes)
        self.calls = self.bytes = 0
        return out
