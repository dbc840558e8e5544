"""A span tracer that lives outside the program it measures.

The ledger may not edit ``src/repro``, so layer boundaries are marked from
here: :meth:`LedgerTracer.wrap` replaces a public method *by attribute* with
a wrapper that records one span per call — layer name, start, end and the
span that was open when it started — in a plain in-memory list.  A layer's
self time is its spans' duration minus the part their child spans cover, so
the self times of all layers add up to the duration of the root spans (one
root per measured op).

Single-threaded by design: every traced workload runs its ops on one
thread, and the wire workload is traced through its in-process replay.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator

_MISSING = object()


class LedgerTracer:
    """Records spans around wrapped callables and sums them per layer."""

    def __init__(self) -> None:
        # one [layer, start, end, parent_index] record per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[type, str, Any]] = []

    def span(self, fn: Callable, layer: str, after: Callable[[Any], None] | None = None):
        """``fn`` wrapped so each call records one ``layer`` span.

        ``after`` sees every result once the span has closed, for counts
        taken at the same boundary (touches per stream, rows per batch).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def wrap(
        self,
        owner: type,
        attr: str,
        layer: str | None,
        after: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` until :meth:`installed` exits.

        With ``layer=None`` no span is recorded and only ``after`` runs —
        a counter at a boundary that already lies inside another span.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        if layer is not None:
            replacement = self.span(original, layer, after)
        else:

            @wraps(original)
            def replacement(*args, **kwargs):
                result = original(*args, **kwargs)
                after(result)
                return result

        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self, install: Callable[["LedgerTracer"], None]) -> Iterator[None]:
        """Apply ``install``'s wraps for the duration of the block."""
        install(self)
        try:
            yield
        finally:
            while self._patches:
                owner, attr, saved = self._patches.pop()
                if saved is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, saved)

    def drain(self) -> dict[str, dict[str, float]]:
        """Per-layer ``{"self_s", "total_s", "calls"}``; clears the spans.

        The pseudo-layer ``"*"`` holds the root spans: its ``total_s`` is
        what every layer's ``self_s`` must add up to.
        """
        layers: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        spans = self.spans
        for layer, start, end, parent in spans:
            duration = end - start
            entry = layers[layer]
            entry["self_s"] += duration
            entry["total_s"] += duration
            entry["calls"] += 1
            if parent >= 0:
                layers[spans[parent][0]]["self_s"] -= duration
            else:
                root = layers["*"]
                root["total_s"] += duration
                root["calls"] += 1
        spans.clear()
        return dict(layers)
