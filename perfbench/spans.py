"""In-memory spans recorded around calls into fraccq's layers.

The program records nothing itself: the benchmark replaces a function or
method with a wrapper that opens a span, calls the original and closes the
span, and puts the original back afterwards. fastcq looks its collaborators
up as module attributes at call time, so a wrapper set on
``fraccq.smallmat.eig_small`` is what ``fast_solve`` calls.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    """Spans with name, start, end and parent, kept in memory.

    ``patch`` installs a wrapper on a module or instance attribute and
    ``restore`` puts every original back, last patch first.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        """Start a span; returns the token ``close`` needs."""
        stack = self._stack()
        span_id = next(self._ids)  # itertools.count is atomic under the GIL
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name, token, size=None):
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
        if size is not None:
            record["size"] = size
        self.spans.append(record)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, name, size=None):
        """Record one span; ``size`` is an optional work count (tasks, calls)."""
        token = self.open()
        try:
            yield
        finally:
            self.close(name, token, size)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, token)
        return traced

    def patch(self, owner, attr, name, wrapper=None):
        """Replace ``owner.attr`` by a traced wrapper until ``restore``.

        ``wrapper(name, original)`` builds the replacement; the default
        records one span per call.
        """
        previous = vars(owner).get(attr, _MISSING)
        self._patched.append((owner, attr, previous))
        setattr(owner, attr, (wrapper or self.wrap)(name, getattr(owner, attr)))

    def restore(self):
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def totals(self, name):
        """(calls, seconds, size) of the spans called ``name``; seconds add
        up span durations, size adds up the recorded work counts."""
        hits = [s for s in self.spans if s["name"] == name]
        return (len(hits), sum(s["end"] - s["start"] for s in hits),
                sum(s.get("size", 0) for s in hits))
