"""In-memory spans around calls into the program's layers.

The benchmark measures from outside: it wraps public entry points
(instance methods of one platform, or a module/class attribute for the
duration of a phase) with a timing shim that records into a
:class:`SpanTracer`.  Spans nest: each one's *self* time is its duration
minus the time covered by spans opened inside it, so ``cpu.run`` self
time excludes the ``tlm.b_transport`` calls it makes, and
``kernel.run`` self time excludes both.  A span nested in a span of the
same name (a DMA transfer re-entering the bus) adds to the self time of
the inner one only, never twice to the total.

Totals are kept per *leg* — the key the runner sets in
:attr:`SpanTracer.current` before it hands control to one platform — so
a class-level wrapper shared by every platform in the process still
attributes time to the leg that caused it.  Time spent while
``current`` is ``None`` is not recorded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class SpanTracer:
    def __init__(self):
        self.current = None
        #: ``(leg, span) -> [total_s, self_s]``
        self.totals = defaultdict(lambda: [0.0, 0.0])
        # stack entries: [name, child_seconds]
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            leg = self.current
            if leg is None:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                cell = totals[(leg, name)]
                cell[1] += elapsed - frame[1]
                if not any(outer[0] == name for outer in stack):
                    cell[0] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def wrap_instance(self, obj, attr, name):
        """Shadow ``obj.attr`` (a bound method) with a traced version."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` (module function or class method) until
        :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def total(self, leg, name) -> float:
        return self.totals[(leg, name)][0] if (leg, name) in self.totals else 0.0

    def self_time(self, leg, name) -> float:
        return self.totals[(leg, name)][1] if (leg, name) in self.totals else 0.0
