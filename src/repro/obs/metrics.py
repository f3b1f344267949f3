"""Metrics primitives: counters, gauges and fixed-bucket histograms.

The registry is deliberately small and allocation-free on the hot side:
a :class:`Counter` is a mutable cell with an ``inc`` method, looked up
*once* at attach time and then held directly by the instrumented module,
so recording a sample is one attribute increment — no name resolution,
no labels, no locks (the simulation is single-threaded).

Gauges come in two flavours: eager (``set`` a value) and lazy (a
zero-argument callable registered with :meth:`MetricsRegistry.set_gauge_fn`
that is evaluated only at snapshot time).  Expensive derived metrics —
the taint-spread scan over 4 MiB of shadow memory, decode-cache hit
arithmetic — are lazy gauges so they cost nothing while simulating.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.vp import decode as D

# --------------------------------------------------------------------- #
# opcode grouping (shared by the CPU's instruction-level profile and the
# instruction-mix benchmark)
# --------------------------------------------------------------------- #

#: Opcode groups, in reporting order.
OPCODE_GROUPS = ("alu", "muldiv", "load", "store", "branch", "jump",
                 "system")

_GROUP_INDEX = {name: i for i, name in enumerate(OPCODE_GROUPS)}


def _classify(op: int) -> int:
    if D.LB <= op <= D.LHU:
        return _GROUP_INDEX["load"]
    if D.SB <= op <= D.SW:
        return _GROUP_INDEX["store"]
    if D.BEQ <= op <= D.BGEU:
        return _GROUP_INDEX["branch"]
    if op in (D.JAL, D.JALR):
        return _GROUP_INDEX["jump"]
    if D.MUL <= op <= D.REMU:
        return _GROUP_INDEX["muldiv"]
    if D.ADDI <= op <= D.AND or op in (D.LUI, D.AUIPC):
        return _GROUP_INDEX["alu"]
    return _GROUP_INDEX["system"]


#: ``GROUP_OF_OP[op]`` — group index (into :data:`OPCODE_GROUPS`) of a
#: dense decoder opcode ID.
GROUP_OF_OP: List[int] = [_classify(op) for op in range(D.N_OPS)]


# --------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------- #


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (eager flavour)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram of observed samples.

    ``bounds`` are the inclusive upper edges of the buckets; one overflow
    bucket catches everything above the last bound.  Bucket counts, the
    running sum, min and max are kept so mean and coarse percentiles can
    be derived from the snapshot.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty ascending")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)   # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # bisect_left finds the first bound >= value — the same bucket
        # the linear scan picked, in O(log n) and without the Python
        # loop (observe sits on the per-quantum path).
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Coarse quantile: the upper edge of the bucket holding rank q.

        Resolution is bucket-width; good enough to spot tail latencies.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.1f})"


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #


class _GroupMember:
    """One lazy gauge of a :meth:`MetricsRegistry.set_gauge_group`."""

    __slots__ = ("fn", "index")

    def __init__(self, fn: Callable[[], Sequence[Union[int, float]]],
                 index: int):
        self.fn = fn
        self.index = index

    def __call__(self) -> Union[int, float]:
        return self.fn()[self.index]


class MetricsRegistry:
    """Name -> instrument registry with get-or-create semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._gauge_fns: Dict[str, Callable[[], Union[int, float]]] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- creation / lookup --------------------------------------------- #

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_fresh(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def set_gauge_fn(self, name: str,
                     fn: Callable[[], Union[int, float]]) -> None:
        """Register a lazy gauge, evaluated only at snapshot time."""
        self._gauge_fns[name] = fn

    def set_gauge_group(self, names: Sequence[str],
                        fn: Callable[[], Sequence[Union[int, float]]]
                        ) -> None:
        """Register lazy gauges that share one evaluation: ``fn()[i]`` is
        the value of ``names[i]``, and a snapshot calls ``fn`` once."""
        for index, name in enumerate(names):
            self._gauge_fns[name] = _GroupMember(fn, index)

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name, self._histograms)
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def _check_fresh(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges, self._gauge_fns,
                       self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    "instrument type")

    # -- convenience ---------------------------------------------------- #

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def value(self, name: str):
        """Current value of a counter / gauge / lazy gauge by name."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        if name in self._gauge_fns:
            return self._gauge_fns[name]()
        raise KeyError(name)

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._gauge_fns) + len(self._histograms))

    def __contains__(self, name: str) -> bool:
        return (name in self._counters or name in self._gauges
                or name in self._gauge_fns or name in self._histograms)

    # -- checkpoint / restore ------------------------------------------- #

    def state_dict(self) -> dict:
        """Persist instrument *values*.  Lazy gauges are excluded: their
        callables are re-registered when modules attach to a fresh
        registry and re-derive the same values from restored state."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {"bounds": list(h.bounds), "counts": list(h.counts),
                       "count": h.count, "sum": h.sum,
                       "min": h.min, "max": h.max}
                for name, h in sorted(self._histograms.items())
            },
        }

    def load_state_dict(self, state: dict) -> None:
        for name, value in state["counters"].items():
            self.counter(name).value = value
        for name, value in state["gauges"].items():
            self.gauge(name).value = value
        for name, data in state["histograms"].items():
            h = self.histogram(name, data["bounds"])
            h.counts = list(data["counts"])
            h.count = data["count"]
            h.sum = data["sum"]
            h.min = data["min"]
            h.max = data["max"]

    # -- snapshot ------------------------------------------------------- #

    def snapshot(self) -> dict:
        """Flatten everything (resolving lazy gauges) into a plain dict.

        Counters and gauges map to their scalar values; histograms map to
        their ``to_dict`` form.  Keys are sorted for stable diffs.
        """
        out: dict = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        groups: dict = {}
        for name, fn in self._gauge_fns.items():
            if type(fn) is _GroupMember:
                values = groups.get(fn.fn)
                if values is None:
                    values = groups[fn.fn] = fn.fn()
                out[name] = values[fn.index]
            else:
                out[name] = fn()
        for name, h in self._histograms.items():
            out[name] = h.to_dict()
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} instruments)"


# --------------------------------------------------------------------- #
# snapshot merging (campaign aggregation)
# --------------------------------------------------------------------- #


def _merge_histograms(name: str, into: dict, other: dict) -> dict:
    if list(into.get("bounds", [])) != list(other.get("bounds", [])):
        raise ValueError(
            f"metric {name!r}: histogram bucket bounds differ between "
            "snapshots; cannot merge")
    merged = dict(into)
    merged["counts"] = [a + b for a, b in zip(into["counts"],
                                              other["counts"])]
    merged["count"] = into["count"] + other["count"]
    merged["sum"] = into["sum"] + other["sum"]
    merged["mean"] = (merged["sum"] / merged["count"]
                      if merged["count"] else 0.0)
    mins = [m for m in (into.get("min"), other.get("min")) if m is not None]
    maxs = [m for m in (into.get("max"), other.get("max")) if m is not None]
    merged["min"] = min(mins) if mins else None
    merged["max"] = max(maxs) if maxs else None
    return merged


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge :meth:`MetricsRegistry.snapshot` dicts from independent runs.

    Worker processes cannot share a registry, so each campaign job ships
    its snapshot back to the parent and the parent folds them together:
    scalar instruments (counters *and* gauges) **sum**, histograms merge
    bucket-wise (bounds must match).  Summing is exact for counters and
    the run-total gauges (``run.instructions``); point-in-time gauges
    become "total across jobs", which is the quantity a campaign summary
    wants anyway.  Keys are sorted like :meth:`snapshot` for stable
    diffs.  A type mismatch between snapshots raises ``ValueError``.
    """
    out: dict = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name not in out:
                out[name] = (dict(value) if isinstance(value, dict)
                             else value)
                continue
            have = out[name]
            if isinstance(have, dict) != isinstance(value, dict):
                raise ValueError(
                    f"metric {name!r}: histogram in one snapshot but "
                    "scalar in another; cannot merge")
            if isinstance(value, dict):
                out[name] = _merge_histograms(name, have, value)
            else:
                out[name] = have + value
    return dict(sorted(out.items()))


#: Fixed bucket edges (µs) for per-quantum host wall-time; spans the
#: ~100 µs (idle quantum) to ~100 ms (8192-instruction DIFT quantum on a
#: slow host) range the Python ISS actually produces.
QUANTUM_WALL_US_BUCKETS = (50, 100, 250, 500, 1000, 2500, 5000, 10000,
                           25000, 50000, 100000, 250000)
