"""Metric instruments: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named instrument *families*; a family with
declared label names fans out into one *child* instrument per label-value
combination (``flits.labels(link="3->7").inc()``).  The design goals, in
order:

1. **near-zero overhead when disabled** — a disabled registry hands out a
   shared null instrument whose methods are no-ops, so instrumented code
   pays one attribute call and nothing else;
2. **bulk recording** — hot loops keep plain ints / NumPy arrays and flush
   them once per run (``inc(n)``, ``observe_many(values)``), rather than
   crossing an abstraction per event;
3. **bounded cardinality** — label fan-out is capped per family
   (``max_label_sets``) so a buggy label (e.g. a packet id) fails loudly
   instead of exhausting memory.

Everything is stdlib-only; exporters live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from bisect import bisect_left

try:  # optional fast path only; this module stays importable without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in this repo
    _np = None

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "exponential_buckets",
]


class CardinalityError(RuntimeError):
    """A metric family exceeded its ``max_label_sets`` cap."""


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds: start, start*factor, ... (for histograms)."""
    if count < 1 or start <= 0 or factor <= 1:
        raise ValueError("exponential_buckets needs count >= 1, start > 0, factor > 1")
    out = []
    b = float(start)
    for _ in range(count):
        out.append(b)
        b *= factor
    return tuple(out)


class Counter:
    """Monotonically increasing count (events, flits, cache hits)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-set value (max link load, queue depth high-water mark)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark semantics)."""
        if value > self.value:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are inclusive upper bounds in increasing order; one implicit
    overflow bucket catches everything beyond the last bound.  Bucket
    counts are *per bucket* (not cumulative).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty increasing sequence")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Bulk observe (hot loops accumulate a list, flush once).

        Integer batches (the packet engine's latency and queue-depth
        flushes) take a vectorized path — one ``searchsorted`` plus a
        bucket ``bincount`` instead of a ``bisect`` per element.  The
        result is identical to calling :meth:`observe` per element: bucket
        edges resolve the same way, and integer sums are exact in float64
        regardless of accumulation order.  Float batches keep the scalar
        loop (float summation order is observable) and so does everything
        when numpy is unavailable.
        """
        if _np is not None:
            arr = _np.asarray(values)
            if arr.dtype.kind in "iub" and arr.size:
                idx = _np.searchsorted(self.bounds, arr, side="left")
                for i, c in zip(*_np.unique(idx, return_counts=True)):
                    self.counts[i] += int(c)
                self.count += int(arr.size)
                self.sum += int(arr.sum())
                lo, hi = int(arr.min()), int(arr.max())
                if lo < self.min:
                    self.min = lo
                if hi > self.max:
                    self.max = hi
                return
        for v in values:
            self.observe(v)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [
                {"le": le, "count": c} for le, c in zip(self.bounds, self.counts)
            ]
            + [{"le": None, "count": self.counts[-1]}],  # overflow
        }


class _NullInstrument:
    """Shared no-op stand-in handed out by disabled registries.

    Implements the union of the instrument APIs so call sites never need
    to branch on whether observability is on.
    """

    __slots__ = ()
    kind = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def labels(self, **label_values) -> "_NullInstrument":
        return self


NULL_INSTRUMENT = _NullInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """All children of one named metric across its label combinations."""

    __slots__ = ("name", "kind", "help", "label_names", "max_label_sets",
                 "_children", "_bounds")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        max_label_sets: int = 4096,
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.max_label_sets = max_label_sets
        self._bounds = bounds
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        if not self.label_names:
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self._bounds or exponential_buckets(1.0, 2.0, 16))
        return _KINDS[self.kind]()

    def labels(self, **label_values):
        """The child instrument for one label-value combination."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.label_names}, "
                f"got {tuple(label_values)}"
            )
        key = tuple(str(label_values[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_label_sets:
                raise CardinalityError(
                    f"metric {self.name!r} exceeded max_label_sets="
                    f"{self.max_label_sets}; a label is likely unbounded"
                )
            child = self._children[key] = self._new_child()
        return child

    # Unlabeled families proxy the instrument API directly.
    def _solo(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "call .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_max(self, value: float) -> None:
        self._solo().set_max(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def observe_many(self, values) -> None:
        self._solo().observe_many(values)

    @property
    def value(self):
        return self._solo().value

    def samples(self) -> list[dict]:
        """One snapshot dict per child, labels attached."""
        out = []
        for key in sorted(self._children):
            snap = self._children[key].snapshot()
            snap["labels"] = dict(zip(self.label_names, key))
            out.append(snap)
        return out

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "samples": self.samples(),
        }


class MetricsRegistry:
    """Named instrument families plus the enabled/disabled switch.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: repeated
    registration with the same name returns the existing family (so module
    code can re-register freely), but re-registering under a different
    kind or label set is an error — that is always a naming bug.
    """

    def __init__(self, enabled: bool = True, max_label_sets: int = 4096) -> None:
        self.enabled = enabled
        self.max_label_sets = max_label_sets
        self._families: dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------

    def _register(self, name, kind, help, labels, bounds=None):
        if not self.enabled:
            return NULL_INSTRUMENT
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind or fam.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind} with "
                    f"labels {fam.label_names}; cannot re-register as {kind} "
                    f"with labels {tuple(labels)}"
                )
            return fam
        fam = MetricFamily(
            name,
            kind,
            help=help,
            label_names=tuple(labels),
            max_label_sets=self.max_label_sets,
            bounds=bounds,
        )
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "", labels=()):
        """Get or create a counter family."""
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels=()):
        """Get or create a gauge family."""
        return self._register(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels=(), bounds=None):
        """Get or create a histogram family (``bounds``: upper bucket edges)."""
        return self._register(name, "histogram", help, labels, bounds=bounds)

    # -- introspection -----------------------------------------------------

    def get(self, name: str) -> MetricFamily:
        """Look up a registered family by name (KeyError if absent)."""
        return self._families[name]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def names(self) -> list[str]:
        return sorted(self._families)

    def collect(self) -> list[dict]:
        """Snapshot of every family, sorted by name (exporter input)."""
        return [self._families[n].snapshot() for n in sorted(self._families)]

    def clear(self) -> None:
        self._families.clear()
