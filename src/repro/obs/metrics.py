"""Metric primitives: counters, gauges, histograms and labeled counters.

Everything here is a plain dataclass over builtin types, so metrics are

* **picklable** -- :class:`~repro.runtime.spec.PointResult` carries them
  across sweep-session worker processes unchanged;
* **mergeable** -- :meth:`MetricSet.merge` folds the metrics of many runs
  (sweep points, seed replicas) into one set, deterministically: merging
  in spec order yields byte-identical JSON whether the points ran serially
  or fanned out over processes;
* **JSON-clean** -- :meth:`MetricSet.to_dict` emits only ``None``, ints,
  floats, strings and sorted containers, never NaN sentinels.

Merge semantics per type:

* :class:`Counter`        -- values add;
* :class:`LabeledCounter` -- values add per label;
* :class:`Gauge`          -- ``min``/``max`` combine, ``last`` takes the
  right operand's (merge order is spec order, so "last" is well defined);
* :class:`Histogram`      -- bucket counts, ``total`` and ``count`` add
  (bucket bounds must match -- they are part of the metric's identity).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: fixed upper bounds for latency histograms (cycles); the implicit
#: overflow bucket catches everything above the last bound
LATENCY_BUCKETS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class MergeError(ValueError):
    """Two metrics with the same name but incompatible identities."""


@dataclass
class Counter:
    """A monotonically increasing event count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict:
        return {"type": "counter", "value": self.value}


@dataclass
class LabeledCounter:
    """A family of counters keyed by a string label (one metric name,
    many series -- e.g. held-cycles per channel)."""

    name: str
    values: Dict[str, int] = field(default_factory=dict)

    def inc(self, label: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.values[label] = self.values.get(label, 0) + n

    def merge(self, other: "LabeledCounter") -> None:
        for label, n in other.values.items():
            self.values[label] = self.values.get(label, 0) + n

    def top(self, k: int = 10) -> List[Tuple[str, int]]:
        """The ``k`` largest series, ties broken by label."""
        return sorted(self.values.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def total(self) -> int:
        return sum(self.values.values())

    def to_dict(self) -> Dict:
        return {
            "type": "labeled_counter",
            "values": {k: self.values[k] for k in sorted(self.values)},
        }


@dataclass
class Gauge:
    """A sampled value with its running extrema.  ``last`` is ``None``
    until the first observation (never a NaN sentinel -- see the
    ``LatencyStats`` empty-input bug this subsystem's PR fixes)."""

    name: str
    last: Optional[float] = None
    min: Optional[float] = None
    max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.last = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Gauge") -> None:
        if other.last is not None:
            self.last = other.last
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def to_dict(self) -> Dict:
        return {"type": "gauge", "last": self.last, "min": self.min, "max": self.max}


@dataclass
class Histogram:
    """Fixed-bucket histogram.  ``bounds`` are inclusive upper bounds;
    ``counts`` has ``len(bounds) + 1`` entries, the last one the overflow
    bucket."""

    name: str
    bounds: Tuple[int, ...] = LATENCY_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name!r}: {len(self.bounds)} bounds need "
                f"{len(self.bounds) + 1} buckets, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``q``-quantile (a bucket
        estimate, exact enough for saturation curves)."""
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return float(self.bounds[i]) if i < len(self.bounds) else float("inf")
        return float("inf")

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise MergeError(
                f"histogram {self.name!r}: bucket bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    def render(self, width: int = 40) -> str:
        """ASCII bars, one row per bucket."""
        peak = max(self.counts) or 1
        rows = []
        labels = [f"<={b}" for b in self.bounds] + [f">{self.bounds[-1]}"]
        for label, c in zip(labels, self.counts):
            bar = "#" * round(width * c / peak)
            rows.append(f"  {label:>8} {c:>8} {bar}")
        head = f"{self.name}: n={self.count}"
        if self.count:
            head += f" mean={self.total / self.count:.1f}"
        return "\n".join([head] + rows)

    def to_dict(self) -> Dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }


@dataclass
class MetricSet:
    """A named bag of metrics: the unit the collectors emit and the
    runtime merges.  Get-or-create accessors keep collector code terse::

        m.counter("delivered").inc()
        m.histogram("latency").observe(37)
    """

    metrics: Dict[str, object] = field(default_factory=dict)

    def _get(self, name: str, cls, **kw):
        m = self.metrics.get(name)
        if m is None:
            m = cls(name=name, **kw)
            self.metrics[name] = m
        elif not isinstance(m, cls):
            raise MergeError(
                f"metric {name!r} is a {type(m).__name__}, not a {cls.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def labeled(self, name: str) -> LabeledCounter:
        return self._get(name, LabeledCounter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[int] = LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, bounds=tuple(bounds))

    def __contains__(self, name: str) -> bool:
        return name in self.metrics

    def __getitem__(self, name: str):
        return self.metrics[name]

    def __len__(self) -> int:
        return len(self.metrics)

    def names(self) -> List[str]:
        return sorted(self.metrics)

    def merge(self, other: "MetricSet") -> "MetricSet":
        """Fold ``other`` into this set (in place; returns self)."""
        for name in sorted(other.metrics):
            theirs = other.metrics[name]
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = _clone(theirs)
            elif type(mine) is not type(theirs):
                raise MergeError(
                    f"metric {name!r}: {type(mine).__name__} vs "
                    f"{type(theirs).__name__}"
                )
            else:
                mine.merge(theirs)
        return self

    def to_dict(self) -> Dict:
        """Deterministic plain-dict form (sorted names, JSON-clean)."""
        return {name: self.metrics[name].to_dict() for name in sorted(self.metrics)}

    def summary(self, top: int = 5) -> str:
        """Human-readable digest of every metric."""
        lines: List[str] = []
        for name in sorted(self.metrics):
            m = self.metrics[name]
            if isinstance(m, Counter):
                lines.append(f"{name} = {m.value}")
            elif isinstance(m, Gauge):
                lines.append(f"{name} = {m.last} (min {m.min}, max {m.max})")
            elif isinstance(m, Histogram):
                lines.append(m.render())
            elif isinstance(m, LabeledCounter):
                lines.append(f"{name}: {len(m.values)} series, total {m.total()}")
                for label, n in m.top(top):
                    lines.append(f"  {label} = {n}")
        return "\n".join(lines)


def _clone(metric):
    import copy

    return copy.deepcopy(metric)


def merge_metric_sets(sets: Iterable[Optional[MetricSet]]) -> MetricSet:
    """Merge many metric sets (skipping ``None`` entries) into a fresh one.

    Merging is order-sensitive only for gauges' ``last`` field; callers
    pass results **in spec order** so serial and parallel sweeps merge to
    byte-identical sets.
    """
    merged = MetricSet()
    for s in sets:
        if s is not None:
            merged.merge(s)
    return merged
