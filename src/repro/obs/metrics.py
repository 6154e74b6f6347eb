"""Metrics registry: counters, gauges and histograms for training runs.

A :class:`MetricsRegistry` is the quantitative (non-timing) half of the
observability layer: monotonic counters (env steps, optimizer steps),
point-in-time gauges (learning rate, entropy coefficient) and
fixed-bucket histograms (per-minibatch loss).  Instrument code never
touches the registry directly — it calls the no-op-when-disabled
helpers in :mod:`repro.obs.scope` (``counter_add`` etc.), which route to
the installed profiler's registry.

Registries round-trip through :meth:`state_dict` /
:meth:`load_state_dict` as plain JSON-able trees, which is how training
metrics survive a checkpoint/resume cycle: the
:class:`~repro.experiments.checkpoint.TrainingCheckpointer` snapshots
the registry into each checkpoint's manifest alongside the telemetry
cursor, and ``run_training`` restores it on ``--resume`` so counters
continue from the interrupted run's values (see
``docs/observability.md``).
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

# Default histogram bucket upper bounds: geometric, microseconds to
# minutes when observations are in seconds, but unit-agnostic in general.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Counter:
    """Monotonic accumulator (``add`` only)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1) -> None:
        """Increase the counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Point-in-time value (``set`` overwrites)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summary.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in an implicit overflow bucket, so ``counts`` has
    ``len(bounds) + 1`` entries.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """File one observation into its bucket and the summary stats."""
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average of all observations (0.0 before the first)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-able snapshot (bounds, bucket counts, summary stats)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Named get-or-create store of counters, gauges and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create --------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Return the counter ``name``, creating it on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """Return the gauge ``name``, creating it on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  bounds: tuple[float, ...] | None = None) -> Histogram:
        """Return the histogram ``name``, creating it on first use.

        ``bounds`` only applies at creation; later calls return the
        existing histogram unchanged.
        """
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_BUCKETS)
        return h

    # -- introspection --------------------------------------------------
    @property
    def counters(self) -> dict[str, Counter]:
        """Live name -> :class:`Counter` mapping (mutations show up here)."""
        return self._counters

    @property
    def gauges(self) -> dict[str, Gauge]:
        """Live name -> :class:`Gauge` mapping."""
        return self._gauges

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Live name -> :class:`Histogram` mapping."""
        return self._histograms

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def as_dict(self) -> dict:
        """Flat JSON-able snapshot of every metric's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def digest(self) -> str:
        """Canonical digest of every metric's current value.

        ``repro check-determinism`` folds this into its per-iteration
        fingerprint: counters/gauges/histograms driven by training code
        must match between two same-seed runs.
        """
        from ..nn.serialize import state_digest

        return state_digest(self.as_dict())

    # -- checkpoint round-trip -----------------------------------------
    def state_dict(self) -> dict:
        """Complete JSON-able state (identical layout to :meth:`as_dict`)."""
        return self.as_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        Existing metrics with the same names are overwritten; metrics
        not present in ``state`` are left untouched, so a registry can
        be restored into mid-run.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).value = float(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, snap in state.get("histograms", {}).items():
            h = Histogram(name, tuple(snap["bounds"]))
            h.counts = [int(c) for c in snap["counts"]]
            h.count = int(snap["count"])
            h.sum = float(snap["sum"])
            h.min = float(snap["min"]) if h.count else float("inf")
            h.max = float(snap["max"]) if h.count else float("-inf")
            self._histograms[name] = h
