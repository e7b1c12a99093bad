"""Counters, gauges, and histograms: the metrics core.

Dependency-free instruments with nanosecond-capable integer math.  Every
instrument lives in a :class:`MetricRegistry`; a registry created with
``enabled=False`` hands out shared no-op instruments, so instrumented
code never branches on "is telemetry on?" — the disabled path is a
single no-op method call.

Names are hierarchical dotted strings (``"link.tx_packets.h0->d1"``).
Hot-path code should hold on to the instrument object (registries cache
by name, but a dict lookup per packet is still a dict lookup).
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n


class Gauge:
    """A value that goes up and down; remembers its high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.max_value = 0

    def set(self, v: Number) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def inc(self, n: Number = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: Number = 1) -> None:
        self.value -= n


class Histogram:
    """A power-of-two-bucketed distribution (ns-resolution friendly).

    Bucket ``i`` covers values with bit length ``i``, i.e. ``[2**(i-1),
    2**i)``; observations are clamped at zero.  Exact count/sum/min/max
    are kept alongside, so means are exact and quantiles are bucket-upper
    -bound approximations (within 2x).
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    NUM_BUCKETS = 65  # values up to 2**64

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.buckets = [0] * self.NUM_BUCKETS

    def observe(self, v: Number) -> None:
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        i = max(0, int(v)).bit_length()
        self.buckets[min(i, self.NUM_BUCKETS - 1)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Number:
        """Upper bound of the bucket holding the ``q``-quantile."""
        if not self.count:
            return 0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return self.max if i == self.NUM_BUCKETS - 1 else (1 << i) - 1
        return self.max or 0


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()
    name = "<disabled>"
    value = 0
    max_value = 0
    count = 0
    sum = 0
    min = None
    max = None
    mean = 0.0

    def inc(self, n: Number = 1) -> None:
        pass

    def set(self, v: Number) -> None:
        pass

    def observe(self, v: Number) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricRegistry:
    """A named collection of instruments.

    ``counter``/``gauge``/``histogram`` get-or-create by name; a disabled
    registry returns :data:`NULL_INSTRUMENT` and records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}

    # -- creation ------------------------------------------------------------
    def _get(self, name: str, cls) -> Instrument:
        if not self.enabled:
            return NULL_INSTRUMENT
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- queries -------------------------------------------------------------
    def value(self, name: str) -> Number:
        inst = self._instruments.get(name)
        return getattr(inst, "value", 0) if inst is not None else 0

    def total(self, prefix: str) -> Number:
        """Sum of all counter/gauge values whose name starts with ``prefix``."""
        return sum(
            inst.value
            for name, inst in self._instruments.items()
            if name.startswith(prefix) and hasattr(inst, "value")
        )

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, object]:
        """All instruments as plain JSON-serializable values."""
        out: dict[str, object] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                out[name] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "min": inst.min,
                    "max": inst.max,
                    "mean": inst.mean,
                    "p50": inst.quantile(0.50),
                    "p99": inst.quantile(0.99),
                }
            elif isinstance(inst, Gauge):
                out[name] = {"value": inst.value, "max": inst.max_value}
            else:
                out[name] = inst.value
        return out
