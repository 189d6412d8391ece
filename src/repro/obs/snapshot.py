"""Schema-versioned benchmark snapshots (the ``qir-bench`` data model).

A :class:`BenchSnapshot` is the durable form of one benchmark session:
a list of :class:`BenchRecord` rows -- each a named scalar with an
explicit unit, an improvement direction, and median-of-k spread
(min/median/max over ``k`` repetitions) -- plus an environment
fingerprint so two snapshots can be judged comparable before they are
diffed (see :mod:`repro.obs.regress`).

The JSON layout is versioned (``schema_version``); loaders reject
snapshots from a future schema rather than misreading them.  Timing
collection goes through :func:`measure`, which warms the callable and
reports the median so single-sample jitter (the source of the negative
``overhead_fraction`` values in early ``BENCH_obs.json`` files) cannot
dominate a record; every A/B pair goes through :func:`measure_arms`.
Loading fails closed: a malformed shape or a non-finite number is a
``ValueError``, never a bare ``TypeError`` deep inside the differ.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, IO, List, Optional, Union

SCHEMA_VERSION = 1

#: Improvement directions: "lower" -- smaller is better (seconds),
#: "higher" -- bigger is better (throughput, speedup ratios).
DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class TimingStats:
    """Min/median/max over k repetitions of one measured quantity."""

    samples: tuple

    def __post_init__(self):
        if not self.samples:
            raise ValueError("TimingStats needs at least one sample")

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)


def measure(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
    clock: Callable[[], float] = perf_counter,
) -> TimingStats:
    """Median-of-k wall timing with warmup.

    ``warmup`` un-timed calls run first (imports, allocator, caches), then
    ``repeats`` timed calls.  Use ``stats.median`` as the headline number;
    ``min``/``max`` bound the observed spread.
    """
    if repeats < 1:
        raise ValueError("measure() needs repeats >= 1")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append(clock() - start)
    return TimingStats(tuple(samples))


def _rate(shots: int, seconds: float) -> float:
    return shots / seconds if seconds > 0.0 else 0.0


@dataclass(frozen=True)
class ArmComparison:
    """Baseline-vs-candidate timings of one A/B pair.

    ``speedup`` is ``baseline.median / candidate.median`` (>1 means the
    candidate wins); ``None`` when the candidate median is at or below
    clock resolution, so a ratio is never ``inf``/``nan``.  The per-arm
    shot rates follow the same convention and read 0.0 there.
    """

    baseline: TimingStats
    candidate: TimingStats
    shots: int = 0

    @property
    def speedup(self) -> Optional[float]:
        if self.candidate.median <= 0.0:
            return None
        return self.baseline.median / self.candidate.median

    @property
    def baseline_shots_per_second(self) -> float:
        return _rate(self.shots, self.baseline.median)

    @property
    def candidate_shots_per_second(self) -> float:
        return _rate(self.shots, self.candidate.median)

    def spread(self) -> Dict[str, Dict[str, float]]:
        """Both arms' min/median/max, for a ratio record's metadata."""
        return {
            arm: {"min": stats.min, "median": stats.median, "max": stats.max}
            for arm, stats in (("baseline", self.baseline), ("candidate", self.candidate))
        }


def measure_arms(
    baseline: Callable[[], object],
    candidate: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
    shots: int = 0,
    clock: Callable[[], float] = perf_counter,
) -> ArmComparison:
    """Time an A/B pair: the baseline block, then the candidate block.

    Each arm is one :func:`measure` call (``warmup`` untimed calls, then
    ``repeats`` timed ones), so the baseline finishes all of its runs
    before the candidate starts.  ``shots`` is the per-call shot count
    behind the per-arm shot rates.
    """
    return ArmComparison(
        baseline=measure(baseline, repeats=repeats, warmup=warmup, clock=clock),
        candidate=measure(candidate, repeats=repeats, warmup=warmup, clock=clock),
        shots=shots,
    )


def _finite(value: object, what: str) -> float:
    """``value`` as a finite float, else ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number!r}")
    return number


def _mapping(value: object, what: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def environment_fingerprint() -> Dict[str, object]:
    """Host/interpreter identity attached to every snapshot.

    Diffing snapshots from different fingerprints is allowed (CI runners
    drift) but the report flags it, so a "regression" caused by a machine
    change is explainable from the artifact alone.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy_version,
    }


@dataclass
class BenchRecord:
    """One named measurement inside a snapshot.

    ``value`` is the headline scalar (the median when ``k > 1``); ``unit``
    and ``direction`` make the record self-describing so the differ never
    has to guess whether bigger numbers are good news.
    """

    name: str
    value: float
    unit: str
    direction: str = "lower"
    min: Optional[float] = None
    median: Optional[float] = None
    max: Optional[float] = None
    k: int = 1
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"record {self.name!r}: direction must be one of {DIRECTIONS}, "
                f"got {self.direction!r}"
            )

    @classmethod
    def from_stats(
        cls,
        name: str,
        stats: TimingStats,
        unit: str = "seconds",
        direction: str = "lower",
        **metadata: object,
    ) -> "BenchRecord":
        return cls(
            name=name,
            value=stats.median,
            unit=unit,
            direction=direction,
            min=stats.min,
            median=stats.median,
            max=stats.max,
            k=stats.k,
            metadata=dict(metadata),
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "k": self.k,
        }
        if self.min is not None:
            out["min"] = self.min
        if self.median is not None:
            out["median"] = self.median
        if self.max is not None:
            out["max"] = self.max
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    @classmethod
    def from_dict(cls, data: object) -> "BenchRecord":
        data = _mapping(data, "benchmark record")
        if "name" not in data or "value" not in data:
            raise ValueError(f"benchmark record missing name/value: {data!r}")
        name = str(data["name"])
        spread = {
            key: None if data.get(key) is None
            else _finite(data[key], f"record {name!r} {key}")
            for key in ("min", "median", "max")
        }
        k = data.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"record {name!r} k must be an integer >= 1, got {k!r}")
        return cls(
            name=name,
            value=_finite(data["value"], f"record {name!r} value"),
            unit=str(data.get("unit", "")),
            direction=str(data.get("direction", "lower")),
            k=k,
            metadata=dict(_mapping(data.get("metadata", {}), f"record {name!r} metadata")),
            **spread,  # type: ignore[arg-type]
        )


@dataclass
class BenchSnapshot:
    """A schema-versioned collection of benchmark records."""

    group: str
    records: List[BenchRecord] = field(default_factory=list)
    environment: Dict[str, object] = field(default_factory=environment_fingerprint)
    schema_version: int = SCHEMA_VERSION

    def add(self, record: BenchRecord) -> BenchRecord:
        self.records.append(record)
        return record

    def record(self, name: str, value: float, unit: str, **kwargs) -> BenchRecord:
        return self.add(BenchRecord(name=name, value=value, unit=unit, **kwargs))

    def by_name(self) -> Dict[str, BenchRecord]:
        return {r.name: r for r in self.records}

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "group": self.group,
            "environment": self.environment,
            "records": [r.to_dict() for r in sorted(self.records, key=lambda r: r.name)],
        }

    @classmethod
    def from_dict(cls, data: object) -> "BenchSnapshot":
        data = _mapping(data, "snapshot")
        version = data.get("schema_version")
        if version is None:
            raise ValueError(
                "not a qir-bench snapshot: missing schema_version "
                "(pre-snapshot BENCH_*.json files cannot be diffed)"
            )
        if isinstance(version, bool) or not isinstance(version, int):
            raise ValueError(f"snapshot schema_version must be an integer, got {version!r}")
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"snapshot schema_version {version} is newer than supported "
                f"({SCHEMA_VERSION}); upgrade the toolchain"
            )
        records = data.get("records", [])
        if not isinstance(records, list):
            raise ValueError(f"snapshot records must be a JSON list, got {records!r}")
        return cls(
            group=str(data.get("group", "")),
            records=[BenchRecord.from_dict(r) for r in records],
            environment=dict(_mapping(data.get("environment", {}), "snapshot environment")),
            schema_version=version,
        )

    def write_json(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                self.write_json(handle)
            return
        json.dump(self.to_dict(), destination, indent=2, sort_keys=True)
        destination.write("\n")

    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "BenchSnapshot":
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.load(handle)
        return cls.from_dict(json.load(source))
