"""Typed metrics registry: counters, gauges, histograms, exposition.

Where :mod:`repro.obs.trace` answers "what happened inside one run",
the registry answers "what is this *process* doing right now" -- the
serving daemon's continuously-scrapable state: queue depth, admission
rejects, journal fsync latency, job wait/run latency, worker restarts,
heartbeat age, per-stage flow seconds fed from the existing spans.

Three metric types, deliberately Prometheus-shaped:

- :class:`Counter` -- monotonically increasing total (``_total`` names);
- :class:`Gauge` -- a value that goes up and down (depths, ages);
- :class:`Histogram` -- bucketed observations with ``sum``/``count``,
  rendered as the standard cumulative ``_bucket{le=...}`` series.

Every metric family may carry **labels**; ``family.labels(state="done")``
returns (creating on first use) the child holding that label
combination's value.  All mutation goes through one registry lock, so
the daemon's socket threads, supervisor thread and metric ticker can
hammer the same registry safely; reads take the same lock and return
plain-dict :meth:`MetricsRegistry.snapshot` views.

Snapshots are the interchange format, and the only way counts cross a
process boundary: :meth:`MetricsRegistry.merge` folds one in
(counters/histograms add, gauges last-write-wins), and
:func:`render_prometheus` turns one into Prometheus text exposition
format.  :func:`validate_prometheus` is the format check CI runs
against ``repro metrics --prom`` output.

The process-global registry (:func:`get_registry`) holds the run
counters of :mod:`repro.experiments.telemetry` and the integrity
contracts' counts; a pool worker resets it (:func:`reset_registry`) at
every job start and ships its snapshot home.  The daemon's ``metrics``
op exposes the per-``ServerCore`` registry instead.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "get_registry",
    "render_prometheus",
    "reset_registry",
    "validate_prometheus",
]

#: Default latency buckets (seconds): sub-millisecond journal fsyncs up
#: to ten-minute matrix jobs on one scale.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class _Child:
    """One label combination's value holder (shared-lock mutation)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self.value = 0.0


class Counter(_Child):
    """Monotonically increasing total."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge(_Child):
    """A value that can go up and down."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Bucketed observations: per-bucket counts plus sum and count."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.RLock, buckets: tuple[float, ...]):
        self._lock = lock
        self.buckets = buckets  # finite upper bounds, ascending
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    @property
    def value(self) -> float:  # uniform child interface (mean)
        with self._lock:
            return self.sum / self.count if self.count else 0.0


class _Family:
    """One named metric with typed children per label combination."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.RLock,
        buckets: tuple[float, ...] = (),
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self._lock = lock
        self._children: dict[tuple[str, ...], Any] = {}
        if not label_names:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._lock, self.buckets)
        return Counter(self._lock) if self.kind == "counter" else Gauge(self._lock)

    def labels(self, **labels: str):
        """The child for this label combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names},"
                f" got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def remove(self, **labels: str) -> bool:
        """Drop one label combination's child from the family.

        The antidote to dead label sets: a long-lived daemon that
        retires workers must remove their ``{worker=...}`` children or
        the exposition accumulates gauges for processes that no longer
        exist.  Returns whether the combination existed.  Removing an
        unknown combination is a no-op, and the unlabeled singleton
        cannot be removed.
        """
        if not self.label_names:
            raise ValueError(f"metric {self.name} has no labeled children")
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names},"
                f" got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            return self._children.pop(key, None) is not None

    # Unlabeled convenience: family proxies its single child.
    def _solo(self):
        if self.label_names:
            raise ValueError(f"metric {self.name} needs labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value


class MetricsRegistry:
    """A process's metric families behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # registration (idempotent: same name returns the same family)
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Iterable[str],
        buckets: tuple[float, ...] = (),
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name} already registered as {family.kind}"
                        f" with labels {family.label_names}"
                    )
                return family
            family = _Family(
                name, kind, help_text, label_names, self._lock, buckets
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> _Family:
        return self._register(name, "counter", help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> _Family:
        return self._register(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
    ) -> _Family:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        return self._register(name, "histogram", help_text, labels, bounds)

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-safe point-in-time view of every family and child."""
        with self._lock:
            families = []
            for name in sorted(self._families):
                family = self._families[name]
                samples = []
                for key in sorted(family._children):
                    child = family._children[key]
                    labels = dict(zip(family.label_names, key))
                    if family.kind == "histogram":
                        samples.append(
                            {
                                "labels": labels,
                                "counts": list(child.counts),
                                "sum": child.sum,
                                "count": child.count,
                            }
                        )
                    else:
                        samples.append({"labels": labels, "value": child.value})
                entry: dict[str, Any] = {
                    "name": name,
                    "type": family.kind,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "samples": samples,
                }
                if family.kind == "histogram":
                    entry["buckets"] = list(family.buckets)
                families.append(entry)
            return {"families": families}

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot in: counters/histograms add, gauges overwrite."""
        for entry in snapshot.get("families", []):
            name = entry.get("name", "")
            kind = entry.get("type", "")
            labels = tuple(entry.get("label_names", []))
            if kind == "histogram":
                family = self.histogram(
                    name, entry.get("help", ""), labels,
                    tuple(entry.get("buckets", LATENCY_BUCKETS_S)),
                )
            elif kind == "counter":
                family = self.counter(name, entry.get("help", ""), labels)
            else:
                family = self.gauge(name, entry.get("help", ""), labels)
            for sample in entry.get("samples", []):
                child = (
                    family.labels(**sample.get("labels", {}))
                    if labels else family._solo()
                )
                with self._lock:
                    if kind == "histogram":
                        counts = sample.get("counts", [])
                        if len(counts) == len(child.counts):
                            for i, n in enumerate(counts):
                                child.counts[i] += int(n)
                        child.sum += float(sample.get("sum", 0.0))
                        child.count += int(sample.get("count", 0))
                    elif kind == "counter":
                        child.value += float(sample.get("value", 0.0))
                    else:
                        child.value = float(sample.get("value", 0.0))

    def values(self, name: str) -> dict[tuple[str, ...], float]:
        """Family ``name``'s values keyed by label values, in creation
        order; empty when nothing registered the family yet."""
        with self._lock:
            family = self._families.get(name)
            children = family._children.items() if family else ()
            return {key: child.value for key, child in children}

    def to_prometheus(self) -> str:
        """This registry's state in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text exposition format.

    Histograms become the standard cumulative ``_bucket{le=...}``
    series (always ending in ``le="+Inf"``) plus ``_sum`` and
    ``_count``.  The output ends in exactly one trailing newline, as
    the format requires.
    """
    lines: list[str] = []
    for entry in snapshot.get("families", []):
        name = entry["name"]
        kind = entry["type"]
        help_text = entry.get("help", "")
        if help_text:
            escaped = help_text.replace("\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {name} {escaped}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in entry.get("samples", []):
            labels = dict(sample.get("labels", {}))
            if kind == "histogram":
                bounds = list(entry.get("buckets", [])) + [math.inf]
                cumulative = 0
                for bound, count in zip(bounds, sample.get("counts", [])):
                    cumulative += int(count)
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _fmt_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_labels)}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)}"
                    f" {_fmt_value(float(sample.get('sum', 0.0)))}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)}"
                    f" {int(sample.get('count', 0))}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)}"
                    f" {_fmt_value(float(sample.get('value', 0.0)))}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$'
)
#: The suffixed series that may share their family's TYPE line.
_SERIES_SUFFIXES = {"histogram": ("_bucket", "_sum", "_count"),
                    "summary": ("_sum", "_count")}


def validate_prometheus(text: str) -> list[str]:
    """Check Prometheus text exposition format; returns a problem list.

    Validates what a scraper needs: parseable sample lines with legal
    metric/label names, numeric values, ``# TYPE`` declared before its
    samples (and at most once), histogram ``_bucket`` series that are
    cumulative (non-decreasing) and end in ``le="+Inf"`` matching
    ``_count``, and a trailing newline.
    """
    problems: list[str] = []
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    typed: dict[str, str] = {}
    seen_samples: set[str] = set()
    # histogram bookkeeping: (base name, frozen labels) -> bucket values
    buckets: dict[tuple[str, str], list[tuple[float, float]]] = {}
    counts: dict[tuple[str, str], float] = {}

    def base_of(name: str) -> str:
        """The family a sample belongs to: its own name, or the typed
        histogram or summary whose suffixed series it is."""
        head, _, suffix = name.rpartition("_")
        if "_" + suffix in _SERIES_SUFFIXES.get(typed.get(head, ""), ()):
            return head
        return name

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(f"line {lineno}: unknown type {kind!r}")
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            if name in seen_samples:
                problems.append(
                    f"line {lineno}: TYPE for {name} after its samples"
                )
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        raw_labels = match.group("labels") or ""
        label_map: dict[str, str] = {}
        if raw_labels:
            body = raw_labels[1:-1].strip()
            if body:
                ok = True
                for pair in _split_label_pairs(body):
                    if not _LABEL_PAIR_RE.match(pair):
                        problems.append(
                            f"line {lineno}: bad label pair {pair!r}"
                        )
                        ok = False
                        break
                    key, _, raw = pair.partition("=")
                    label_map[key] = raw[1:-1]
                if not ok:
                    continue
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace(
                "-Inf", "-inf"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {raw_value!r}")
            continue
        base = base_of(name)
        seen_samples.add(base)
        if base not in typed:
            problems.append(f"line {lineno}: sample {name} has no TYPE line")
        if typed.get(base) == "histogram" and name == base + "_bucket":
            le = label_map.get("le")
            if le is None:
                problems.append(f"line {lineno}: _bucket without le label")
                continue
            bound = math.inf if le == "+Inf" else float(le)
            key = (base, _render_labels(
                {k: v for k, v in label_map.items() if k != "le"}
            ))
            buckets.setdefault(key, []).append((bound, value))
        elif typed.get(base) == "histogram" and name == base + "_count":
            counts[(base, _render_labels(label_map))] = value

    for (base, labels), series in buckets.items():
        ordered = sorted(series)
        values = [v for _b, v in ordered]
        if values != sorted(values):
            problems.append(
                f"histogram {base}{labels}: buckets are not cumulative"
            )
        if not ordered or ordered[-1][0] != math.inf:
            problems.append(f"histogram {base}{labels}: missing +Inf bucket")
        elif (base, labels) in counts and ordered[-1][1] != counts[
            (base, labels)
        ]:
            problems.append(
                f"histogram {base}{labels}: +Inf bucket"
                f" != _count ({ordered[-1][1]} vs {counts[(base, labels)]})"
            )
    return problems


def _split_label_pairs(body: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs: list[str] = []
    depth_quote = False
    escaped = False
    current: list[str] = []
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
            continue
        if ch == "," and not depth_quote:
            pairs.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current).strip())
    return pairs


# ----------------------------------------------------------------------
# process-global registry (run counters, integrity counts)
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def reset_registry() -> MetricsRegistry:
    """Replace the global registry with a fresh one (job start, tests)."""
    global _registry
    _registry = MetricsRegistry()
    return _registry
