"""Exporters: Prometheus text exposition and deterministic JSON snapshots.

Both exporters walk :meth:`MetricsRegistry.collect` (sorted by name and
labels) so identical runs produce structurally identical artifacts —
benchmark harnesses diff snapshots across commits.

The JSON snapshot schema (``repro.obs/v1``) is validated by
:func:`validate_snapshot` — stdlib-only, used by the CI observability smoke
job instead of a jsonschema dependency.  See docs/OBSERVABILITY.md for the
metric catalog.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

SNAPSHOT_SCHEMA = "repro.obs/v1"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _render_labels(labels, extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = list(labels) + list(extra or [])
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format 0.0.4 of the whole registry."""
    lines: List[str] = []
    seen_headers = set()
    for metric in registry.collect():
        name = f"{registry.namespace}_{metric.name}"
        if name not in seen_headers:
            seen_headers.add(name)
            help_text = metric.help or metric.name
            lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {metric.kind}")
        instrument = metric.instrument
        if metric.kind != "histogram":
            lines.append(
                f"{name}{_render_labels(metric.labels)} "
                f"{_format_value(instrument.value)}"
            )
            continue
        for bound, cumulative in instrument.bucket_counts():
            lines.append(
                f"{name}_bucket"
                f"{_render_labels(metric.labels, [('le', _format_value(bound))])} "
                f"{cumulative}"
            )
        lines.append(
            f"{name}_sum{_render_labels(metric.labels)} "
            f"{_format_value(instrument.sum)}"
        )
        lines.append(
            f"{name}_count{_render_labels(metric.labels)} {instrument.count}"
        )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[+-]?(?:Inf|NaN|[0-9.eE+-]+))$"
)


def parse_prometheus(text: str) -> List[Dict[str, Any]]:
    """Line-by-line parse of an exposition; raises ValueError on bad lines.

    Returns one ``{"name", "labels", "value"}`` dict per sample line.  This
    is the verification half of the exporter: tests run every exported line
    through it so a malformed exposition cannot land silently.
    """
    samples: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.fullmatch(parts[2]):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            body = raw[1:-1]
            if body:
                for pair in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', body):
                    labels[pair[0]] = pair[1]
        value_text = match.group("value")
        value = float(value_text.replace("Inf", "inf").replace("NaN", "nan"))
        samples.append(
            {"name": match.group("name"), "labels": labels, "value": value}
        )
    return samples


# -- JSON snapshots ----------------------------------------------------------

def snapshot(
    registry: MetricsRegistry, *, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Deterministic JSON-ready dict of every instrument in the registry."""
    metrics: List[Dict[str, Any]] = []
    for metric in registry.collect():
        instrument = metric.instrument
        entry: Dict[str, Any] = {
            "name": metric.name,
            "type": metric.kind,
            "labels": dict(metric.labels),
        }
        if metric.kind == "histogram":
            entry.update(
                count=instrument.count,
                sum=instrument.sum,
                mean=instrument.mean(),
                p50=instrument.quantile(0.5),
                p95=instrument.quantile(0.95),
                p99=instrument.quantile(0.99),
                buckets=[
                    [("+Inf" if bound == math.inf else bound), cumulative]
                    for bound, cumulative in instrument.bucket_counts()
                ],
            )
        else:
            entry["value"] = instrument.value
            series = instrument.series() if metric.kind == "gauge" else None
            if series:
                entry["series"] = [[round(t, 6), v] for t, v in series]
        metrics.append(entry)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "meta": dict(meta or {}),
        "metrics": metrics,
    }


def snapshot_to_json(registry: MetricsRegistry, **kwargs: Any) -> str:
    return json.dumps(snapshot(registry, **kwargs), indent=2, sort_keys=False) + "\n"


def validate_snapshot(data: Dict[str, Any]) -> List[str]:
    """Schema check for a ``repro.obs/v1`` snapshot; returns problem strings.

    An empty list means the snapshot is valid.  Stdlib-only stand-in for a
    jsonschema document — the CI smoke job fails on any returned problem.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["snapshot is not an object"]
    if data.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(f"schema must be {SNAPSHOT_SCHEMA!r}, got {data.get('schema')!r}")
    if not isinstance(data.get("meta", {}), dict):
        problems.append("meta must be an object")
    metrics = data.get("metrics")
    if not isinstance(metrics, list):
        return problems + ["metrics must be a list"]
    for index, entry in enumerate(metrics):
        where = f"metrics[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            problems.append(f"{where}.name invalid: {name!r}")
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            problems.append(f"{where}.type invalid: {kind!r}")
        labels = entry.get("labels")
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
        ):
            problems.append(f"{where}.labels must be a str->str object")
        if kind in ("counter", "gauge"):
            if not isinstance(entry.get("value"), (int, float)):
                problems.append(f"{where}.value must be numeric")
            if kind == "counter" and isinstance(entry.get("value"), (int, float)):
                if entry["value"] < 0:
                    problems.append(f"{where}.value must be >= 0 for a counter")
            series = entry.get("series")
            if series is not None:
                if not isinstance(series, list) or not all(
                    isinstance(point, list)
                    and len(point) == 2
                    and all(isinstance(x, (int, float)) for x in point)
                    for point in series
                ):
                    problems.append(f"{where}.series must be [[t, v], ...]")
        elif kind == "histogram":
            for field_name in ("count", "sum", "mean", "p50", "p95", "p99"):
                if not isinstance(entry.get(field_name), (int, float)):
                    problems.append(f"{where}.{field_name} must be numeric")
            buckets = entry.get("buckets")
            if not isinstance(buckets, list) or not buckets:
                problems.append(f"{where}.buckets must be a non-empty list")
            else:
                last = -1
                for bucket in buckets:
                    if (
                        not isinstance(bucket, list)
                        or len(bucket) != 2
                        or not isinstance(bucket[1], int)
                    ):
                        problems.append(f"{where}.buckets entries must be [le, count]")
                        break
                    if bucket[1] < last:
                        problems.append(f"{where}.buckets counts must be cumulative")
                        break
                    last = bucket[1]
                else:
                    if buckets[-1][0] != "+Inf":
                        problems.append(f"{where}.buckets must end with +Inf")
    return problems
