"""Timing proxies on the data plane's layer boundaries, and what they add up to.

A traced run installs a proxy on the boundary methods of the *instances the
benchmark built* — never on a class — before ``start()``.  Each call records
one span (start, end, and the ``seq`` of every message it carried) into
in-memory arrays; nothing is computed until the phase is over.  Queue waits
are the gap between the span that put a ``seq`` and the span whose return
handed the same ``seq`` on.

A boundary a later change has removed or renamed yields no probe, and every
metric that needs it reads 0 with a note on stderr — never a crash — so the
data plane can be simplified without editing the benchmark.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Ids = Callable[[tuple, Any], Sequence[int]]


def _arg_message(args: tuple, result: Any) -> Sequence[int]:
    return (args[0].seq,)


def _arg_messages(args: tuple, result: Any) -> Sequence[int]:
    return [message.seq for message in args[0]]


def _result_message(args: tuple, result: Any) -> Sequence[int]:
    return () if result is None else (result.seq,)


def _result_messages(args: tuple, result: Any) -> Sequence[int]:
    return [message.seq for message in result]


def _arg_header(args: tuple, result: Any) -> Sequence[int]:
    return (args[0]["seq"],)


def _arg_headers(args: tuple, result: Any) -> Sequence[int]:
    return [header["seq"] for header in args[0]]


def _result_headers(args: tuple, result: Any) -> Sequence[int]:
    return [header["seq"] for header in result]


def _fabric_item(args: tuple, result: Any) -> Sequence[int]:
    return (args[2][0]["seq"],)  # send(src, dst, (header, body), nbytes)


def _anonymous(args: tuple, result: Any) -> Sequence[int]:
    return ()  # store calls see bodies and object ids, never a seq


class Probe:
    """Every span of one boundary method on one instance."""

    __slots__ = ("starts", "ends", "sizes", "seqs")

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        #: messages carried by each span
        self.sizes = array("q")
        #: their seqs, flattened in span order
        self.seqs = array("q")


def _install(target: Any, method: str, ids: Ids) -> Optional[Probe]:
    original = getattr(target, method, None)
    if not callable(original):
        return None
    probe = Probe()
    clock = time.perf_counter
    starts, ends = probe.starts.append, probe.ends.append
    sizes, seqs = probe.sizes.append, probe.seqs.extend

    def proxy(*args: Any, **kwargs: Any) -> Any:
        started = clock()
        result = original(*args, **kwargs)
        ended = clock()
        carried = ids(args, result)
        seqs(carried)
        sizes(len(carried))
        ends(ended)
        starts(started)
        return result

    setattr(target, method, proxy)
    return probe


def _resolve(root: Any, path: str) -> Any:
    for part in path.split("."):
        root = getattr(root, part, None)
        if root is None:
            return None
    return root


#: boundary -> (path from a broker to the instance, method, seq extractor)
_BROKER_BOUNDARIES: Dict[str, Tuple[str, str, Ids]] = {
    "store.put": ("communicator.object_store", "put", _anonymous),
    "store.get": ("communicator.object_store", "get", _anonymous),
    "store.release": ("communicator.object_store", "release", _anonymous),
    "header.put": ("communicator.header_queue", "put_many", _arg_headers),
    "header.get": ("communicator.header_queue", "get_many", _result_headers),
    "route": ("router", "route", _arg_header),
}
#: boundary -> (path from an endpoint, method, seq extractor)
_ENDPOINT_BOUNDARIES: Dict[str, Tuple[str, str, Ids]] = {
    "endpoint.send": ("", "send", _arg_message),
    "endpoint.receive": ("", "receive", _result_message),
    "send.put": ("send_buffer", "put", _arg_message),
    "send.get": ("send_buffer", "get_many", _result_messages),
    "recv.put": ("receive_buffer", "put_many", _arg_messages),
    "recv.get": ("receive_buffer", "get", _result_message),
}
_ID_BOUNDARIES: Dict[str, Tuple[str, Ids]] = {
    "id.put": ("put", _arg_header),
    "id.get": ("get_many", _result_headers),
}


class Cut:
    """The spans recorded between two marks, as NumPy arrays."""

    def __init__(self, spans: Dict[Tuple[str, str], Tuple[np.ndarray, ...]]):
        self._spans = spans

    def _select(
        self, boundary: str, names: Optional[Iterable[str]] = None
    ) -> List[Tuple[np.ndarray, ...]]:
        wanted = None if names is None else set(names)
        return [
            span for (kind, name), span in self._spans.items()
            if kind == boundary and (wanted is None or name in wanted)
        ]

    def has(self, boundary: str, names: Optional[Iterable[str]] = None) -> bool:
        return bool(self._select(boundary, names))

    def busy(
        self, boundary: str, names: Optional[Iterable[str]] = None
    ) -> Tuple[float, int]:
        """(seconds inside the boundary, calls)."""
        total, calls = 0.0, 0
        for starts, ends, _, _ in self._select(boundary, names):
            total += float((ends - starts).sum())
            calls += len(starts)
        return total, calls

    def per_call_us(
        self, boundary: str, names: Optional[Iterable[str]] = None
    ) -> Optional[float]:
        if not self.has(boundary, names):
            return None
        total, calls = self.busy(boundary, names)
        return total / calls * 1e6 if calls else 0.0

    def batches(
        self, boundary: str, names: Optional[Iterable[str]] = None
    ) -> Tuple[int, int]:
        """(messages carried, spans that carried at least one)."""
        carried = wakeups = 0
        for _, _, sizes, _ in self._select(boundary, names):
            carried += int(sizes.sum())
            wakeups += int((sizes > 0).sum())
        return carried, wakeups

    def loop_time(
        self, boundary: str, names: Optional[Iterable[str]] = None
    ) -> float:
        """Seconds a thread spent between a non-empty blocking get returning
        and its next call of the same get: one loop iteration's work."""
        total = 0.0
        for starts, ends, sizes, _ in self._select(boundary, names):
            if len(starts) < 2:
                continue
            gaps = starts[1:] - ends[:-1]
            total += float(gaps[sizes[:-1] > 0].sum())
        return total

    def when(self, boundary: str, name: str, *, edge: str = "end") -> Dict[int, float]:
        """seq -> time the span carrying it started or ended."""
        out: Dict[int, float] = {}
        for starts, ends, sizes, seqs in self._select(boundary, [name]):
            times = np.repeat(ends if edge == "end" else starts, sizes)
            out.update(zip(seqs.tolist(), times.tolist()))
        return out

    def depth_max(self, put: str, get: str, name: str) -> int:
        """Highest number of entries put but not yet got."""
        events: List[Tuple[float, int]] = []
        for boundary, sign in ((put, 1), (get, -1)):
            for _, ends, sizes, _ in self._select(boundary, [name]):
                events.extend(zip(ends.tolist(), (sign * sizes).tolist()))
        depth = highest = 0
        for _, delta in sorted(events):
            depth += delta
            highest = max(highest, depth)
        return highest


class Trace:
    """The probes installed on one deployment."""

    def __init__(self) -> None:
        self.probes: Dict[Tuple[str, str], Probe] = {}
        self.missing: List[str] = []
        self._marks: Dict[Tuple[str, str], Tuple[int, int]] = {}

    def _add(self, boundary: str, name: str, target: Any, method: str, ids: Ids) -> None:
        probe = None if target is None else _install(target, method, ids)
        if probe is None:
            self.missing.append(f"{boundary}@{name}")
        else:
            self.probes[boundary, name] = probe

    def instrument(
        self,
        brokers: Sequence[Any],
        endpoints: Sequence[Any],
        fabric: Any = None,
    ) -> None:
        """Install every proxy; call before anything is started."""
        for broker in brokers:
            for boundary, (path, method, ids) in _BROKER_BOUNDARIES.items():
                self._add(boundary, broker.name, _resolve(broker, path), method, ids)
        for endpoint in endpoints:
            for boundary, (path, method, ids) in _ENDPOINT_BOUNDARIES.items():
                target = _resolve(endpoint, path) if path else endpoint
                self._add(boundary, endpoint.name, target, method, ids)
            lookup = _resolve(endpoint, "broker.communicator.id_queue")
            id_queue = lookup(endpoint.name) if callable(lookup) else None
            for boundary, (method, ids) in _ID_BOUNDARIES.items():
                self._add(boundary, endpoint.name, id_queue, method, ids)
        if fabric is not None:
            self._add("fabric.send", fabric.name, fabric, "send", _fabric_item)
        for lost in self.missing:
            print(f"spine: no boundary {lost}; its metrics read 0", file=sys.stderr)

    def cut(self) -> Cut:
        """Everything recorded since the previous cut."""
        spans: Dict[Tuple[str, str], Tuple[np.ndarray, ...]] = {}
        for key, probe in self.probes.items():
            first, first_seq = self._marks.get(key, (0, 0))
            # ``starts`` is appended last, so its length counts whole spans
            # even while another thread is in the middle of recording one.
            last = len(probe.starts)
            sizes = np.asarray(probe.sizes[first:last], dtype=np.int64)
            last_seq = first_seq + int(sizes.sum())
            spans[key] = (
                np.asarray(probe.starts[first:last], dtype=np.float64),
                np.asarray(probe.ends[first:last], dtype=np.float64),
                sizes,
                np.asarray(probe.seqs[first_seq:last_seq], dtype=np.int64),
            )
            self._marks[key] = (last, last_seq)
        return Cut(spans)

    def spans(self) -> int:
        return sum(len(probe.starts) for probe in self.probes.values())

    def save(self, path: str) -> None:
        """Write every recorded span to ``path`` (NumPy ``.npz``): per probe
        its starts, ends, messages per span, and their seqs."""
        arrays = {}
        for (boundary, name), probe in self.probes.items():
            for part in Probe.__slots__:
                arrays[f"{boundary}@{name}:{part}"] = np.asarray(getattr(probe, part))
        np.savez_compressed(path, **arrays)
