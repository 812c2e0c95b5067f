"""Per-layer metrics: what each module did for one message.

Names are ``<module>.<metric>``.  Busy figures (``*_us`` per call, batch
sizes, thread self time) come from the traced *throughput* phase, where the
pipeline is full; waits and the hop budget come from the traced
*one-in-flight* phase, where a message's path is the only thing running and
its segments can be laid end to end.  ``None`` means the boundary the metric
needs is gone from the code.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .proxies import Cut

Metrics = Dict[str, Optional[float]]


def _share(total: Optional[float], count: int) -> Optional[float]:
    if total is None:
        return None
    return total / count if count else 0.0


def throughput_layers(
    cut: Cut,
    messages: int,
    deliveries: int,
    producers: Sequence[str],
    consumers: Sequence[str],
    source_broker: str,
    sink_broker: str,
) -> Metrics:
    """Busy time, batch sizes and counts over a phase that carried
    ``messages`` to ``deliveries`` destinations (a broadcast is one message
    and as many deliveries as it has destinations)."""
    out: Metrics = {
        "endpoint.send_us": cut.per_call_us("endpoint.send", producers),
        "buffers.recv_put_us": cut.per_call_us("recv.put", consumers),
        "object_store.put_us": cut.per_call_us("store.put"),
        "object_store.get_us": cut.per_call_us("store.get"),
        "object_store.release_us": cut.per_call_us("store.release"),
        "communicator.header_put_us": cut.per_call_us("header.put", [source_broker]),
        "router.route_us": cut.per_call_us("route", [source_broker]),
        "fabric.send_us": cut.per_call_us("fabric.send"),
    }
    # receive() self time: its span minus the buffer get inside it.
    if cut.has("endpoint.receive", consumers) and cut.has("recv.get", consumers):
        outer, calls = cut.busy("endpoint.receive", consumers)
        inner, _ = cut.busy("recv.get", consumers)
        out["endpoint.receive_us"] = (outer - inner) / calls * 1e6 if calls else 0.0
    else:
        out["endpoint.receive_us"] = None

    def per_wakeup(boundary: str, names: Sequence[str]) -> Optional[float]:
        if not cut.has(boundary, names):
            return None
        carried, wakeups = cut.batches(boundary, names)
        return carried / wakeups if wakeups else 0.0

    out["endpoint.sender_batch"] = per_wakeup("send.get", producers)
    out["endpoint.receiver_batch"] = per_wakeup("id.get", consumers)
    out["router.headers_per_wakeup"] = per_wakeup("header.get", [source_broker])

    def self_us(
        loop: str,
        names: Sequence[str],
        inside: Sequence[Tuple[str, Sequence[str]]],
        handled: int,
    ) -> Optional[float]:
        """A thread's loop time minus the boundary calls made inside it."""
        needed = [(loop, names), *inside]
        if not all(cut.has(boundary, group) for boundary, group in needed):
            return None
        own = cut.loop_time(loop, names) - sum(
            cut.busy(boundary, group)[0] for boundary, group in inside
        )
        return own / handled * 1e6 if handled else 0.0

    # On one broker every store.put is a sender's; over the wire the sink
    # broker's puts belong to the socket reader, and are left out.
    out["endpoint.sender_self_us"] = self_us(
        "send.get", producers,
        [("store.put", [source_broker]), ("header.put", [source_broker])],
        messages,
    )
    receiver_inside = [("store.get", [sink_broker]), ("store.release", [sink_broker])]
    out["endpoint.receiver_self_us"] = self_us(
        "id.get", consumers, [*receiver_inside, ("recv.put", consumers)],
        deliveries,
    )
    puts = cut.busy("store.put")[1] if cut.has("store.put") else None
    gets = cut.busy("store.get")[1] if cut.has("store.get") else None
    out["object_store.puts_per_msg"] = _share(puts, messages)
    out["object_store.gets_per_msg"] = _share(gets, messages)
    out["communicator.header_depth_max"] = (
        float(cut.depth_max("header.put", "header.get", source_broker))
        if cut.has("header.put", [source_broker])
        and cut.has("header.get", [source_broker])
        else None
    )
    return out


#: one message's path as (boundary, whose instance, span edge, label) events
#: in order; the segment that *ends* at an event carries the event's label
_LOCAL_PATH = (
    ("send.put", "producer", "end", "busy"),      # endpoint.send
    ("send.get", "producer", "end", "wait"),      # buffers.send_wait
    ("header.put", "source", "end", "busy"),      # sender: store put + header put
    ("header.get", "source", "end", "wait"),      # communicator.header_wait
    ("id.put", "consumer", "end", "busy"),        # router
    ("id.get", "consumer", "end", "wait"),        # communicator.id_wait
    ("recv.put", "consumer", "end", "busy"),      # receiver: store get + buffer put
    ("recv.get", "consumer", "end", "wait"),      # buffers.recv_wait
)
_WIRE_PATH = (
    *_LOCAL_PATH[:4],
    ("fabric.send", "fabric", "start", "busy"),   # source router, up to the link
    ("id.put", "consumer", "end", "transit"),     # socket, reader, second store put
    *_LOCAL_PATH[5:],
)
_SEGMENT_METRICS = {
    "send.get": "buffers.send_wait_us",
    "header.get": "communicator.header_wait_us",
    "id.get": "communicator.id_wait_us",
    "recv.get": "buffers.recv_wait_us",
    "transit": "fabric.transit_us",
}

Journey = Tuple[int, float, float]
"""(seq, time make_message was called, time receive() returned)."""


def hop_budget(
    cut: Cut,
    producer: str,
    source_broker: str,
    fabric: Optional[str],
    deliveries: Dict[str, Sequence[Journey]],
) -> Metrics:
    """Lay each one-in-flight delivery's segments end to end.

    ``deliveries`` maps a consumer to the journeys it completed.  A segment
    is attributed only when the events at both of its ends were recorded;
    time between events that are missing is ``hops.unattributed_us``.  With
    every boundary present the segments tile make_message -> receive()
    return exactly, so a remainder means the trace no longer covers the
    path.  All values are medians over deliveries.
    """
    whose = {"producer": producer, "source": source_broker, "fabric": fabric}
    path = _WIRE_PATH if fabric else _LOCAL_PATH
    segments: Dict[str, List[float]] = {key: [] for key in _SEGMENT_METRICS}
    busy: List[float] = []
    wait: List[float] = []
    rest: List[float] = []
    oneway: List[float] = []
    for consumer, journeys in deliveries.items():
        whose["consumer"] = consumer
        tables = [
            cut.when(boundary, whose[place], edge=edge)
            for boundary, place, edge, _ in path
        ]
        for seq, sent, received in journeys:
            previous: Optional[float] = sent
            total_busy = total_wait = 0.0
            for (boundary, _, _, label), table in zip(path, tables):
                at = table.get(seq)
                if at is not None and previous is not None:
                    if label == "wait":
                        total_wait += at - previous
                        segments[boundary].append(at - previous)
                    else:
                        total_busy += at - previous
                        if label == "transit":
                            segments[label].append(at - previous)
                previous = at
            if previous is not None:
                total_busy += received - previous  # receive()'s tail
            busy.append(total_busy)
            wait.append(total_wait)
            oneway.append(received - sent)
            rest.append(received - sent - total_busy - total_wait)

    def median_us(values: Sequence[float]) -> Optional[float]:
        return statistics.median(values) * 1e6 if values else None

    out: Metrics = {
        name: median_us(segments[key]) for key, name in _SEGMENT_METRICS.items()
    }
    if not fabric:
        out["fabric.transit_us"] = 0.0
    out["hops.busy_sum_us"] = median_us(busy)
    out["hops.wait_sum_us"] = median_us(wait)
    out["hops.unattributed_us"] = median_us(rest)
    out["hops.oneway_us"] = median_us(oneway)
    return out


def time_call(fn: Callable[[], Any], *, budget_s: float = 0.15) -> float:
    """Median microseconds per call of ``fn`` over ``budget_s`` of calls."""
    fn()
    samples: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or time.perf_counter() < deadline:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def standalone_layers(body: Any, header: Dict[str, Any], wire: bool) -> Metrics:
    """Serialization and wire framing timed alone on the workload's message."""
    from repro.core.serialization import deserialize, make_frame, measure, serialize

    out: Metrics = {}
    out["serialization.measure_us"] = time_call(lambda: measure(body))
    out["serialization.make_frame_us"] = time_call(lambda: make_frame(body))
    blob = serialize(body)
    out["serialization.deserialize_us"] = time_call(lambda: deserialize(blob))
    if not wire:
        out["wire.encode_us"] = out["wire.decode_us"] = 0.0
        return out
    from repro.transport.wire import (
        PREAMBLE, decode_frame_table, decode_message, encode_message,
    )

    out["wire.encode_us"] = time_call(lambda: encode_message(header, body))
    buffers, _ = encode_message(header, body)
    head = bytes(buffers[0])
    lengths = decode_frame_table(head[: PREAMBLE.size], head[PREAMBLE.size:])
    payload = b"".join(bytes(memoryview(part)) for part in buffers[1:])
    out["wire.decode_us"] = time_call(lambda: decode_message(payload, lengths))
    return out
