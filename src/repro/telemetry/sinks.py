"""Telemetry sinks: where trace, log and metric records go.

A *record* is one flat JSON-able dict with a ``"type"`` field (``span``,
``event``, ``log`` or ``metrics``).  A *sink* consumes records; the
whole telemetry layer funnels through exactly one process-global sink
so enabling or disabling observability is a single swap:

* :class:`NullSink` — the default; drops everything.  Producers check
  :func:`sink_enabled` (one global read plus an identity comparison)
  before building a record, so disabled telemetry costs essentially
  nothing on the hot paths.
* :class:`JsonlSink` — one JSON document per line, the on-disk trace
  format consumed by ``repro trace summarize``.
* :class:`MemorySink` — an in-process list; used by tests and by pool
  workers, whose records are shipped back to the parent and re-emitted
  into its sink.

The sink protocol is deliberately tiny (``emit`` + ``close``) so a
downstream user can plug in an OTLP exporter, a socket, or a ring
buffer without the library knowing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Protocol, Union, runtime_checkable


@runtime_checkable
class TelemetrySink(Protocol):
    """Anything that can consume telemetry records."""

    def emit(self, record: Dict[str, Any]) -> None:
        """Consume one record (a flat JSON-able dict)."""

    def close(self) -> None:
        """Flush and release any resources held by the sink."""


class NullSink:
    """Drops every record; the default sink."""

    __slots__ = ()

    def emit(self, record: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullSink()"


#: The shared no-op sink; identity-compared by :func:`sink_enabled`.
NULL_SINK = NullSink()


class MemorySink:
    """Collects records in a list (tests, worker-to-parent shipping)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"MemorySink({len(self.records)} records)"


def _jsonable(value: Any) -> Any:
    """Last-resort coercion for record values (numpy scalars and arrays, paths...)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


class JsonlSink:
    """Writes one compact JSON document per record to a file or stream.

    ``target`` may be a path (opened for writing, closed by
    :meth:`close`) or an already-open text stream (left open — the
    caller owns it).
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self.path: Union[str, None] = str(target)
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self.path = getattr(target, "name", None)
            self._handle = target
            self._owns_handle = False

    def emit(self, record: Dict[str, Any]) -> None:
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=_jsonable) + "\n"
        )

    def close(self) -> None:
        try:
            self._handle.flush()
        except ValueError:
            return  # already closed
        if self._owns_handle:
            self._handle.close()

    def __repr__(self) -> str:
        return f"JsonlSink({self.path!r})"


# ----------------------------------------------------------------------
# the process-global sink
# ----------------------------------------------------------------------
_active_sink: TelemetrySink = NULL_SINK


def get_sink() -> TelemetrySink:
    """The currently active process-global sink."""
    return _active_sink


def set_sink(sink: TelemetrySink) -> TelemetrySink:
    """Install ``sink`` as the global sink; returns the previous one."""
    global _active_sink
    previous = _active_sink
    _active_sink = sink
    return previous


def sink_enabled() -> bool:
    """True when records would actually be consumed.

    This is the hot-path guard: producers call it before building a
    record, so with the default :data:`NULL_SINK` the telemetry layer
    reduces to this one check.
    """
    return _active_sink is not NULL_SINK


@contextmanager
def use_sink(sink: TelemetrySink) -> Iterator[TelemetrySink]:
    """Temporarily install ``sink`` as the global sink."""
    previous = set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)
