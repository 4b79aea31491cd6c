"""Streaming analysis: live tail over the collection stages.

The package splits event *ingestion* from the stage *drivers*:
:mod:`repro.stream.sink` is the subscribable seam the drivers notify,
and :mod:`repro.stream.incremental` is the windowed analyzer that
turns the live event flow into versioned ranked-problem snapshots.
See ``docs/streaming.md``.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "StreamAnalyzer": "repro.stream.incremental",
    "EventSink": "repro.stream.sink",
    "active_sink": "repro.stream.sink",
    "subscribed": "repro.stream.sink",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
