"""Trace-replay ingestion: external timelines as analyzable workloads.

Recorded application timelines — our own Chrome-trace exports and a
CUPTI-activity-like JSON schema — are converted into an op list that
:class:`ReplayApp` re-drives through the simulated runtime, so the
full five-stage pipeline analyzes a *recorded* application exactly
like a hand-written one (the DeepProf-style ingestion path).

Two converters:

* :func:`timeline_from_chrome` ingests the application-timeline lane
  (``cat="cuda"``, pid 3) that :func:`app_timeline_events` adds to a
  report's ``--trace-out`` export.  Stage 2 traces only sync and
  transfer calls — kernels and CPU compute appear as gaps — so the
  converter *re-synthesizes* device pressure: a sync that waited ``w``
  gets a preceding kernel of duration ``w``, a required sync gets a
  protected host buffer whose first read is scheduled at the recorded
  first-use delay, and transfer payloads are derived from the recorded
  content digests (identical digests become identical bytes, so
  duplicate detection round-trips).

* :func:`timeline_from_cupti` ingests ``diogenes-cupti-activity/1``
  JSON: explicit kernel/memcpy/sync/host_read records with start
  times, durations, streams, and payload/buffer tags.  Bundled under
  ``repro/apps/traces/`` are real-shaped recordings (a DL training
  loop, a multi-stream pipeline) in this schema.

Both converters reproduce problem *classes* at the original call
sites; exact waits are re-simulated, so magnitudes are approximate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib

import numpy as np

from repro.apps.base import Workload
from repro.runtime.context import ExecutionContext

#: Directory of bundled real-shaped traces.
TRACES_DIR = pathlib.Path(__file__).parent / "traces"

#: Synthetic-op source file used for re-synthesized kernels/copies.
_SYNTH_SRC = "replay_synth.cpp"

#: Copy cost model used to split a recorded wait into "pending device
#: work" + "DMA time" (mirrors the default CostParameters).
_COPY_LATENCY = 8e-6
_COPY_BANDWIDTH = 30e9

_MIN_KERNEL = 4e-6


def _copy_estimate(nbytes: int) -> float:
    return _COPY_LATENCY + nbytes / _COPY_BANDWIDTH


def _tag_value(tag) -> float:
    """Deterministic payload fill value for a content tag.

    Equal tags yield equal bytes (duplicate digests round-trip);
    distinct tags yield distinct bytes with overwhelming probability.
    """
    digest = hashlib.blake2b(str(tag).encode(), digest_size=8).digest()
    return float(int.from_bytes(digest[:6], "big"))


# ----------------------------------------------------------------------
# Chrome-trace export of the application timeline
# ----------------------------------------------------------------------
def app_timeline_events(report, pid: int = 3) -> list[dict]:
    """The report's stage-2 operations as Chrome-trace duration events.

    One ``ph="X"`` event per traced call (pid 3, ``cat="cuda"``),
    carrying in ``args`` everything the replay converter needs: call
    site, wait time, transfer geometry, payload digest, requiredness,
    and first-use delay.  Appended to ``--trace-out`` exports next to
    the tool's own pipeline spans.
    """
    required = {r.site for r in report.stage3.sync_uses if r.required}
    digests = {r.site: r.digest for r in report.stage3.transfer_hashes}
    delays = report.stage4.delay_by_site()

    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": f"application: {report.workload_name}"},
    }]
    for e in report.stage2.events:
        leaf = e.stack.leaf
        args = {
            "seq": e.seq,
            "file": leaf.file if leaf else "<unknown>",
            "line": leaf.line if leaf else 0,
            "occurrence": e.site.occurrence,
            "sync_wait": e.sync_wait,
            "is_sync": e.is_sync,
            "is_transfer": e.is_transfer,
            "nbytes": e.nbytes,
            "direction": e.direction,
            "required": e.site in required,
            "first_use_delay": delays.get(e.site, 0.0),
        }
        digest = digests.get(e.site)
        if digest is not None:
            args["digest"] = digest
        events.append({
            "name": e.api_name, "cat": "cuda", "ph": "X",
            "pid": pid, "tid": 0,
            "ts": e.t_entry * 1e6, "dur": e.duration * 1e6,
            "args": args,
        })
    return events


def report_chrome_trace(report) -> dict:
    """A standalone Chrome-trace document of just the app timeline."""
    return {"traceEvents": app_timeline_events(report),
            "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Converters -> internal op list
# ----------------------------------------------------------------------
class _TraceError(ValueError):
    """A malformed trace, with the record (and field) at fault named."""


#: Fields the converters pass through ``float`` or ``int``.
_NUMERIC_FIELDS = (("ts", float), ("dur", float), ("start", float),
                   ("duration", float), ("sync_wait", float),
                   ("first_use_delay", float), ("line", int),
                   ("stream", int), ("bytes", int), ("nbytes", int))


def _bad_field(rec: dict) -> str | None:
    """What is wrong with ``rec``'s numeric fields, if anything."""
    for key, convert in _NUMERIC_FIELDS:
        if key in rec:
            try:
                convert(rec[key])
            except (TypeError, ValueError):
                return f"bad {key!r} value {rec[key]!r}"
    return None


def _tag(key: str, value):
    """``value``, the buffer or payload tag in field ``key``.  Tags key
    the replay plan, so one that cannot (a list or an object) fails
    here, at conversion, and not in the first collection run."""
    if isinstance(value, (list, dict)):
        raise TypeError(f"bad {key!r} value {value!r} (a tag cannot be a "
                        f"list or an object)")
    return value


def _record_error(where: str, rec: dict, exc: Exception) -> _TraceError:
    """The error for a record whose conversion raised ``exc``, naming
    the record and, where it can tell, the field.

    The converters read fields directly and diagnose only once a read
    has failed, so a well-formed trace pays nothing for the checks.
    """
    if isinstance(exc, KeyError):
        return _TraceError(f"{where} has no {exc.args[0]!r} field")
    return _TraceError(f"{where}: {_bad_field(rec) or exc}")


def _in_order(pairs: list, label: str, key, fields: str) -> list:
    """``(index, record)`` pairs sorted by ``key(pair)``.

    A record that is not an object, or keys that do not compare, are a
    :class:`_TraceError` naming the record at fault (``label`` formats
    its index).
    """
    try:
        return sorted(pairs, key=key)
    except (AttributeError, TypeError):
        for pos, rec in pairs:
            if not isinstance(rec, dict):
                raise _TraceError(f"{label.format(pos)} is not an object: "
                                  f"{rec!r}") from None
        for pair in pairs:
            values = key(pair)
            if not all(isinstance(v, (int, float)) for v in values):
                raise _TraceError(f"{label.format(pair[0])}: {fields} must "
                                  f"be numbers, not {values!r}") from None
        raise


def _json_list(items, name: str) -> list:
    if not isinstance(items, list):
        raise _TraceError(f"{name} must be a list, "
                          f"not {type(items).__name__}")
    return items


class _OpList:
    """Builder for the replay op list, with read scheduling."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.pending: list[tuple[float, dict]] = []   # (due time, read op)
        self.cursor: float | None = None
        self.synth = 0

    def synth_site(self) -> tuple[str, int]:
        self.synth += 1
        return _SYNTH_SRC, 1000 + self.synth

    def schedule_read(self, due: float, tag: str, file: str,
                      line: int) -> None:
        self.pending.append((due, {"op": "read", "buffer": tag,
                                   "file": file, "line": line}))
        self.pending.sort(key=lambda item: item[0])

    def advance(self, target: float) -> None:
        """Emit CPU work up to ``target``, flushing due reads in order."""
        if self.cursor is None:
            self.cursor = target
        while self.pending and self.pending[0][0] <= target:
            due, read = self.pending.pop(0)
            if due > self.cursor:
                self.ops.append({"op": "work", "seconds": due - self.cursor})
                self.cursor = due
            self.ops.append(read)
        if target > self.cursor:
            self.ops.append({"op": "work", "seconds": target - self.cursor})
            self.cursor = target

    def finish(self) -> list[dict]:
        while self.pending:
            due, read = self.pending.pop(0)
            if self.cursor is not None and due > self.cursor:
                self.ops.append({"op": "work", "seconds": due - self.cursor})
                self.cursor = due
            self.ops.append(read)
        return self.ops

    # -- synthesized device pressure / protected data ------------------
    def synth_kernel(self, duration: float) -> None:
        file, line = self.synth_site()
        self.ops.append({
            "op": "kernel", "name": f"replay_fill_{self.synth}",
            "duration": max(duration, _MIN_KERNEL), "stream": 0,
            "file": file, "line": line,
            "writes": [("__scratch__", f"__synth_{self.synth}", 2048)],
        })

    def synth_protected(self, duration: float, due: float) -> None:
        """Kernel + quiet pinned copy; the read lands at ``due``.

        Makes the *next* emitted sync required: the copy's pinned
        destination is read ``due`` seconds into the recorded timeline,
        reproducing the recorded first-use delay.
        """
        self.synth_kernel(duration)
        file, line = self.synth_site()
        dst = f"__protected_{self.synth}"
        self.ops.append({
            "op": "d2h", "bytes": 2048, "buffer": "__scratch__",
            "dst": dst, "sync": False, "stream": 0,
            "file": file, "line": line,
        })
        rfile, rline = self.synth_site()
        self.schedule_read(due, dst, rfile, rline)


def _chrome_app_events(data: dict) -> list[tuple[int, dict]]:
    """The app-lane events in timeline order, each with its index in
    ``traceEvents`` (for error messages)."""
    events = []
    for pos, e in enumerate(_json_list(data.get("traceEvents", []),
                                       "traceEvents")):
        if not isinstance(e, dict):
            raise _TraceError(f"traceEvents[{pos}] is not an object: {e!r}")
        if e.get("ph") == "X" and e.get("cat") == "cuda":
            if not isinstance(e.get("args", {}), dict):
                raise _TraceError(f"traceEvents[{pos}]: bad 'args' value "
                                  f"{e['args']!r}")
            events.append((pos, e))
    if not events:
        raise ValueError(
            "no application-timeline events (ph=X, cat=cuda) in this "
            "trace; export one with `diogenes run <app> --trace-out ...`")
    return _in_order(events, "traceEvents[{}]", lambda item: (
        item[1].get("ts", 0.0), item[1].get("args", {}).get("seq", 0)),
        "'ts' and 'args.seq'")


def timeline_from_chrome(data: dict) -> list[dict]:
    """Convert an exported Chrome trace's app lane into replay ops.

    A malformed event is a :class:`ValueError` naming it and, where it
    can tell, its field.
    """
    build = _OpList()
    for idx, (pos, event) in enumerate(_chrome_app_events(data)):
        try:
            args = event.get("args", {})
            ts = event.get("ts", 0.0) / 1e6
            dur = event.get("dur", 0.0) / 1e6
            end = ts + dur
            file = args.get("file", "replayed.cpp")
            line = int(args.get("line", 0))
            wait = float(args.get("sync_wait", 0.0))
            is_sync = bool(args.get("is_sync", False))
            required = bool(args.get("required", False))
            delay = float(args.get("first_use_delay", 0.0))
            build.advance(ts)

            if args.get("is_transfer", False):
                nbytes = int(args.get("nbytes", 2048)) or 2048
                direction = args.get("direction", "h2d")
                digest = _tag("digest",
                              args.get("digest") or f"__fresh_{idx}")
                pending = max(0.0, wait - _copy_estimate(nbytes))
                if direction == "h2d":
                    if is_sync and required:
                        build.synth_protected(_MIN_KERNEL, end + delay)
                    if pending > 25e-6:
                        build.synth_kernel(pending)
                    build.ops.append({
                        "op": "h2d", "bytes": nbytes, "payload": digest,
                        "buffer": f"__dev_{idx}", "sync": is_sync,
                        "stream": 0, "file": file, "line": line,
                    })
                elif direction == "d2h":
                    # Re-create the device-side pressure *and* the copied
                    # content: a kernel writes the digest-derived payload,
                    # then the copy drains it.
                    dev, dst = f"__dev_{idx}", f"__host_{idx}"
                    build.ops.append({
                        "op": "kernel", "name": f"replay_src_{idx}",
                        "duration": max(pending, _MIN_KERNEL), "stream": 0,
                        "file": _SYNTH_SRC, "line": 2000 + idx,
                        "writes": [(dev, digest, nbytes)],
                    })
                    build.ops.append({
                        "op": "d2h", "bytes": nbytes, "buffer": dev,
                        "dst": dst, "sync": is_sync, "stream": 0,
                        "file": file, "line": line,
                    })
                    if is_sync and required:
                        rfile, rline = build.synth_site()
                        build.schedule_read(end + delay, dst, rfile, rline)
                else:  # d2d: pure device work
                    build.ops.append({
                        "op": "kernel", "name": f"replay_d2d_{idx}",
                        "duration": max(dur, _MIN_KERNEL), "stream": 0,
                        "file": file, "line": line, "writes": [],
                    })
            elif is_sync:
                if required:
                    build.synth_protected(max(wait, _MIN_KERNEL), end + delay)
                elif wait > 1e-7:
                    build.synth_kernel(wait)
                api = ("stream" if "Stream" in event.get("name", "")
                       else "device")
                build.ops.append({"op": "sync", "api": api, "stream": 0,
                                  "file": file, "line": line})
            build.cursor = max(build.cursor, end)
        except (KeyError, TypeError, ValueError) as exc:
            where, args = f"traceEvents[{pos}]", event.get("args", {})
            if _bad_field(event) is None and _bad_field(args) is not None:
                where, event = f"{where} args", args
            raise _record_error(where, event, exc) from None
    return build.finish()


def timeline_from_cupti(data: dict) -> list[dict]:
    """Convert ``diogenes-cupti-activity/1`` records into replay ops.

    A malformed record is a :class:`ValueError` naming it (by its index
    in ``records``) and, where it can tell, its field.
    """
    schema = data.get("schema")
    if schema != "diogenes-cupti-activity/1":
        raise ValueError(
            f"unsupported activity schema {schema!r} "
            "(expected 'diogenes-cupti-activity/1')")
    records = _json_list(data.get("records", []), "records")
    if not records:
        raise ValueError("activity trace has no records")
    records = _in_order(list(enumerate(records)), "activity record {}",
                        lambda item: (item[1].get("start", 0.0),
                                      item[1].get("seq", 0)),
                        "'start' and 'seq'")

    build = _OpList()
    for idx, (pos, rec) in enumerate(records):
        try:
            kind = rec.get("kind")
            start = float(rec.get("start", 0.0))
            file = rec.get("file", "replayed.cpp")
            line = int(rec.get("line", 0))
            build.advance(start)
            if kind == "kernel":
                build.ops.append({
                    "op": "kernel", "name": rec.get("name", f"kernel_{idx}"),
                    "duration": float(rec["duration"]),
                    "stream": int(rec.get("stream", 0)),
                    "file": file, "line": line,
                    "writes": _kernel_writes(rec, pos),
                })
                build.cursor = start + 10e-6
            elif kind == "memcpy":
                sync = rec.get("api", "cudaMemcpy") == "cudaMemcpy"
                nbytes = int(rec.get("bytes", 2048))
                if rec.get("copy") == "h2d":
                    build.ops.append({
                        "op": "h2d", "bytes": nbytes,
                        "payload": _tag("payload", rec["payload"]),
                        "buffer": _tag("buffer", rec["buffer"]),
                        "sync": sync, "stream": int(rec.get("stream", 0)),
                        "file": file, "line": line,
                    })
                elif rec.get("copy") == "d2h":
                    build.ops.append({
                        "op": "d2h", "bytes": nbytes,
                        "buffer": _tag("buffer", rec["buffer"]),
                        "dst": _tag("dst", rec["dst"]),
                        "sync": sync, "stream": int(rec.get("stream", 0)),
                        "file": file, "line": line,
                    })
                else:
                    raise _TraceError(f"activity record {pos}: memcpy "
                                      "needs copy 'h2d' or 'd2h'")
                build.cursor = start + (float(rec.get("duration", 10e-6))
                                        if sync else 10e-6)
            elif kind == "sync":
                api = ("stream"
                       if rec.get("api") == "cudaStreamSynchronize"
                       else "device")
                build.ops.append({"op": "sync", "api": api,
                                  "stream": int(rec.get("stream", 0)),
                                  "file": file, "line": line})
                build.cursor = start + float(rec.get("duration", 0.0))
            elif kind == "host_read":
                build.ops.append({"op": "read",
                                  "buffer": _tag("buffer", rec["buffer"]),
                                  "file": file, "line": line})
                build.cursor = start + 5e-6
            else:
                raise _TraceError(f"unknown activity record kind {kind!r} "
                                  f"(activity record {pos})")
        except _TraceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise _record_error(f"activity record {pos}", rec,
                                exc) from None
    return build.finish()


def _kernel_writes(rec: dict, pos: int) -> list[tuple]:
    """A kernel record's ``writes`` as ``(buffer, payload, bytes)``."""
    writes = []
    for j, w in enumerate(_json_list(rec.get("writes", []),
                                     f"activity record {pos} writes")):
        where = f"activity record {pos} writes[{j}]"
        if not isinstance(w, dict):
            raise _TraceError(f"{where} is not an object: {w!r}")
        try:
            writes.append((_tag("buffer", w["buffer"]),
                           _tag("payload", w["payload"]),
                           int(w.get("bytes", 2048))))
        except (KeyError, TypeError, ValueError) as exc:
            raise _record_error(where, w, exc) from None
    return writes


def timeline_from_any(data: dict) -> list[dict]:
    """Dispatch on document shape: Chrome trace vs activity records."""
    if not isinstance(data, dict):
        raise ValueError("a trace document is a JSON object, "
                         f"not {type(data).__name__}")
    if "traceEvents" in data:
        return timeline_from_chrome(data)
    if "records" in data or "schema" in data:
        return timeline_from_cupti(data)
    raise ValueError("unrecognized trace document: expected a Chrome "
                     "trace ('traceEvents') or a "
                     "diogenes-cupti-activity document ('records')")


def bundled_traces() -> list[str]:
    """Names of the traces shipped under ``repro/apps/traces/``."""
    return sorted(p.stem.replace("_", "-")
                  for p in TRACES_DIR.glob("*.json"))


def _resolve_trace(trace: str) -> pathlib.Path:
    if os.path.isfile(trace):
        return pathlib.Path(trace)
    bundled = TRACES_DIR / (trace.replace("-", "_") + ".json")
    if bundled.exists():
        return bundled
    raise ValueError(f"unknown trace {trace!r}: not a file, and not one "
                     f"of the bundled traces {bundled_traces()}")


# ----------------------------------------------------------------------
# The replay workload
# ----------------------------------------------------------------------
class ReplayApp(Workload):
    """Re-drives a recorded timeline through the simulated runtime.

    ``trace`` is a bundled trace name (``diogenes list`` shows them as
    ``replay`` + ``--param trace=...``) or a path to a Chrome-trace /
    activity JSON file.  The op list is fully determined at
    construction, so replays are deterministic and the workload is
    registry-rebuildable (picklable spec, cacheable stages).
    """

    name = "replay"
    description = "replay a recorded application timeline"

    def __init__(self, trace: str = "dl-training") -> None:
        self.trace = trace
        path = _resolve_trace(trace)
        with open(path) as fp:
            data = json.load(fp)
        self.timeline = timeline_from_any(data)
        self.name = f"replay-{path.stem.replace('_', '-')}"

    @classmethod
    def from_timeline(cls, timeline: list[dict],
                      label: str = "timeline") -> "ReplayApp":
        """Build a replay app from an already-converted op list."""
        app = cls.__new__(cls)
        app.trace = label
        app.timeline = list(timeline)
        app.name = f"replay-{label}"
        return app

    @classmethod
    def from_document(cls, data: dict, label: str = "document") -> "ReplayApp":
        """Build a replay app from an in-memory trace document."""
        return cls.from_timeline(timeline_from_any(data), label)

    # ------------------------------------------------------------------
    @functools.cached_property
    def _plan(self):
        """Prescan, once per instance: buffer tag -> byte size (and
        pinned-ness of hosts), the non-default streams, and each payload
        tag's fill value.

        All are pure functions of the timeline, and every collection
        stage runs the same instance.  The fill *arrays* are not kept:
        kernel payloads are unique per iteration, so keeping them would
        hold every payload of the trace in memory at once.
        """
        dev: dict[str, int] = {"__scratch__": 2048}
        host: dict[str, tuple[int, bool]] = {}   # tag -> (bytes, pinned)
        src: dict[tuple[str, bool], int] = {}    # (payload, pinned) -> bytes
        payloads = set()

        def grow(d, key, nbytes):
            d[key] = max(d.get(key, 0), nbytes)

        for op in self.timeline:
            if op["op"] == "kernel":
                for buffer, payload, nbytes in op["writes"]:
                    grow(dev, buffer, nbytes)
                    payloads.add(payload)
            elif op["op"] == "h2d":
                grow(dev, op["buffer"], op["bytes"])
                grow(src, (op["payload"], not op["sync"]), op["bytes"])
                payloads.add(op["payload"])
            elif op["op"] == "d2h":
                grow(dev, op["buffer"], op["bytes"])
                nbytes, pinned = host.get(op["dst"], (0, False))
                host[op["dst"]] = (max(nbytes, op["bytes"]),
                                   pinned or not op["sync"])
        streams = sorted({op.get("stream", 0) for op in self.timeline
                          if op["op"] in ("kernel", "h2d", "d2h", "sync")}
                         - {0})
        values = {payload: _tag_value(payload) for payload in payloads}
        return dev, host, src, streams, values

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        dev_sizes, host_sizes, src_sizes, stream_ids, values = self._plan

        with ctx.frame("replay_main", "replay.cpp", 1):
            dev = {tag: rt.cudaMalloc(max(nbytes, 8), label=f"dev:{tag}")
                   for tag, nbytes in sorted(dev_sizes.items())}
            host = {}
            for tag, (nbytes, pinned) in sorted(host_sizes.items()):
                elements = max(nbytes // 8, 1)
                host[tag] = (rt.cudaMallocHost(elements, label=f"pin:{tag}")
                             if pinned
                             else ctx.host_array(elements,
                                                 label=f"host:{tag}"))
            src = {}
            for (payload, pinned), nbytes in sorted(src_sizes.items()):
                elements = max(nbytes // 8, 1)
                buf = (rt.cudaMallocHost(elements, label=f"psrc:{payload}")
                       if pinned
                       else ctx.host_array(elements, label=f"src:{payload}"))
                # Content derives from the tag: equal tags (equal
                # recorded digests) transfer equal bytes.  Written in
                # the prologue, before any synchronization exists.
                buf.write(np.full(elements, values[payload]))
                src[(payload, pinned)] = buf
            streams = {0: 0}
            for sid in stream_ids:
                streams[sid] = rt.cudaStreamCreate()

            for op in self.timeline:
                self._drive(ctx, op, dev, host, src, streams, values)

    def _drive(self, ctx, op, dev, host, src, streams, values) -> None:
        # The machine and stack tracker directly, not the context's
        # cpu_work/frame conveniences: this runs once per replayed op.
        rt = ctx.cudart
        kind = op["op"]
        if kind == "work":
            ctx.machine.cpu_work(op["seconds"], "replayed")
            return
        with ctx.stacks.frame("replayed", op["file"], op["line"]):
            if kind == "kernel":
                writes = [(dev[buffer],
                           np.full(max(nbytes // 8, 1), values[payload]))
                          for buffer, payload, nbytes in op["writes"]]
                rt.cudaLaunchKernel(op["name"], op["duration"],
                                    stream=streams[op.get("stream", 0)],
                                    writes=writes)
            elif kind == "h2d":
                buf = src[(op["payload"], not op["sync"])]
                if op["sync"]:
                    rt.cudaMemcpy(dev[op["buffer"]], buf)
                else:
                    rt.cudaMemcpyAsync(dev[op["buffer"]], buf,
                                       stream=streams[op.get("stream", 0)])
            elif kind == "d2h":
                if op["sync"]:
                    rt.cudaMemcpy(host[op["dst"]], dev[op["buffer"]])
                else:
                    rt.cudaMemcpyAsync(host[op["dst"]], dev[op["buffer"]],
                                       stream=streams[op.get("stream", 0)])
            elif kind == "sync":
                if op["api"] == "stream":
                    rt.cudaStreamSynchronize(streams[op.get("stream", 0)])
                else:
                    rt.cudaDeviceSynchronize()
            elif kind == "read":
                # The modelled event is the instrumented load itself;
                # nothing uses the value, so nothing reduces it.
                host[op["buffer"]].read()
            else:  # pragma: no cover - converters emit known ops
                raise ValueError(f"unknown replay op {kind!r}")
