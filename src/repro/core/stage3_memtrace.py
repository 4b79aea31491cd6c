"""FFM Stage 3 — Memory Tracing and Data Hashing (§3.3).

Two collection mechanisms run in the same instrumented execution:

* **Memory tracing (sync necessity, §3.3.1).**  The stage intercepts
  every operation that makes CPU memory GPU-writable (D2H transfers,
  managed allocations) and records those address regions.  After each
  synchronization, load/store instrumentation watches for the first
  CPU access to a protected region: an access before the *next*
  synchronization means the sync was required for correctness, and the
  accessing instruction's location is saved for stage 4.  No access →
  the synchronization is potentially unnecessary.

* **Data hashing (duplicate transfers, §3.3.2).**  Every transferred
  payload is hashed (BLAKE2b) and compared against all prior hashes;
  a match marks the transfer as a duplicate, recording the site of the
  original.  Hashing cost is charged to the virtual clock in
  proportion to bytes hashed — this stage is expensive, exactly as in
  the paper.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import repro.obs as obs
from repro.core.colbuild import Stage3Builder, record_engine_of
from repro.core.records import (
    SiteKey,
    Stage1Data,
    Stage3Data,
    SyncUseRecord,
    TransferHashRecord,
)
from repro.core.rootprobe import RootCall, RootTracker
from repro.core.stage2_tracing import traced_function_set
from repro.hostmem.accesshooks import AccessEvent
from repro.instr.loadstore import LoadStoreInstrumenter, WatchedRegion
from repro.instr.probes import Probe
from repro.instr.stacks import StackTrace
from repro.runtime.context import ExecutionContext
from repro.stream.sink import active_sink

#: Allocation entry points that create GPU-writable CPU memory.
#: Entry points that create CPU memory the GPU can write directly:
#: unified-memory allocations and pinned (zero-copy-capable) host pages.
_MANAGED_ALLOC_FUNCTIONS = frozenset({
    "cudaMallocManaged", "cuMemAllocManaged",
    "cudaMallocHost", "cuMemAllocHost",
})


def hash_payload(payload) -> str:
    """Content hash used for transfer deduplication.

    Hashes through the buffer protocol (zero-copy for contiguous numpy
    arrays); the ``tobytes`` fallback only runs for non-contiguous or
    non-buffer payloads.
    """
    try:
        return hashlib.blake2b(payload, digest_size=16).hexdigest()
    except (TypeError, BufferError, ValueError):
        return hashlib.blake2b(payload.tobytes(), digest_size=16).hexdigest()


def _transfer_digest(meta: dict, payload, nbytes: int) -> str:
    """Digest of a transfer payload, preferring the buffer-level cache.

    The driver publishes the live :class:`~repro.hostmem.buffer.HostBuffer`
    behind each copy (source for H2D, destination for D2H).  At probe
    time the named region holds exactly the transferred bytes — the
    payload is copied out of the source before this probe fires, and a
    D2H copy lands in the destination before it — so the buffer's
    generation-cached :meth:`content_digest` equals ``hash_payload`` on
    the payload, while unchanged re-transfers skip rehashing entirely.
    The virtual-clock hashing charge is made by the caller regardless:
    this caches *tool* cost, never *modelled* cost.
    """
    src = meta.get("transfer_src_buffer")
    if src is not None and not src.freed:
        offset = int(meta.get("transfer_src_offset", 0))
        if offset + nbytes <= src.nbytes:
            return src.content_digest(offset, nbytes)
    dst = meta.get("transfer_dst_buffer")
    if dst is not None and not dst.freed:
        offset = int(meta.get("transfer_dst_offset", 0))
        if offset + nbytes <= dst.nbytes:
            return dst.content_digest(offset, nbytes)
    return hash_payload(payload)


@dataclass
class DedupStore:
    """Hash store with the configurable matching policy.

    ``policy`` is ``"content"`` (the paper's description: a transfer is
    duplicate if its bytes were ever transferred before) or
    ``"content+dst"`` (additionally require the same destination,
    matching the fix actually applied in cumf_als — "retransfer the
    same data to the same destination").
    """

    policy: str = "content"

    def __post_init__(self) -> None:
        if self.policy not in ("content", "content+dst"):
            raise ValueError(f"unknown dedup policy {self.policy!r}")
        self._seen: dict = {}

    def check(self, digest: str, dst: int, site: SiteKey) -> SiteKey | None:
        """Return the site of the first transfer of this data, or None."""
        key = digest if self.policy == "content" else (digest, dst)
        first = self._seen.get(key)
        if first is None:
            self._seen[key] = site
            return None
        return first


def run_stage3(workload, stage1: Stage1Data, config,
               mode: str = "both") -> Stage3Data:
    """Run the memory tracing and data hashing stage on a fresh context.

    ``mode`` selects what this run collects: ``"memtrace"`` (sync
    necessity via protected-region load/store tracing), ``"hashing"``
    (transfer payload dedup), or ``"both"``.  The Diogenes tool runs
    the two collections in *separate* runs, as §4 of the paper
    describes ("Diogenes runs stages 1 through 3 to separately collect
    performance data for problematic synchronization and memory
    transfer operations"); ``"both"`` is a convenience for tests.
    """
    if mode not in ("both", "memtrace", "hashing"):
        raise ValueError(f"unknown stage-3 mode {mode!r}")
    stage_name = f"stage3_{mode}"
    do_memtrace = mode in ("both", "memtrace")
    do_hashing = mode in ("both", "hashing")
    ctx = ExecutionContext.create(config.machine_config)
    dispatch = ctx.driver.dispatch
    machine = ctx.machine

    tracker = RootTracker(
        traced_function_set(stage1),
        probe_overhead=config.memtrace_probe_overhead,
    )
    loadstore = LoadStoreInstrumenter(
        ctx.hostspace, ctx.stacks, machine,
        overhead_per_access=config.loadstore_overhead,
    )
    dedup = DedupStore(policy=config.dedup_policy)
    engine = record_engine_of(config)

    def _digest_charged(meta, payload, nbytes: int) -> str:
        ledger = obs.active_ledger()
        if ledger is not None:
            # The one bucket measured directly, not estimated: digest
            # cost varies with payload size and cache state, so
            # hits × unit would misstate it.
            h0 = time.perf_counter()
            digest = _transfer_digest(meta, payload, nbytes)
            ledger.charge(stage_name, "hashing",
                          time.perf_counter() - h0)
            return digest
        return _transfer_digest(meta, payload, nbytes)

    sink = active_sink() if engine == "columnar" else None
    if engine == "columnar":
        builder = Stage3Builder()
        if sink is not None:
            builder.sink = sink
            sink.stage_started(stage_name, builder)

        # --- transfer hashing + protected-region registration ---------
        def on_root_exit(root: RootCall) -> None:
            record = root.record
            meta = record._meta
            if not meta:
                return
            payload = meta.get("transfer_payload")
            if payload is not None:
                nbytes = int(meta["transfer_nbytes"])
                if do_hashing:
                    machine.cpu_api(nbytes / config.hash_bandwidth,
                                    "instrumentation")
                    digest = _digest_charged(meta, payload, nbytes)
                    # Site identity travels as (stack, occurrence);
                    # SiteKeys mint once, at finish().
                    first = dedup.check(digest, int(meta["transfer_dst"]),
                                        (record.stack, root.occurrence))
                    builder.add_hash(record.stack, root.occurrence,
                                     record.name, nbytes,
                                     meta.get("transfer_direction", ""),
                                     digest, first)
                if do_memtrace and meta.get("transfer_direction") == "d2h":
                    loadstore.regions.ensure(
                        int(meta["transfer_dst"]), nbytes, origin="d2h",
                    )

        # --- sync-use bookkeeping --------------------------------------
        def on_root_exit_sync(root: RootCall) -> None:
            if not do_memtrace:
                return
            meta = root.record._meta
            if meta and meta.get("sync_wait_count", 0.0) > 0.0:
                builder.open_sync(root.record.stack, root.occurrence,
                                  root.record.name)

        def on_access(event: AccessEvent, stack: StackTrace,
                      regions: list[WatchedRegion]) -> None:
            builder.record_access(stack)
    else:
        sync_uses: list[SyncUseRecord] = []
        transfer_hashes: list[TransferHashRecord] = []
        open_sync: SyncUseRecord | None = None

        # --- transfer hashing + protected-region registration ---------
        def on_root_exit(root: RootCall) -> None:
            meta = root.record.meta
            payload = meta.get("transfer_payload")
            if payload is not None:
                nbytes = int(meta["transfer_nbytes"])
                if do_hashing:
                    machine.cpu_api(nbytes / config.hash_bandwidth,
                                    "instrumentation")
                    digest = _digest_charged(meta, payload, nbytes)
                    first = dedup.check(digest, int(meta["transfer_dst"]),
                                        root.site)
                    transfer_hashes.append(TransferHashRecord(
                        site=root.site,
                        api_name=root.record.name,
                        nbytes=nbytes,
                        direction=meta.get("transfer_direction", ""),
                        digest=digest,
                        duplicate=first is not None,
                        first_site=first,
                    ))
                if do_memtrace and meta.get("transfer_direction") == "d2h":
                    loadstore.regions.ensure(
                        int(meta["transfer_dst"]), nbytes, origin="d2h",
                    )

        # --- sync-use bookkeeping --------------------------------------
        def on_root_exit_sync(root: RootCall) -> None:
            nonlocal open_sync
            if not do_memtrace:
                return
            if root.record.meta.get("sync_wait_count", 0.0) > 0.0:
                if open_sync is not None:
                    sync_uses.append(open_sync)
                open_sync = SyncUseRecord(site=root.site,
                                          api_name=root.record.name)

        def on_access(event: AccessEvent, stack: StackTrace,
                      regions: list[WatchedRegion]) -> None:
            nonlocal open_sync
            if open_sync is None or open_sync.required:
                return
            leaf = stack.leaf
            open_sync.required = True
            if leaf is not None:
                open_sync.access_file = leaf.file
                open_sync.access_line = leaf.line
                open_sync.access_address = leaf.address
            open_sync.access_stack = stack

    tracker.on_root_exit.append(on_root_exit)
    tracker.on_root_exit.append(on_root_exit_sync)
    loadstore.on_access(on_access)

    # --- managed allocations create protected regions ------------------
    def on_managed_alloc(record) -> None:
        addr = record.meta.get("managed_host_address")
        if addr is not None:
            loadstore.regions.ensure(
                int(addr), int(record.meta["managed_nbytes"]), origin="managed",
            )
        pinned = record.meta.get("pinned_host_address")
        if pinned is not None:
            loadstore.regions.ensure(
                int(pinned), int(record.meta["pinned_nbytes"]), origin="pinned",
            )

    managed_probe = Probe(
        set(_MANAGED_ALLOC_FUNCTIONS),
        exit=on_managed_alloc,
        label="stage3-managed",
        overhead_per_hit=config.memtrace_probe_overhead,
    )

    dispatch.attach(tracker.probe)
    if do_memtrace:
        dispatch.attach(managed_probe)
        loadstore.install()
    with obs.span(f"stage.stage3_{mode}", clock=ctx.machine.clock,
                  workload=getattr(workload, "name", "workload")) as sp:
        try:
            workload.run(ctx)
        finally:
            # A raising workload still ends its process (so the run is
            # freed) and publishes whatever it accumulated.
            loadstore.uninstall()
            ctx.close()
            tracker.close()
            if do_memtrace:
                obs.record_probe(managed_probe, stage=stage_name)
            obs.record_probe(tracker.probe, stage=stage_name)
            obs.record_device(machine.gpu)
            obs.record_run_overhead(stage_name, machine)
        if engine == "columnar":
            n_sync_uses = builder.sync_count
            n_hashes = builder.hash_count
            n_duplicates = builder.duplicate_count
        else:
            n_sync_uses = len(sync_uses) + (open_sync is not None)
            n_hashes = len(transfer_hashes)
            n_duplicates = sum(1 for t in transfer_hashes if t.duplicate)
        obs.record_collection(stage_name, n_sync_uses + n_hashes, engine)
        sp.set(sync_uses=n_sync_uses, hashes=n_hashes,
               duplicates=n_duplicates)
    obs.count("core.hashes_computed", n_hashes)
    obs.gauge("core.stage_wall_seconds", sp.wall_duration,
              stage=f"stage3_{mode}")

    if engine == "columnar":
        data = builder.finish(execution_time=ctx.elapsed)
        if sink is not None:
            sink.stage_finished(stage_name, data)
        return data

    if open_sync is not None:
        sync_uses.append(open_sync)

    return Stage3Data(
        execution_time=ctx.elapsed,
        sync_uses=sync_uses,
        transfer_hashes=transfer_hashes,
    )
