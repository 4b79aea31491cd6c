"""The single-copy transfer contract of the simulated driver.

An H2D or D2H copy moves its bytes once, straight from source to
destination, and publishes as ``payload``/``transfer_payload`` a
read-only view of the bytes that landed.  Stage 3 hashes that view (or
the buffer it lives in) before the root call returns, so its digest is
the hash of exactly the transferred bytes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.apps.base import Workload
from repro.apps.replay import ReplayApp
from repro.core.diogenes import DiogenesConfig
from repro.core.stage1_baseline import run_stage1
from repro.core.stage3_memtrace import hash_payload, run_stage3
from repro.driver import private
from repro.instr.probes import Probe
from repro.runtime.context import ExecutionContext
from repro.sim.trace import snapshot_gpu_ops

#: Host buffers hold this many float64 elements (4 KiB).
_ELEMENTS = 512

#: (api, direction, pinned host buffer, dst_offset, src_offset, nbytes).
_CASES = [
    (api, direction, pinned, *window)
    for api in ("cudaMemcpy", "cudaMemcpyAsync")
    for direction in ("h2d", "d2h")
    for pinned in (False, True)
    for window in ((0, 0, None), (96, 40, 1000))
] + [
    ("private", direction, pinned, 0, 0, nbytes)
    for direction in ("h2d", "d2h")
    for pinned in (False, True)
    for nbytes in (None, 1000)
]

_ROOT_SYMBOLS = {"cudaMemcpy", "cudaMemcpyAsync",
                 private.PRIVATE_MEMCPY_SYMBOL}


class CopyMatrix(Workload):
    """One transfer per case, each moving bytes no other case moves.

    ``moves`` keeps, per transfer and in order, the source bytes and
    the bytes that landed in the destination, read right after the
    call returned.
    """

    name = "copy-matrix"

    def run(self, ctx: ExecutionContext) -> None:
        rt, driver = ctx.cudart, ctx.driver
        fresh = itertools.count(1)
        self.moves: list[tuple[bytes, bytes]] = []
        dev = rt.cudaMalloc(_ELEMENTS * 8 + 512, label="dev")
        stream = rt.cudaStreamCreate()
        with ctx.frame("main", "copies.cpp", 1):
            for line, (api, direction, pinned, dst_off, src_off,
                       nbytes) in enumerate(_CASES, start=10):
                host = (rt.cudaMallocHost(_ELEMENTS) if pinned
                        else ctx.host_array(_ELEMENTS))
                content = np.arange(_ELEMENTS, dtype=np.float64) * next(fresh)
                with ctx.frame("copy", "copies.cpp", line):
                    if direction == "h2d":
                        host.write(content)
                        src, dst = host, dev
                    else:
                        rt.cudaLaunchKernel("fill", 1e-5,
                                            writes=[(dev, content)])
                        src, dst = dev, host
                    size = (nbytes if nbytes is not None
                            else min(src.nbytes - src_off,
                                     dst.nbytes - dst_off))
                    if api == "cudaMemcpy":
                        rt.cudaMemcpy(dst, src, nbytes, dst_offset=dst_off,
                                      src_offset=src_off)
                    elif api == "cudaMemcpyAsync":
                        rt.cudaMemcpyAsync(dst, src, stream, nbytes,
                                           dst_offset=dst_off,
                                           src_offset=src_off)
                    elif direction == "h2d":
                        private.private_memcpy_htod(driver, dst, src, nbytes)
                    else:
                        private.private_memcpy_dtoh(driver, dst, src, nbytes)
                self.moves.append((_region(src, src_off, size),
                                   _region(dst, dst_off, size)))


def _region(buf, offset: int, size: int) -> bytes:
    """The bytes of a host or device buffer region, uninstrumented."""
    if hasattr(buf, "read_shadow"):
        return buf.read_shadow(offset, size).tobytes()
    return buf.raw_bytes(offset, size).tobytes()


def test_every_case_lands_the_source_bytes():
    app = CopyMatrix()
    app.execute().close()
    assert len(app.moves) == len(_CASES)
    for case, (source, landed) in zip(_CASES, app.moves):
        assert landed == source, case
    # Each case moved different bytes, so a digest match below cannot
    # come from a neighbouring transfer.
    assert len({source for source, _ in app.moves}) == len(_CASES)


def test_stage3_digest_is_the_hash_of_the_landed_bytes():
    app, config = CopyMatrix(), DiogenesConfig()
    stage1 = run_stage1(app, config)
    stage3 = run_stage3(app, stage1, config, mode="hashing")
    digests = [record.digest for record in stage3.transfer_hashes]
    assert digests == [hash_payload(np.frombuffer(landed, np.uint8))
                       for _, landed in app.moves]


def test_published_payload_is_a_read_only_view_of_the_landed_bytes():
    seen = []

    def at_root_exit(record) -> None:
        payload = record.meta["transfer_payload"]
        seen.append((payload.tobytes(), hash_payload(payload),
                     payload.flags.writeable,
                     int(record.meta["transfer_nbytes"])))

    app = CopyMatrix()
    ctx = ExecutionContext.create()
    ctx.driver.dispatch.attach(Probe(_ROOT_SYMBOLS, exit=at_root_exit))
    try:
        app.run(ctx)
    finally:
        ctx.close()
    assert len(seen) == len(_CASES)
    for case, (payload, digest, writeable, nbytes), (_, landed) in zip(
            _CASES, seen, app.moves):
        assert payload == landed and len(landed) == nbytes, case
        assert digest == hash_payload(np.frombuffer(landed, np.uint8)), case
        assert not writeable, case


@pytest.mark.parametrize("trace", ["dl-training", "multi-stream"])
def test_replay_instance_repeats_the_same_run(trace):
    # The replay plan is worked out once per instance; every later run
    # must still issue the first run's ops at the first run's times.
    app = ReplayApp(trace)
    runs = []
    for _ in range(2):
        ctx = app.execute()
        try:
            ops = [(op.kind, op.name, op.stream_id, op.nbytes,
                    op.enqueue_time, op.start_time, op.end_time)
                   for op in snapshot_gpu_ops(ctx.machine.gpu)]
            runs.append((ops, ctx.machine.timeline.cpu_intervals,
                         ctx.elapsed))
        finally:
            ctx.close()
    assert runs[0][0] and runs[0] == runs[1]
