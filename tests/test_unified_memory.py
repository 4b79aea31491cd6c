"""Tests for unified-memory demand migration and the §5.3 limitation.

The paper: unified memory transfers happen automatically in the driver;
their source/destination are unknown until completion, so Diogenes
cannot hash them in time — duplicate managed transfers stay hidden.
The reproduction preserves both the mechanism and the limitation.
"""

import numpy as np
import pytest

import repro.hostmem.buffer as hostbuffer
from repro.apps.amg import Amg
from repro.apps.base import Workload
from repro.apps.replay import ReplayApp
from repro.core.diogenes import Diogenes
from repro.core.graph import ProblemKind
from repro.cupti import CuptiSubscription
from repro.driver.api import INTERNAL_WAIT_SYMBOL, CudaDriver
from repro.instr.probes import Probe


class ManagedRetransferApp(Workload):
    """The managed-memory twin of DuplicateTransferApp: the same result
    is produced on the device and demand-faulted back every iteration.
    An explicit-transfer app with this pattern would show duplicate
    transfers; the managed version's migrations are invisible."""

    name = "managed-retransfer"

    def __init__(self, iterations: int = 5, elements: int = 1024):
        self.iterations = iterations
        self.elements = elements

    def run(self, ctx):
        rt = ctx.cudart
        with ctx.frame("main", "uvm.cu", 5):
            managed = rt.cudaMallocManaged(self.elements, label="field")
            self.checksum = 0.0
            for i in range(self.iterations):
                with ctx.frame("step", "uvm.cu", 10):
                    # Same payload every iteration — a duplicate by
                    # content, were it an explicit transfer.
                    rt.cudaLaunchKernel(
                        "produce", 400e-6,
                        writes=[(managed,
                                 np.arange(self.elements, dtype=np.float64))])
                with ctx.frame("step", "uvm.cu", 14):
                    self.checksum += float(
                        managed.managed_host.read().sum())
            rt.cudaFree(managed)


class TestDemandMigration:
    def test_fault_blocks_until_producer_done(self, ctx):
        rt = ctx.cudart
        managed = rt.cudaMallocManaged(512)
        rt.cudaLaunchKernel("produce", 5e-3,
                            writes=[(managed, np.full(512, 1.0))])
        before = ctx.machine.now
        managed.managed_host.read()
        assert ctx.machine.now - before >= 5e-3 * 0.9

    def test_second_access_is_fault_free(self, ctx):
        rt = ctx.cudart
        managed = rt.cudaMallocManaged(512)
        rt.cudaLaunchKernel("produce", 1e-3,
                            writes=[(managed, np.full(512, 1.0))])
        managed.managed_host.read()
        before = ctx.machine.now
        managed.managed_host.read()
        assert ctx.machine.now - before < 50e-6

    def test_fault_goes_through_the_funnel(self, ctx):
        waits = []
        ctx.driver.dispatch.attach(Probe(
            {INTERNAL_WAIT_SYMBOL}, exit=lambda r: waits.append(r.name)))
        rt = ctx.cudart
        managed = rt.cudaMallocManaged(512)
        rt.cudaLaunchKernel("produce", 1e-3,
                            writes=[(managed, np.full(512, 1.0))])
        managed.managed_host.read()
        assert len(waits) == 1

    def test_migration_emits_no_cupti_records(self, ctx):
        sub = CuptiSubscription(machine=ctx.machine)
        ctx.driver.attach_cupti(sub)
        rt = ctx.cudart
        managed = rt.cudaMallocManaged(512)
        rt.cudaLaunchKernel("produce", 1e-3,
                            writes=[(managed, np.full(512, 1.0))])
        memcpy_before = len(sub.memcpy_records)
        sync_before = len(sub.sync_records)
        managed.managed_host.read()
        assert len(sub.memcpy_records) == memcpy_before
        assert len(sub.sync_records) == sync_before

    def test_host_memset_restores_residency(self, ctx):
        rt = ctx.cudart
        managed = rt.cudaMallocManaged(512)
        rt.cudaLaunchKernel("produce", 1e-3,
                            writes=[(managed, np.full(512, 1.0))])
        rt.cudaMemset(managed, 0)
        assert managed.managed_residency == "host"
        assert not np.any(np.asarray(managed.managed_host.read()))

    def test_non_managed_buffers_never_fault(self, ctx):
        waits = []
        ctx.driver.dispatch.attach(Probe(
            {INTERNAL_WAIT_SYMBOL}, exit=lambda r: waits.append(1)))
        buf = ctx.host_array(512)
        buf.read()
        assert waits == []


class TestSection53Limitation:
    """Diogenes on the managed-retransfer app: the whole pipeline runs,
    the fault synchronizations are seen, but the duplicate data
    movement stays invisible to the dedup analysis."""

    @pytest.fixture(scope="class")
    def report(self):
        return Diogenes(ManagedRetransferApp()).run()

    def test_pipeline_completes(self, report):
        assert report.analysis.execution_time > 0

    def test_fault_syncs_are_observed(self, report):
        # Stage 1 saw synchronizations whose entry point is the funnel
        # itself (no public API call wraps a demand fault).
        assert INTERNAL_WAIT_SYMBOL in report.stage1.synchronizing_functions

    def test_migrations_are_not_hashed(self, report):
        # The limitation: no transfer-hash records exist for the five
        # identical migrations, so no duplicates are reported.
        assert report.stage3.transfer_hashes == []
        assert not any(p.kind is ProblemKind.UNNECESSARY_TRANSFER
                       for p in report.analysis.problems)

    def test_explicit_twin_would_be_caught(self):
        # Control: the same pattern via explicit transfers IS caught.
        from repro.apps.synthetic import DuplicateTransferApp

        explicit = Diogenes(DuplicateTransferApp(iterations=5)).run()
        assert any(p.kind is ProblemKind.UNNECESSARY_TRANSFER
                   for p in explicit.analysis.problems)

    def test_fault_syncs_required_not_problematic(self, report):
        # Demand faults protect data used immediately: required, not
        # movable — Diogenes rightly does not flag them.
        fault_problems = [p for p in report.analysis.problems
                          if p.api_name == INTERNAL_WAIT_SYMBOL]
        assert fault_problems == []


class TestAccessEventsOnlyWhereAHookActs:
    """The driver's fault handler acts on managed buffers alone, so an
    access to any other buffer builds no event unless some other hook
    (load/store instrumentation) watches every access."""

    def test_bare_replay_builds_no_access_event(self, monkeypatch):
        built = []
        event = hostbuffer.AccessEvent
        monkeypatch.setattr(hostbuffer, "AccessEvent",
                            lambda **kw: built.append(kw) or event(**kw))
        ReplayApp("dl-training").execute().close()
        assert built == []

    def test_managed_faults_unchanged(self, monkeypatch):
        # Fixed amg memsets its managed vectors on the host, 20 cycles
        # of two vectors: each of those 40 managed accesses still
        # reaches the handler.
        faults = []
        handler = CudaDriver._uvm_fault_handler

        def counting(self, event):
            faults.append(event.buffer.managed)
            return handler(self, event)

        monkeypatch.setattr(CudaDriver, "_uvm_fault_handler", counting)
        ctx = Amg(fixed=True).execute()
        ctx.close()
        assert faults.count(True) == 40
