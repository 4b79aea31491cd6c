"""Analytic cost model for the simulated machine.

Every duration in the simulator comes from this module, parameterised
by :class:`CostParameters`.  The defaults approximate one node of the
LLNL *Ray* early-access cluster the paper evaluated on: a POWER8 host
with Pascal-class (P100) GPUs attached over NVLink.

None of the reproduction's claims depend on these constants being
exact — the paper's evaluation is about *event structure* (which calls
block, for how long relative to surrounding work) and the benches only
check shape, not absolute seconds — but realistic magnitudes keep the
reproduced tables recognisable next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants for :class:`CostModel`.

    Times are virtual seconds; bandwidths are bytes/second.
    """

    # Host <-> device interconnect (NVLink 1.0-ish sustained rates).
    h2d_bandwidth: float = 30e9
    d2h_bandwidth: float = 30e9
    d2d_bandwidth: float = 400e9
    copy_latency: float = 8e-6

    # Device-side memset runs at near memory bandwidth.
    memset_bandwidth: float = 300e9
    memset_latency: float = 5e-6

    # Kernel model: fixed device-side launch tail plus flop/byte terms.
    kernel_min_duration: float = 4e-6
    device_gflops: float = 4_700.0  # FP64 P100 ~ 4.7 TF
    device_mem_bandwidth: float = 500e9

    # CPU-side costs of driver API calls.
    launch_overhead: float = 6e-6       # cuLaunchKernel host time
    malloc_cost: float = 90e-6          # device allocation bookkeeping
    free_cost: float = 60e-6            # deallocation bookkeeping (excl. sync)
    managed_alloc_cost: float = 140e-6
    host_alloc_cost: float = 40e-6
    api_call_overhead: float = 1.5e-6   # any other driver entry
    sync_poll_overhead: float = 2e-6    # entering the internal wait
    page_fault_cost: float = 25e-6      # managed-memory page migration fault

    # Host-side memset/memcpy fallback bandwidth (e.g. cudaMemset on a
    # managed region resident in host memory).
    host_memory_bandwidth: float = 80e9


@dataclass(frozen=True)
class KernelCost:
    """Workload description for a kernel, converted to a duration.

    Either supply ``duration`` directly, or describe the work with
    ``flops``/``bytes_moved`` and let the roofline-style model pick the
    binding term.
    """

    duration: float | None = None
    flops: float = 0.0
    bytes_moved: float = 0.0


class CostModel:
    """Maps operation descriptions to virtual durations."""

    def __init__(self, params: CostParameters | None = None) -> None:
        self.params = p = params if params is not None else CostParameters()
        #: Copy bandwidth by direction (the parameters are frozen).
        self._bandwidth = {
            "h2d": p.h2d_bandwidth,
            "d2h": p.d2h_bandwidth,
            "d2d": p.d2d_bandwidth,
        }

    # ------------------------------------------------------------------
    # Device-side durations
    # ------------------------------------------------------------------
    def kernel_duration(self, cost: KernelCost | float) -> float:
        """Duration of a kernel from an explicit time or a roofline model.

        ``cost`` is a :class:`KernelCost`, or a plain explicit time in
        seconds, which saves building one per launch.
        """
        p = self.params
        explicit = (float(cost) if isinstance(cost, (int, float))
                    else cost.duration)
        if explicit is not None:
            if explicit < 0:
                raise ValueError("explicit kernel duration must be >= 0")
            return max(explicit, 0.0)
        compute_time = cost.flops / (p.device_gflops * 1e9)
        memory_time = cost.bytes_moved / p.device_mem_bandwidth
        return max(p.kernel_min_duration, compute_time, memory_time)

    def copy_duration(self, nbytes: int, direction: str) -> float:
        """Duration of a DMA transfer of ``nbytes`` in ``direction``.

        ``direction`` is one of ``"h2d"``, ``"d2h"``, ``"d2d"``.
        """
        p = self.params
        bandwidth = self._bandwidth.get(direction)
        if bandwidth is None:
            raise ValueError(f"unknown copy direction {direction!r}")
        if nbytes < 0:
            raise ValueError("transfer size must be >= 0")
        return p.copy_latency + nbytes / bandwidth

    def memset_duration(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("memset size must be >= 0")
        p = self.params
        return p.memset_latency + nbytes / p.memset_bandwidth

    # ------------------------------------------------------------------
    # Host-side (CPU clock) costs
    # ------------------------------------------------------------------
    def host_memop_duration(self, nbytes: int) -> float:
        """CPU time for a host-side memset/memcpy of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("size must be >= 0")
        return nbytes / self.params.host_memory_bandwidth
