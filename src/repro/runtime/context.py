"""Execution context: everything one application run needs.

FFM is a multi-*run* model — each stage executes the application in a
fresh process.  :class:`ExecutionContext` is the reproduction's
"process": a brand-new machine, host address space, driver, runtime,
and stack tracker.  The FFM runner builds one per stage, attaches that
stage's instrumentation, runs the workload, and ends the process with
:meth:`ExecutionContext.close`.

A real process's memory goes back to the OS when it exits; a context's
goes when its last reference does.  The parts of a context refer to
each other (each host buffer and its address space, the driver and the
access hook it registers there), so without :meth:`~ExecutionContext.close`
a finished run, with its whole device timeline, would wait for a full
cycle collection, and several finished runs could be alive at once.
After ``close`` nothing in the context refers back to itself, and the
run is freed, by reference counting, when the stage that made it
returns.  The machine is untouched, so its clock and timeline can still
be read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.driver import private as driver_private
from repro.driver.api import CudaDriver
from repro.hostmem.allocator import HostAddressSpace
from repro.hostmem.buffer import HostBuffer
from repro.instr.stacks import CallStackTracker
from repro.runtime.api import CudaRuntime
from repro.sim.machine import Machine, MachineConfig


@dataclass
class ExecutionContext:
    """One simulated process: machine, memory, driver, runtime, stacks."""

    machine: Machine
    hostspace: HostAddressSpace
    driver: CudaDriver
    cudart: CudaRuntime
    stacks: CallStackTracker

    @classmethod
    def create(cls, config: MachineConfig | None = None) -> "ExecutionContext":
        """Build a fresh context (a new "process" for one run)."""
        machine = Machine(config)
        hostspace = HostAddressSpace(machine.clock)
        stacks = CallStackTracker()
        driver = CudaDriver(machine, hostspace, stacks)
        driver_private.install(driver)
        cudart = CudaRuntime(driver)
        return cls(machine=machine, hostspace=hostspace, driver=driver,
                   cudart=cudart, stacks=stacks)

    # ------------------------------------------------------------------
    # Application conveniences
    # ------------------------------------------------------------------
    def host_array(self, shape, dtype=None, *, label: str = "") -> HostBuffer:
        """Allocate an ordinary (pageable) host buffer."""
        import numpy as np

        return HostBuffer(self.hostspace, shape,
                          dtype if dtype is not None else np.float64,
                          label=label)

    def cpu_work(self, seconds: float, label: str = "app") -> None:
        """Application CPU compute."""
        self.machine.cpu_work(seconds, label)

    def frame(self, function: str, file: str, line: int):
        """Push a synthetic application stack frame (context manager)."""
        return self.stacks.frame(function, file, line)

    @property
    def elapsed(self) -> float:
        return self.machine.elapsed()

    def close(self) -> None:
        """End the simulated process: detach every probe, and drop the
        address space's buffer table and access hooks."""
        self.driver.dispatch.detach_all()
        self.hostspace.close()
