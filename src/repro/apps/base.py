"""Workload protocol and registry.

A workload is one application the tool can be pointed at.  FFM runs
the *same* workload multiple times under different instrumentation, so
``run`` must be deterministic and run-to-run stable — the model's
stated requirement (§5.3): "it performs best when the execution
pattern of the application does not change dramatically between runs
with the same inputs".
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.runtime.context import ExecutionContext
from repro.sim.machine import MachineConfig


class Workload(abc.ABC):
    """One deterministic application run against the simulated stack."""

    #: Short identifier used by the CLI and benches.
    name: str = "workload"
    #: One-line description for reports.
    description: str = ""

    @abc.abstractmethod
    def run(self, ctx: ExecutionContext) -> None:
        """Execute the application on a fresh context.

        Must be deterministic: the same instance must issue the same
        sequence of operations (same call sites, same order, same
        sizes) on every invocation.  All state must be (re)created
        inside ``run``.
        """

    # ------------------------------------------------------------------
    def execute(self, config: MachineConfig | None = None) -> ExecutionContext:
        """Run on a brand-new context and return it (for inspection)."""
        ctx = ExecutionContext.create(config)
        self.run(ctx)
        return ctx

    def uninstrumented_time(self, config: MachineConfig | None = None) -> float:
        """Virtual wall time of an uninstrumented run."""
        ctx = ExecutionContext.create(config)
        try:
            self.run(ctx)
            return ctx.elapsed
        finally:
            ctx.close()


class WorkloadRegistry:
    """Name -> factory registry, used by the CLI and the benches."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], Workload]] = {}

    def register(self, name: str, factory: Callable[[], Workload]) -> None:
        if name in self._factories:
            raise ValueError(f"workload {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str, **kwargs) -> Workload:
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown workload {name!r}; known: {sorted(self._factories)}"
            ) from None
        workload = factory(**kwargs) if kwargs else factory()
        # Stamp the construction recipe so the parallel executor can
        # rebuild this exact workload inside a worker process
        # (repro.exec.jobs.WorkloadSpec.for_workload reads these).
        workload._registry_name = name
        workload._registry_params = dict(kwargs)
        return workload

    def names(self) -> list[str]:
        return sorted(self._factories)


#: Process-wide registry; application modules register at import.
registry = WorkloadRegistry()
