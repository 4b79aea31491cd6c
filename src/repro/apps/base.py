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
import importlib
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - annotations only
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
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext.create(config)
        self.run(ctx)
        return ctx

    def uninstrumented_time(self, config: MachineConfig | None = None) -> float:
        """Virtual wall time of an uninstrumented run."""
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext.create(config)
        try:
            self.run(ctx)
            return ctx.elapsed
        finally:
            ctx.close()


#: The bundled workloads: name -> (defining module, factory in it).
#: The one list of them: ``diogenes list`` reads it without importing
#: a workload, and :meth:`WorkloadRegistry.create` imports just the
#: module of the workload it builds.
BUNDLED: dict[str, tuple[str, str]] = {
    "amg": ("repro.apps.amg", "Amg"),
    "cuibm": ("repro.apps.cuibm", "CuIbm"),
    "cumf-als": ("repro.apps.cumf_als", "CumfAls"),
    "fuzzed": ("repro.fuzz.generator", "FuzzedApp"),
    "replay": ("repro.apps.replay", "ReplayApp"),
    "rodinia-gaussian": ("repro.apps.rodinia_gaussian", "RodiniaGaussian"),
    "synthetic-duplicate-transfer": ("repro.apps.synthetic",
                                     "DuplicateTransferApp"),
    "synthetic-misplaced-sync": ("repro.apps.synthetic", "MisplacedSyncApp"),
    "synthetic-private-sync": ("repro.apps.synthetic", "HiddenPrivateSyncApp"),
    "synthetic-quiet": ("repro.apps.synthetic", "QuietApp"),
    "synthetic-random": ("repro.apps.synthetic", "RandomScriptApp"),
    "synthetic-scripted": ("repro.apps.synthetic", "default_scripted_app"),
    "synthetic-unnecessary-sync": ("repro.apps.synthetic",
                                   "UnnecessarySyncApp"),
}


class WorkloadRegistry:
    """Name -> factory registry, used by the CLI and the benches.

    The bundled workloads come from :data:`BUNDLED`; :meth:`register`
    adds others (a test's, a user's) under new names.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], Workload]] = {}

    def register(self, name: str, factory: Callable[[], Workload]) -> None:
        if name in BUNDLED or name in self._factories:
            raise ValueError(f"workload {name!r} already registered")
        self._factories[name] = factory

    def source_file(self, name: str) -> str | None:
        """The source file defining ``name``'s factory, whether or not
        its module is imported (``None`` for an unknown name)."""
        import importlib.util
        import inspect

        if name in BUNDLED:
            return importlib.util.find_spec(BUNDLED[name][0]).origin
        factory = self._factories.get(name)
        if factory is None:
            return None
        try:
            return inspect.getsourcefile(factory)
        except TypeError:  # pragma: no cover - exotic factory objects
            return None

    def create(self, name: str, **kwargs) -> Workload:
        """Build ``name``, importing its module first if it is bundled."""
        factory = self._factories.get(name)
        if factory is None:
            try:
                module, attr = BUNDLED[name]
            except KeyError:
                raise KeyError(
                    f"unknown workload {name!r}; known: {self.names()}"
                ) from None
            factory = getattr(importlib.import_module(module), attr)
        workload = factory(**kwargs) if kwargs else factory()
        # Stamp the construction recipe so the parallel executor can
        # rebuild this exact workload inside a worker process
        # (repro.exec.jobs.WorkloadSpec.for_workload reads these).
        workload._registry_name = name
        workload._registry_params = dict(kwargs)
        return workload

    def names(self) -> list[str]:
        return sorted({*BUNDLED, *self._factories})


#: Process-wide registry.
registry = WorkloadRegistry()
