"""The interceptable call dispatch layer.

Every runtime, driver, internal, and private function in the simulated
stack routes through one :class:`Dispatcher`.  This is the surface the
instrumentation framework (:mod:`repro.instr`) attaches to — the
reproduction's equivalent of Dyninst rewriting function entry/exit in
``libcuda.so``.

Instrumentation overhead is modelled honestly: probes may declare a
fixed per-hit virtual cost and their callbacks may *return* an
additional dynamic cost in seconds (e.g. proportional to the number of
bytes hashed).  Both are charged to the virtual CPU clock at the point
the probe fires, so heavily instrumented runs really do run longer —
the §5.3 overhead measurements (8×–20×) fall out of this mechanism.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.instr.probes import CallRecord, Probe
from repro.instr.stacks import CallStackTracker


class Dispatcher:
    """Routes calls through attached probes and tracks dynamic nesting."""

    def __init__(self, machine, stack_tracker: CallStackTracker) -> None:
        self.machine = machine
        self.stacks = stack_tracker
        self._probes: list[Probe] = []
        self._frames: list[CallRecord] = []
        #: Static symbol table: every function name ever registered with
        #: its layer.  Discovery enumerates this like a binary's symtab.
        self.symbols: dict[str, str] = {}
        self.dispatch_count = 0
        # Probe index, rebuilt on attach/detach (rare) so call() (hot)
        # resolves matches with one dict lookup.  Wildcard or
        # layer-restricted probes force the exact full scan — the index
        # is a fast path, never a behaviour change.
        self._by_name: dict[str, list[Probe]] = {}
        self._scan_all = False

    def _reindex(self) -> None:
        by_name: dict[str, list[Probe]] = {}
        scan_all = False
        for probe in self._probes:
            if probe.names is None or probe.layers is not None:
                # Attach-order interleaving with named probes cannot be
                # reproduced from a per-name index alone; fall back to
                # the scan whenever any such probe is attached.
                scan_all = True
                continue
            for name in probe.names:
                by_name.setdefault(name, []).append(probe)
        self._by_name = by_name
        self._scan_all = scan_all

    # ------------------------------------------------------------------
    # Symbol registry
    # ------------------------------------------------------------------
    def register_symbol(self, name: str, layer: str) -> None:
        existing = self.symbols.get(name)
        if existing is not None and existing != layer:
            raise ValueError(
                f"symbol {name!r} registered in two layers: {existing}, {layer}"
            )
        self.symbols[name] = layer

    def symbols_in_layer(self, *layers: str) -> list[str]:
        return sorted(n for n, l in self.symbols.items() if l in layers)

    # ------------------------------------------------------------------
    # Probe management
    # ------------------------------------------------------------------
    def attach(self, probe: Probe) -> Probe:
        self._probes.append(probe)
        self._reindex()
        return probe

    def detach(self, probe: Probe) -> None:
        try:
            self._probes.remove(probe)
        except ValueError:
            raise KeyError(f"{probe!r} is not attached") from None
        self._reindex()

    def detach_all(self) -> None:
        self._probes.clear()
        self._reindex()

    @property
    def probe_count(self) -> int:
        return len(self._probes)

    # ------------------------------------------------------------------
    # Call path
    # ------------------------------------------------------------------
    @property
    def current_record(self) -> CallRecord | None:
        return self._frames[-1] if self._frames else None

    @property
    def frames(self) -> tuple[CallRecord, ...]:
        """In-flight dispatched calls, outermost first."""
        return tuple(self._frames)

    @property
    def root_record(self) -> CallRecord | None:
        """The outermost in-flight dispatched call (the API the app called)."""
        return self._frames[0] if self._frames else None

    def publish(self, **meta: Any) -> None:
        """Attach implementation facts to the in-flight call record."""
        frames = self._frames
        if not frames:
            raise RuntimeError("publish() outside a dispatched call")
        # The record's ``_meta`` slot directly, not the lazy ``meta``
        # property: publishing runs several times per simulated call.
        record = frames[-1]
        if record._meta is None:
            record._meta = meta
        else:
            record._meta.update(meta)

    def publish_up(self, **meta: Any) -> None:
        """Attach facts to the in-flight call record *and* all ancestors.

        Used for facts a tracer of the outermost (application-facing)
        function needs to see, e.g. transfer sizes published by the
        driver-layer copy implementation while ``cudaMemcpy`` is the
        traced symbol.
        """
        frames = self._frames
        if not frames:
            raise RuntimeError("publish_up() outside a dispatched call")
        for frame in frames:
            if frame._meta is None:
                frame._meta = dict(meta)
            else:
                frame._meta.update(meta)

    def call(self, name: str, layer: str, impl: Callable[..., Any],
             /, *args: Any, **kwargs: Any) -> Any:
        """Dispatch ``impl(*args, **kwargs)`` as ``name`` in ``layer``.

        Probes matching ``(name, layer)`` fire at entry and exit; the
        record is pushed so nested dispatched calls see their parent.
        The arguments pass straight through, so a decorated entry point
        hands over one ``impl`` built when it was decorated instead of
        a new closure per call; ``call(name, layer, lambda: ...)``
        works the same way.
        """
        if name not in self.symbols:
            raise KeyError(f"call to unregistered symbol {name!r}")
        self.dispatch_count += 1
        if self._scan_all:
            matched = [p for p in self._probes if p.matches(name, layer)]
        else:
            # Per-name lists are built in attach order, so the result
            # (and thus charge/callback order) equals the full scan's.
            matched = self._by_name.get(name, ())

        # CallStackTracker.current(), inlined: the memoized snapshot
        # while the application stack is unchanged.
        stacks = self.stacks
        if stacks._snap_generation == stacks.generation:
            stack = stacks._snapshot
        else:
            stack = stacks.current()
        frames = self._frames
        record = CallRecord(
            name,
            layer,
            0.0,  # t_entry set below, after entry-probe overhead
            len(frames),
            stack,
            frames[-1].name if frames else None,
        )
        frames.append(record)
        clock = self.machine.clock
        try:
            if not matched:
                # No-hook fast path: nothing to fire, nothing to charge.
                record.t_entry = clock.now
                result = impl(*args, **kwargs)
                record.t_exit = clock.now
                return result
            machine = self.machine
            for probe in matched:
                # Probe() validated the fixed cost as a float >= 0, so
                # it needs none of _charge's checks.
                if probe.overhead_per_hit > 0:
                    machine.cpu_api(probe.overhead_per_hit, "instrumentation")
            record.t_entry = clock.now
            for probe in matched:
                extra = probe.fire_entry(record)
                if extra is not None:
                    self._charge(extra)
            result = impl(*args, **kwargs)
            record.t_exit = clock.now
            for probe in matched:
                extra = probe.fire_exit(record)
                if extra is not None:
                    self._charge(extra)
            return result
        finally:
            popped = frames.pop()
            if popped is not record:  # pragma: no cover - defensive
                raise RuntimeError("dispatch frame stack corrupted")

    def _charge(self, cost: Any) -> None:
        """Charge probe overhead to the virtual clock if a cost was given."""
        if isinstance(cost, (int, float)) and cost > 0:
            self.machine.cpu_api(float(cost), "instrumentation")
