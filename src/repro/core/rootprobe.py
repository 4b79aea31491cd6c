"""Root-call tracking shared by FFM stages 2–4.

The traced symbols form a set (synchronizing functions from stage 1
plus the known transfer functions).  A dynamic call of a traced symbol
is a *root* when no traced symbol is already in flight — ``cudaMemcpy``
calling ``cuMemcpyHtoD`` produces one root (the runtime call), not two.

Stages must also agree on the *occurrence index* of each static call
site across runs (the cross-run identity of §5.3), so the counter
lives here and counts root calls per stack-address key, identically in
every stage that uses it.
"""

from __future__ import annotations

from typing import Callable

from repro.core.records import SiteKey
from repro.instr.probes import CallRecord, Probe

#: Functions "described by the GPU driver API as performing memory
#: transfers" (§3.2) — traced in stage 2 regardless of stage 1 output —
#: plus the runtime wrappers and the private DMA entry point.
DEFAULT_TRANSFER_FUNCTIONS = frozenset({
    "cudaMemcpy", "cudaMemcpyAsync",
    "cuMemcpyHtoD", "cuMemcpyDtoH", "cuMemcpyDtoD",
    "cuMemcpyHtoDAsync", "cuMemcpyDtoHAsync",
    "__priv_dma",
})


class RootCall:
    """One in-flight (or completed) root call with its site identity.

    ``site`` materializes its :class:`SiteKey` lazily: the columnar
    record path identifies the site by ``(record.stack, occurrence)``
    ints and never builds the key object, while row-path consumers see
    the same eagerly-usable attribute as before.
    """

    __slots__ = ("record", "occurrence", "seq", "_site")

    def __init__(self, record: CallRecord, occurrence: int, seq: int,
                 site: SiteKey | None = None) -> None:
        self.record = record
        self.occurrence = occurrence
        self.seq = seq
        self._site = site

    @property
    def site(self) -> SiteKey:
        site = self._site
        if site is None:
            site = self._site = SiteKey(
                address_key=self.record.stack.address_key(),
                occurrence=self.occurrence)
        return site

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RootCall(record={self.record!r}, "
                f"occurrence={self.occurrence!r}, seq={self.seq!r})")


class RootTracker:
    """Entry/exit probe pair that identifies root calls of a traced set.

    Clients register callbacks:

    * ``on_root_entry(root)`` — fired when a root call begins;
    * ``on_root_exit(root)`` — fired when it completes (record has
      ``t_exit`` and all published meta).

    ``probe_overhead`` is the per-hit virtual cost of the entry and
    exit snippets, charged through the dispatcher.
    """

    def __init__(self, traced: set[str], *, probe_overhead: float = 0.0) -> None:
        self.traced = set(traced)
        self._depth = 0
        self._root: RootCall | None = None
        self._seq = 0
        # Occurrences count per interned stack-address id — the same
        # partition as the address-key tuple (the interner is bijective
        # per process), but an int dict key instead of an O(depth) hash.
        self._occurrences: dict[int, int] = {}
        self.on_root_entry: list[Callable[[RootCall], None]] = []
        self.on_root_exit: list[Callable[[RootCall], None]] = []
        self.probe = Probe(
            self.traced,
            entry=self._entry,
            exit=self._exit,
            label="root-tracker",
            overhead_per_hit=probe_overhead,
        )

    @property
    def current_root(self) -> RootCall | None:
        return self._root

    def close(self) -> None:
        """Drop the stage's callbacks once its run has ended.

        The probe's callbacks are this tracker's bound methods, so the
        two hold each other, and the stage closures in the callback
        lists hold the run's machine and instrumenters.  Unhooking both
        lets reference counting free the run when its stage returns.
        """
        self.on_root_entry.clear()
        self.on_root_exit.clear()
        self.probe.entry = self.probe.exit = None

    def _entry(self, record: CallRecord) -> None:
        self._depth += 1
        if self._depth != 1:
            return
        occurrences = self._occurrences
        aid = record.stack.address_id()
        occurrence = occurrences.get(aid, 0)
        occurrences[aid] = occurrence + 1
        root = RootCall(record, occurrence, self._seq)
        self._seq += 1
        self._root = root
        for cb in self.on_root_entry:
            cb(root)

    def _exit(self, record: CallRecord) -> None:
        self._depth -= 1
        if self._depth != 0:
            return
        root = self._root
        self._root = None
        if root is None or root.record is not record:  # pragma: no cover
            raise RuntimeError("root tracker lost its root record")
        for cb in self.on_root_exit:
            cb(root)
