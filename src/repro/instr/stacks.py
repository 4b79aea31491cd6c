"""Synthetic application call stacks.

Diogenes attributes every traced driver call to the application source
location that caused it ("``cudaFree`` in ``als.cpp`` at line 856").
Our workloads are Python models of C/C++ applications, so each one
carries explicit source annotations: the application pushes
:class:`Frame` objects describing its (simulated) C++ call stack, and
the instrumentation captures the stack at driver-call entry exactly as
a stack walker would.

Two stack-trace identities matter for grouping (§3.5.2):

* address identity (:meth:`StackTrace.address_key`) — frames matched
  by fake instruction address → the *single point* grouping;
* function identity (:meth:`StackTrace.function_key`) — frames
  matched by demangled base name → the *folded function* grouping.

Both identities are *interned*: a :class:`StackInterner` issues a
small integer ID per distinct key, so the hot grouping and
sequence-signature paths compare ints instead of rebuilding and
hashing tuples (see docs/performance.md).  Frames and snapshots are
interned too — the same call site yields an equal, usually identical
``Frame``, and an unchanged stack yields the same ``StackTrace``
object — which makes every derived value (address, base name, keys,
IDs) a compute-once attribute.  Service jobs intern inside an
:func:`interning_scope`, dropped when the job ends.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from repro.instr.symbols import demangle_base_name, instruction_address


@dataclass(frozen=True)
class Frame:
    """One application stack frame: function, source file, line.

    ``address`` and ``base_name`` are derived, cached on first access
    (frames are immutable, so the values can never go stale).  The
    cache slots live in the instance ``__dict__`` and do not take part
    in equality or hashing, which stay field-based.
    """

    function: str
    file: str
    line: int

    @property
    def address(self) -> int:
        try:
            return self._address
        except AttributeError:
            address = instruction_address(self.file, self.line)
            object.__setattr__(self, "_address", address)
            return address

    @property
    def base_name(self) -> str:
        try:
            return self._base_name
        except AttributeError:
            base = demangle_base_name(self.function)
            object.__setattr__(self, "_base_name", base)
            return base

    def pretty(self) -> str:
        return f"{self.function} at {self.file}:{self.line}"


@lru_cache(maxsize=65536)
def intern_frame(function: str, file: str, line: int) -> Frame:
    """The canonical :class:`Frame` for a call site.

    Capped like the symbol caches it amortises.  An evicted site gets a
    new, equal ``Frame`` on its next use; frames compare and hash by
    value, so snapshots and keys are unaffected.
    """
    return Frame(function, file, line)


@dataclass(frozen=True)
class StackTrace:
    """An immutable stack snapshot, innermost frame last."""

    frames: tuple[Frame, ...]

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    @property
    def leaf(self) -> Frame | None:
        return self.frames[-1] if self.frames else None

    def address_key(self) -> tuple[int, ...]:
        """Identity for the *single point* grouping."""
        try:
            return self._address_key
        except AttributeError:
            key = tuple(f.address for f in self.frames)
            object.__setattr__(self, "_address_key", key)
            return key

    def function_key(self) -> tuple[str, ...]:
        """Identity for the *folded function* grouping."""
        try:
            return self._function_key
        except AttributeError:
            key = tuple(f.base_name for f in self.frames)
            object.__setattr__(self, "_function_key", key)
            return key

    def address_id(self) -> int:
        """Interned integer standing for :meth:`address_key`.

        Equal address keys map to equal IDs within one process (and
        nothing else: IDs are issued in first-seen order and never
        serialized).
        """
        try:
            return self._address_id
        except AttributeError:
            sid = _interner().address_id(self.address_key())
            object.__setattr__(self, "_address_id", sid)
            return sid

    def function_id(self) -> int:
        """Interned integer standing for :meth:`function_key`."""
        try:
            return self._function_id
        except AttributeError:
            sid = _interner().function_id(self.function_key())
            object.__setattr__(self, "_function_id", sid)
            return sid

    def pretty(self, indent: str = "  ") -> str:
        if not self.frames:
            return f"{indent}<no application frames>"
        return "\n".join(indent + f.pretty() for f in reversed(self.frames))


class StackInterner:
    """Issues integer IDs for stack identities.

    One dict lookup replaces rebuilding an O(depth) tuple and hashing
    it on every comparison.  IDs are deterministic *per interner*
    (issue order is first-seen order) but carry no meaning outside it —
    reports and cache payloads always serialize the underlying tuples.
    """

    def __init__(self) -> None:
        self._address_ids: dict[tuple[int, ...], int] = {}
        self._function_ids: dict[tuple[str, ...], int] = {}
        self._snapshots: dict[tuple[Frame, ...], StackTrace] = {}

    def address_id(self, key: tuple[int, ...]) -> int:
        ids = self._address_ids
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = len(ids)
        return sid

    def function_id(self, key: tuple[str, ...]) -> int:
        ids = self._function_ids
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = len(ids)
        return sid

    def stack(self, frames: tuple[Frame, ...]) -> StackTrace:
        """The canonical :class:`StackTrace` for a frame tuple."""
        snap = self._snapshots.get(frames)
        if snap is None:
            snap = self._snapshots[frames] = StackTrace(frames)
        return snap


#: The process-wide interner, used outside any :func:`interning_scope`.
_INTERNER = StackInterner()

#: Per-thread scoped override (see :func:`interning_scope`).
_SCOPED = threading.local()

#: The interners of every scope currently open, on any thread.
_LIVE: set[StackInterner] = set()
_LIVE_LOCK = threading.Lock()


def _interner() -> StackInterner:
    """The calling thread's scoped interner, else the process-wide one."""
    return getattr(_SCOPED, "interner", None) or _INTERNER


@contextmanager
def interning_scope():
    """Give the calling thread a fresh :class:`StackInterner` until exit.

    Snapshots and IDs issued inside live in the scope's own tables,
    dropped on exit, so a process running any number of jobs, several
    at once, stays bounded with no quiescent moment to wait for.  The
    override is thread-local (the ``repro.obs`` scoped-session
    pattern): one job's IDs never meet another's.
    """
    interner = StackInterner()
    previous = getattr(_SCOPED, "interner", None)
    _SCOPED.interner = interner
    with _LIVE_LOCK:
        _LIVE.add(interner)
    try:
        yield interner
    finally:
        _SCOPED.interner = previous
        with _LIVE_LOCK:
            _LIVE.discard(interner)


def intern_stack(frames: tuple[Frame, ...]) -> StackTrace:
    """Canonical snapshot for ``frames`` (module-level convenience)."""
    return _interner().stack(frames)


def address_id_for(address_key: tuple[int, ...]) -> int:
    """Interned ID for a bare address-key tuple.

    The same issue table :meth:`StackTrace.address_id` consults, so an
    ID obtained here for a :class:`repro.core.records.SiteKey` address
    key compares equal to the ID of any stack with that key.  Columnar
    analysis (:mod:`repro.exec.table`) uses this to turn site identity
    into integer arrays.
    """
    return _interner().address_id(address_key)


class CallStackTracker:
    """Mutable per-run stack of application frames.

    Applications use :meth:`frame` as a context manager around scopes,
    and typically wrap each GPU API call in a leaf frame naming the
    call site::

        with stack.frame("runALS", "als.cpp", 700):
            ...
            with stack.frame("runALS", "als.cpp", 738):
                cudart.cudaMemcpy(...)

    The tracker is intentionally not thread-safe: the simulated host
    is a single thread, as in the paper's evaluation workloads.
    """

    def __init__(self) -> None:
        self._frames: list[Frame] = []
        #: Bumped on every push/pop/clear.  :meth:`current` memoizes its
        #: snapshot against this counter, so the many dispatches nested
        #: under one application frame share a single interner lookup.
        self.generation = 0
        self._snap_generation = -1
        self._snapshot: StackTrace | None = None

    @property
    def depth(self) -> int:
        return len(self._frames)

    @contextmanager
    def frame(self, function: str, file: str, line: int):
        f = intern_frame(function, file, line)
        self._frames.append(f)
        self.generation += 1
        try:
            yield f
        finally:
            if self._frames:
                popped = self._frames.pop()
                self.generation += 1
                if popped is not f:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "call stack tracker corrupted (mismatched pop)")
            # An empty stack here means clear() reset the tracker while
            # frames were live (a deliberate between-phases reset).

    def current(self) -> StackTrace:
        """Snapshot the current stack (cheap immutable copy).

        Snapshots are interned: while the stack is unchanged, repeated
        snapshots return the *same* :class:`StackTrace` object, whose
        derived keys and IDs are computed at most once per process.
        The interner lookup itself is memoized per frame generation —
        an unchanged stack costs one integer comparison, not a tuple
        build + hash.
        """
        if self._snap_generation != self.generation:
            self._snapshot = _interner().stack(tuple(self._frames))
            self._snap_generation = self.generation
        return self._snapshot

    def clear(self) -> None:
        self._frames.clear()
        self.generation += 1


# ----------------------------------------------------------------------
# Intern-table accounting
# ----------------------------------------------------------------------
def intern_table_sizes() -> dict[str, int]:
    """Current entry counts of every intern/cache table.

    The frame and symbol caches are process-wide and capped; the stack
    tables count the process-wide interner plus every open
    :func:`interning_scope`.  The service exposes these as
    ``instr.intern_entries`` gauges on ``/metrics``.
    """
    with _LIVE_LOCK:
        interners = [_INTERNER, *_LIVE]
    return {
        "frames": intern_frame.cache_info().currsize,
        "snapshots": sum(len(i._snapshots) for i in interners),
        "address_keys": sum(len(i._address_ids) for i in interners),
        "function_keys": sum(len(i._function_ids) for i in interners),
        "instruction_addresses": instruction_address.cache_info().currsize,
        "demangled_names": demangle_base_name.cache_info().currsize,
    }
