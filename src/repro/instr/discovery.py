"""Discovery of the internal synchronization function (§3.1).

The paper: *"We identify the underlying function that performs the
wait by a set of simple tests that launches a never completing GPU
kernel, calling known synchronous functions (such as
cuCtxSynchronize) to identify the function where the CPU waits."*

The reproduction performs those tests literally, in a sandboxed
context (a fresh simulated process per probe test, like the paper's
separate test programs):

1. instrument *every* symbol in the driver's symbol table with
   entry/exit probes;
2. launch a kernel of infinite duration;
3. call a known synchronous API;
4. the CPU "hangs" — the sandbox surfaces this as
   :class:`repro.sim.device.InfiniteWaitError` — and the innermost
   function that entered but never exited is where the wait happens;
5. repeat for several synchronous APIs and intersect.

Nothing here assumes the funnel's name; the result is *measured*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.instr.probes import Probe
from repro.runtime.context import ExecutionContext
from repro.sim.device import InfiniteWaitError


@dataclass
class DiscoveryEvidence:
    """What the probe tests observed.

    ``blocked_in`` maps each tested synchronous API to the stack of
    dispatched functions that were in flight when the CPU hung,
    innermost last.
    """

    blocked_in: dict[str, list[str]] = field(default_factory=dict)
    candidates: list[str] = field(default_factory=list)
    wait_symbol: str | None = None


def _probe_one(trigger_name: str, trigger: Callable[[ExecutionContext], None]) -> list[str]:
    """Run one never-completing-kernel test; return the blocked-in stack."""
    ctx = ExecutionContext.create()
    in_flight: list[str] = []

    probe = Probe(
        None,  # wildcard: every dispatched symbol
        entry=lambda rec: in_flight.append(rec.name),
        exit=lambda rec: in_flight.pop(),
        label="discovery",
    )
    ctx.driver.dispatch.attach(probe)
    # The never-completing kernel from the paper's test.
    ctx.cudart.cudaLaunchKernel("__probe_never_completes", math.inf)
    blocked: list[str] = []
    try:
        trigger(ctx)
    except InfiniteWaitError:
        # Exit probes did not fire for frames unwound by the hang, so
        # ``in_flight`` is exactly the dispatched stack at the block.
        blocked = list(in_flight)
    finally:
        ctx.close()
    if not blocked:
        raise RuntimeError(
            f"probe test for {trigger_name!r} did not block — "
            "is the API actually synchronous?"
        )
    return blocked


#: The "known synchronous functions" the tests call, per the paper:
#: the explicit syncs plus an implicit one (synchronous memcpy).
def _default_triggers() -> dict[str, Callable[[ExecutionContext], None]]:
    def via_ctx_sync(ctx: ExecutionContext) -> None:
        ctx.driver.cuCtxSynchronize()

    def via_stream_sync(ctx: ExecutionContext) -> None:
        ctx.driver.cuStreamSynchronize(0)

    def via_sync_memcpy(ctx: ExecutionContext) -> None:
        dev = ctx.driver.cuMemAlloc(4096)
        host = ctx.host_array(512)
        ctx.driver.cuMemcpyDtoH(host, dev)

    return {
        "cuCtxSynchronize": via_ctx_sync,
        "cuStreamSynchronize": via_stream_sync,
        "cuMemcpyDtoH": via_sync_memcpy,
    }


def discover_sync_function(
    triggers: dict[str, Callable[[ExecutionContext], None]] | None = None,
) -> DiscoveryEvidence:
    """Run the probe tests and identify the internal wait function.

    Returns :class:`DiscoveryEvidence` with ``wait_symbol`` set to the
    innermost function common to every blocking stack — the shared
    internal synchronization function of Figure 3.
    """
    triggers = triggers if triggers is not None else _default_triggers()
    evidence = DiscoveryEvidence()
    for name, trigger in triggers.items():
        evidence.blocked_in[name] = _probe_one(name, trigger)

    stacks = list(evidence.blocked_in.values())
    common = set(stacks[0])
    for stack in stacks[1:]:
        common &= set(stack)
    if not common:
        raise RuntimeError(
            "no function common to all blocking stacks; driver layout not understood"
        )
    # Innermost common frame = deepest in any stack.
    reference = stacks[0]
    evidence.candidates = sorted(common, key=reference.index)
    evidence.wait_symbol = evidence.candidates[-1]
    return evidence
