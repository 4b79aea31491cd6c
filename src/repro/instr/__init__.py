"""Binary-instrumentation analogue (the Dyninst role).

The paper's Diogenes uses Dyninst to (a) wrap arbitrary functions in
the GPU user-space driver with entry/exit probes, (b) discover *which*
internal driver function implements the blocking wait, and (c) insert
load/store instrumentation at instructions touching GPU-writable
data.  This package provides the same three capabilities against the
simulated binary:

* :mod:`repro.instr.probes` + :mod:`repro.instr.manager` — entry/exit
  probes attachable by function name or predicate to any function
  routed through the driver dispatcher.
* :mod:`repro.instr.discovery` — the never-completing-kernel probe
  test from §3.1 that identifies the internal synchronization funnel.
* :mod:`repro.instr.loadstore` — load/store instrumentation over
  tracked host buffers.
* :mod:`repro.instr.stacks` / :mod:`repro.instr.symbols` — synthetic
  application call stacks with C++-style symbol names, demangling, and
  stable fake instruction addresses, so groupings behave exactly as in
  the paper (§3.5.2).
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "InstrumentationManager": "repro.instr.manager",
    "CallRecord": "repro.instr.probes",
    "Probe": "repro.instr.probes",
    "CallStackTracker": "repro.instr.stacks",
    "Frame": "repro.instr.stacks",
    "StackTrace": "repro.instr.stacks",
    "demangle_base_name": "repro.instr.symbols",
    "instruction_address": "repro.instr.symbols",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
