"""Trackable host memory.

Diogenes instruments CPU loads/stores of addresses the GPU can write
(Dyninst binary instrumentation in the paper).  Our applications are
Python, so the equivalent instrumentable surface is this package:
every host buffer an application shares with the GPU is a
:class:`HostBuffer` whose :meth:`~HostBuffer.read` /
:meth:`~HostBuffer.write` accessors fire registered access hooks.

The package also provides the ``mprotect`` analogue the paper uses to
guard removed transfers (write-protection that faults on store), and a
page-aligned fake address space so tools can reason about address
ranges the way a binary tool would.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "AccessEvent": "repro.hostmem.accesshooks",
    "AccessHookRegistry": "repro.hostmem.accesshooks",
    "PAGE_SIZE": "repro.hostmem.allocator",
    "HostAddressSpace": "repro.hostmem.allocator",
    "HostBuffer": "repro.hostmem.buffer",
    "ProtectionError": "repro.hostmem.protection",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
