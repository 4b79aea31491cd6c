"""Lazy package exports (PEP 562).

A package lists the names it re-exports in a table, name -> defining
module, and installs :func:`exports` as its module ``__getattr__``.  A
name's module is imported the first time the name is read, so
``import repro.service`` loads nothing, and ``from repro.service
import ServiceClient`` loads the client alone: each command pays only
for the modules it runs.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict[str, str]):
    """The module ``__getattr__`` of ``package``, resolving the names in
    ``table``; a resolved name is kept in the package's namespace."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
