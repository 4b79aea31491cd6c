"""Cache-key fingerprinting for stage runs.

A cached stage result may only be reused when *nothing that could
change the result* has changed.  The key therefore covers four
ingredients, mirroring the tuple named in the design docs:

* **workload fingerprint** — registry name, constructor parameters,
  and a digest of the workload's defining module source;
* **stage** — which collection run this is (``stage1`` …
  ``stage4``; stage 3 is two runs, memtrace and hashing);
* **cost-model / tool configuration** — the full
  :class:`~repro.core.diogenes.DiogenesConfig`, canonically encoded;
* **repro version** — the package version *plus* a digest over every
  ``repro`` source file, so any code change anywhere in the simulator
  or the stages invalidates the whole cache (the honest rule: we
  cannot prove a narrower dependency set, so we do not pretend to).

Upstream stage inputs are folded in separately by the executor (a
stage-2 key includes the digest of the exact stage-1 JSON it consumed),
so a behaviour change in one stage cascades into its dependents.

Everything here is pure and deterministic: canonical JSON uses sorted
keys and no whitespace, digests are SHA-256.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from functools import lru_cache

import repro
from repro.core.benefit import BenefitConfig
from repro.core.diogenes import DiogenesConfig
from repro.sim.costs import CostParameters
from repro.sim.machine import MachineConfig

#: Bump when the cache payload layout changes (old entries become
#: unreadable misses, never wrong answers).  v2: stage payloads are
#: stored columnar-encoded (:mod:`repro.exec.columnar`).
CACHE_SCHEMA_VERSION = 2


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_json(obj) -> str:
    return digest(canonical_json(obj))


# ----------------------------------------------------------------------
# Configuration round-trip
# ----------------------------------------------------------------------
def _plain(obj):
    """Recursively encode dataclasses as dicts without deepcopying.

    ``dataclasses.asdict`` deepcopies every leaf; this walk copies
    containers only, which is all JSON encoding needs.  Measurably
    faster on the service submit hot path, where the config is
    re-encoded per request.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def config_to_json(config: DiogenesConfig) -> dict:
    """Encode a :class:`DiogenesConfig` as plain JSON types."""
    return _plain(config)


def config_from_json(d: dict) -> DiogenesConfig:
    """Rebuild a :class:`DiogenesConfig` from :func:`config_to_json`."""
    d = dict(d)
    machine = dict(d.pop("machine_config"))
    machine["cost_params"] = CostParameters(**machine["cost_params"])
    return DiogenesConfig(
        machine_config=MachineConfig(**machine),
        benefit=BenefitConfig(**d.pop("benefit")),
        **d,
    )


# ----------------------------------------------------------------------
# Code fingerprint
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest over every ``repro`` source file plus the version.

    Computed once per process; the package is small enough that
    reading it whole costs milliseconds.
    """
    root = pathlib.Path(repro.__file__).parent
    parts: list[str] = [f"version={repro.__version__}",
                        f"schema={CACHE_SCHEMA_VERSION}"]
    for path in sorted(root.rglob("*.py")):
        parts.append(f"{path.relative_to(root)}:"
                     f"{hashlib.sha256(path.read_bytes()).hexdigest()}")
    return digest("\n".join(parts))


# ----------------------------------------------------------------------
# Workload fingerprint
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _module_source_digest(source_file: str) -> str:
    """Digest of one module's source, cached for the process lifetime.

    Workload modules don't change under a running service, and the
    submit path fingerprints the workload per request.
    """
    return hashlib.sha256(pathlib.Path(source_file).read_bytes()).hexdigest()


def workload_fingerprint(name: str, params: dict) -> str:
    """Identity of one parameterised workload for cache keying.

    The defining module's source is part of the identity, so editing
    an application invalidates its cached stages even within one
    ``repro`` version.  (The package-wide :func:`code_fingerprint`
    already subsumes this for installed trees; the per-module digest
    keeps the rule visible and covers out-of-tree workloads.)
    """
    from repro.apps.base import registry

    source_digest = ""
    factory = registry._factories.get(name)
    if factory is not None:
        import inspect

        try:
            source_file = inspect.getsourcefile(factory)
        except TypeError:  # pragma: no cover - exotic factory objects
            source_file = None
        if source_file is not None:
            source_digest = _module_source_digest(source_file)
    return digest_json({
        "name": name,
        "params": params,
        "source": source_digest,
    })
