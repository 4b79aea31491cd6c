"""The traced benchmark's hooks still resolve in the source tree.

``benchmarks/e2e/launch.py`` wraps the functions named in its
``LAYERS`` table by ``getattr`` as their modules load, and reads
``stacks.intern_table_sizes`` on exit.  A renamed target would crash
every ``--trace 1`` run while untraced runs stay green; these checks
catch it in the tier-1 suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib

import pytest

LAUNCH = (pathlib.Path(__file__).resolve().parents[1]
          / "benchmarks" / "e2e" / "launch.py")


def _load_launch():
    spec = importlib.util.spec_from_file_location("e2e_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = _load_launch()

TARGETS = [(module, attr) for module, targets in launch.LAYERS.items()
           for attr, _ in targets]


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_layer_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if attr.endswith("*"):
        prefix = attr[:-1]
        assert any(name.startswith(prefix) and callable(value)
                   for name, value in vars(module).items()), attr
        return
    target = module
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("module_name,attr", [
    ("repro.service.daemon", "ServiceDaemon._execute"),
    ("repro.service.queue", "JobQueueBackend.claim_next"),
    ("repro.fleet.worker", "WorkerNode.process"),
    ("repro.fleet.coordinator", "FleetCoordinator.complete"),
    ("repro.service.client", "ServiceClient.fleet_pull"),
    ("repro.service.client", "ServiceClient.fleet_complete"),
    ("repro.service.client", "ServiceClient.fleet_heartbeat"),
])
def test_service_hooks_are_listed(module_name, attr):
    assert (module_name, attr) in TARGETS


def test_scope_spans_read_the_job_id_where_launch_expects_it():
    # launch.SCOPES reads the report id positionally: the job of
    # _execute and process, the job id of complete.
    from repro.fleet.coordinator import FleetCoordinator
    from repro.fleet.worker import WorkerNode
    from repro.service.daemon import ServiceDaemon

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(ServiceDaemon._execute)[1] == "job"
    assert params(WorkerNode.process)[1] == "job"
    assert params(FleetCoordinator.complete)[2] == "job_id"


def test_intern_table_sizes_still_exists():
    from repro.instr import stacks

    sizes = stacks.intern_table_sizes()
    assert sizes and all(isinstance(n, int) for n in sizes.values())
