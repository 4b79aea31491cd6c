"""A timing-free guard on which modules each ``diogenes`` command loads.

Every command imports what it runs (docs/performance.md, "Cold
start"): ``list`` and the service client commands (``diff`` against a
daemon included) load neither numpy nor the simulator, ``run`` loads
the one workload it analyses and no service, fleet or process-pool
code, and the commands that run jobs load every workload module before
they serve, so no import lands inside a job.  Each command runs in a
fresh interpreter, which reports its ``sys.modules``: modules, not
seconds, so the guard does not move with the host.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.apps.base import BUNDLED
from repro.service import ServiceClient, ServiceDaemon

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Runs ``diogenes <args>`` and writes its ``sys.modules`` to a file: at
#: exit, or, for ``serve`` and ``worker``, at the moment the daemon
#: would start serving or the worker would register.
_PROBE = r"""
import json, sys

out, args = sys.argv[1], sys.argv[2:]


def dump():
    with open(out, "w") as fp:
        json.dump(sorted(sys.modules), fp)


if args[0] == "serve":
    import asyncio

    def serving(coro):
        coro.close()
        dump()

    asyncio.run = serving
elif args[0] == "worker":
    from repro.service.client import ServiceClient

    def registering(self, worker):
        dump()
        raise SystemExit(0)

    ServiceClient.fleet_register = registering

from repro.core.cli import main

code = main(args)
if args[0] != "serve":
    dump()
sys.exit(code)
"""

WORKLOAD_MODULES = sorted({module for module, _ in BUNDLED.values()})


def modules_after(tmp_path, *args: str) -> set[str]:
    """The modules loaded by ``diogenes <args>`` in a fresh interpreter."""
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *args], cwd=tmp_path,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(out.read_text()))


def test_list_loads_no_numpy_no_workload_and_no_analysis(tmp_path):
    loaded = modules_after(tmp_path, "list")
    assert "numpy" not in loaded
    assert "repro.core.diogenes" not in loaded
    assert loaded.isdisjoint(WORKLOAD_MODULES)


def test_run_loads_its_workload_alone_and_no_pool_or_service(tmp_path):
    loaded = modules_after(tmp_path, "run", "replay", "--param",
                           "trace=dl-training")
    assert "repro.apps.replay" in loaded
    assert loaded.isdisjoint(set(WORKLOAD_MODULES) - {"repro.apps.replay"})
    assert "repro.exec.executor" not in loaded
    assert "concurrent.futures" not in loaded
    for package in ("repro.service", "repro.fleet", "repro.fuzz"):
        assert not any(m == package or m.startswith(package + ".")
                       for m in loaded), package


@pytest.fixture
def daemon_url(tmp_path):
    daemon = ServiceDaemon(tmp_path / "svc", workers=1)
    thread = threading.Thread(target=daemon.run, kwargs={"port": 0},
                              daemon=True)
    thread.start()
    assert daemon.started.wait(10), "daemon failed to start"
    url = f"http://127.0.0.1:{daemon.bound_port}"
    yield url
    client = ServiceClient(url)
    client.shutdown()
    client.close()
    thread.join(15)


def test_client_commands_load_no_numpy(tmp_path, daemon_url):
    url = ["--url", daemon_url]
    submitted = modules_after(
        tmp_path, "submit", "synthetic-unnecessary-sync", "--param",
        "iterations=2", "--wait", "--json", str(tmp_path / "r.json"), *url)
    assert json.loads((tmp_path / "r.json").read_text())["workload"]
    commands = {
        "submit": submitted,
        "status": modules_after(tmp_path, "status", *url),
        "fetch": modules_after(tmp_path, "fetch", "job-000001", "--out",
                               str(tmp_path / "f.json"), *url),
        "tail": modules_after(tmp_path, "tail", "job-000001", *url),
        "diff": modules_after(tmp_path, "diff", "job-000001", "job-000001",
                              *url),
    }
    for command, loaded in commands.items():
        assert "numpy" not in loaded, command
        assert "repro.core.diogenes" not in loaded, command


@pytest.mark.parametrize("args", [
    ("serve", "--port", "0", "--data-dir", "svc"),
    ("worker", "--coordinator", "http://127.0.0.1:9"),
], ids=["serve", "worker"])
def test_job_runners_load_every_workload_before_they_serve(tmp_path, args):
    loaded = modules_after(tmp_path, *args)
    assert set(WORKLOAD_MODULES) <= loaded
    assert {"repro.core.diogenes", "repro.exec.executor",
            "repro.exec.table", "repro.core.autofix"} <= loaded


def test_report_key_does_not_depend_on_loaded_modules(tmp_path):
    # The workload fingerprint digests the source file the registry's
    # table names, whether or not that module is imported yet.
    code = (
        "import sys\n"
        "from repro.exec.fingerprint import workload_fingerprint\n"
        "cold = workload_fingerprint('amg', {'cycles': 2})\n"
        "assert 'repro.apps.amg' not in sys.modules\n"
        "from repro.core.cli import _load_workloads\n"
        "_load_workloads()\n"
        "print(cold, workload_fingerprint('amg', {'cycles': 2}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True).stdout.split()
    from repro.exec.fingerprint import digest_json, workload_fingerprint

    assert out[0] == out[1] == workload_fingerprint("amg", {"cycles": 2})
    assert out[0] != digest_json({"name": "amg", "params": {"cycles": 2},
                                  "source": ""})
