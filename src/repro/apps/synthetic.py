"""Synthetic pattern workloads.

Small, exactly-understood applications that exhibit one problem
pattern each.  The test suite leans on them because their ground truth
is analytic: you can say precisely which operations are problematic
and how much time fixing them must recover.

Every workload accepts a ``fixed`` flag where meaningful, so tests and
ablation benches can measure *actual* benefit by re-running the fixed
variant — the same methodology as the paper's Table 1.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Workload
from repro.runtime.context import ExecutionContext

_SRC = "synthetic.cpp"


class UnnecessarySyncApp(Workload):
    """A loop that synchronizes after every launch but never reads results.

    Each iteration launches a kernel and calls
    ``cudaDeviceSynchronize`` even though nothing on the CPU consumes
    the kernel's output until one final transfer after the loop.  All
    in-loop synchronizations are unnecessary; the final sync (the D2H
    copy feeding the checksum) is required.
    """

    name = "synthetic-unnecessary-sync"
    description = "per-iteration cudaDeviceSynchronize with no CPU consumer"

    def __init__(self, iterations: int = 10, kernel_time: float = 200e-6,
                 cpu_time: float = 150e-6, elements: int = 1024,
                 fixed: bool = False) -> None:
        self.iterations = iterations
        self.kernel_time = kernel_time
        self.cpu_time = cpu_time
        self.elements = elements
        self.fixed = fixed

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        with ctx.frame("main", _SRC, 10):
            dev = rt.cudaMalloc(self.elements * 8, label="results")
            out = ctx.host_array(self.elements, label="out")
            for i in range(self.iterations):
                with ctx.frame("run_iteration", _SRC, 20):
                    payload = np.full(self.elements, float(i + 1))
                    with ctx.frame("run_iteration", _SRC, 21):
                        rt.cudaLaunchKernel("iterate", self.kernel_time,
                                            writes=[(dev, payload)])
                    if not self.fixed:
                        with ctx.frame("run_iteration", _SRC, 23):
                            rt.cudaDeviceSynchronize()
                    ctx.cpu_work(self.cpu_time, "host-side bookkeeping")
            with ctx.frame("main", _SRC, 30):
                rt.cudaMemcpy(out, dev)
            with ctx.frame("main", _SRC, 31):
                self.checksum = float(out.read().sum())


class MisplacedSyncApp(Workload):
    """A required synchronization placed far before the data's first use.

    The kernel result *is* consumed, so the sync is necessary — but a
    long stretch of independent CPU work separates the sync from the
    first use, so moving the sync just before the use would recover
    the overlap.  ``fixed=True`` performs exactly that move.
    """

    name = "synthetic-misplaced-sync"
    description = "required sync far ahead of first data use"

    def __init__(self, iterations: int = 8, kernel_time: float = 300e-6,
                 independent_cpu_time: float = 250e-6,
                 elements: int = 512, fixed: bool = False) -> None:
        self.iterations = iterations
        self.kernel_time = kernel_time
        self.independent_cpu_time = independent_cpu_time
        self.elements = elements
        self.fixed = fixed

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        with ctx.frame("main", _SRC, 110):
            dev = rt.cudaMalloc(self.elements * 8, label="results")
            out = ctx.host_array(self.elements, label="out")
            self.checksum = 0.0
            for i in range(self.iterations):
                with ctx.frame("step", _SRC, 120):
                    payload = np.full(self.elements, float(i + 1))
                    with ctx.frame("step", _SRC, 121):
                        rt.cudaLaunchKernel("compute", self.kernel_time,
                                            writes=[(dev, payload)])
                    if not self.fixed:
                        # Problematic placement: sync immediately...
                        with ctx.frame("step", _SRC, 123):
                            rt.cudaMemcpy(out, dev)
                        # ...then do long independent CPU work...
                        ctx.cpu_work(self.independent_cpu_time, "independent")
                    else:
                        # Fixed placement: overlap CPU work with the GPU,
                        # synchronize only when the data is needed.
                        ctx.cpu_work(self.independent_cpu_time, "independent")
                        with ctx.frame("step", _SRC, 123):
                            rt.cudaMemcpy(out, dev)
                    # ...and only now touch the data.
                    with ctx.frame("step", _SRC, 130):
                        self.checksum += float(out.read().sum())


class DuplicateTransferApp(Workload):
    """The same host payload re-uploaded to the device every iteration.

    Only the first H2D transfer carries new data; all later ones are
    content-identical duplicates.  ``fixed=True`` hoists the transfer
    out of the loop (the paper's cumf_als-style fix).
    """

    name = "synthetic-duplicate-transfer"
    description = "loop re-transfers identical data to the device"

    def __init__(self, iterations: int = 10, elements: int = 64 * 1024,
                 kernel_time: float = 150e-6, fixed: bool = False) -> None:
        self.iterations = iterations
        self.elements = elements
        self.kernel_time = kernel_time
        self.fixed = fixed

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        with ctx.frame("main", _SRC, 210):
            host_in = ctx.host_array(self.elements, label="model")
            host_in.write(np.arange(self.elements, dtype=np.float64))
            dev_in = rt.cudaMalloc(self.elements * 8, label="model_dev")
            dev_out = rt.cudaMalloc(self.elements * 8, label="out_dev")
            out = ctx.host_array(self.elements, label="out")
            if self.fixed:
                with ctx.frame("main", _SRC, 215):
                    rt.cudaMemcpy(dev_in, host_in)
            for i in range(self.iterations):
                with ctx.frame("iterate", _SRC, 220):
                    if not self.fixed:
                        with ctx.frame("iterate", _SRC, 221):
                            rt.cudaMemcpy(dev_in, host_in)
                    result = np.full(self.elements, float(i))
                    with ctx.frame("iterate", _SRC, 223):
                        rt.cudaLaunchKernel("transform", self.kernel_time,
                                            writes=[(dev_out, result)])
            with ctx.frame("main", _SRC, 230):
                rt.cudaMemcpy(out, dev_out)
            with ctx.frame("main", _SRC, 231):
                self.checksum = float(out.read().sum())


class HiddenPrivateSyncApp(Workload):
    """Synchronizations only reachable through the private driver API.

    The application calls the vendor BLAS library, whose batched solve
    fences through the proprietary entry points — invisible to the
    CUPTI-based profilers but found by Diogenes.
    """

    name = "synthetic-private-sync"
    description = "vendor-library fences via the private driver API"

    def __init__(self, iterations: int = 6, n: int = 256, batch: int = 32) -> None:
        self.iterations = iterations
        self.n = n
        self.batch = batch

    def run(self, ctx: ExecutionContext) -> None:
        from repro.cublas import CublasHandle

        rt = ctx.cudart
        with ctx.frame("main", _SRC, 310):
            blas = CublasHandle(ctx.driver)
            mats = rt.cudaMalloc(self.n * self.n * 4, label="mats")
            for i in range(self.iterations):
                with ctx.frame("solve_step", _SRC, 320):
                    blas.potrf_batched(mats, self.n, batch=self.batch)
                ctx.cpu_work(100e-6, "assemble")
            blas.destroy()


class QuietApp(Workload):
    """A well-behaved app: async transfers from pinned memory, one
    necessary sync right before the single data use.  Diogenes should
    report (almost) nothing — the negative-control workload."""

    name = "synthetic-quiet"
    description = "no problematic operations (negative control)"

    def __init__(self, iterations: int = 5, elements: int = 4096) -> None:
        self.iterations = iterations
        self.elements = elements

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        with ctx.frame("main", _SRC, 410):
            pinned = rt.cudaMallocHost(self.elements, label="staging")
            dev = rt.cudaMalloc(self.elements * 8, label="dev")
            self.checksum = 0.0
            for i in range(self.iterations):
                with ctx.frame("pipeline", _SRC, 420):
                    payload = np.full(self.elements, float(i + 7))
                    with ctx.frame("pipeline", _SRC, 421):
                        rt.cudaLaunchKernel("stage", 120e-6,
                                            writes=[(dev, payload)])
                    with ctx.frame("pipeline", _SRC, 422):
                        rt.cudaMemcpyAsync(pinned, dev)
                    with ctx.frame("pipeline", _SRC, 423):
                        rt.cudaStreamSynchronize(0)
                    with ctx.frame("pipeline", _SRC, 424):
                        self.checksum += float(pinned.read().sum())


class ScriptedApp(Workload):
    """A workload driven by an explicit op script — the property-test
    workhorse.

    ``script`` is a list of primitive steps, each a tuple whose first
    element selects the operation:

    * ``("work", seconds)`` — CPU compute;
    * ``("launch", seconds)`` — kernel launch of that duration;
    * ``("sync",)`` — ``cudaDeviceSynchronize``;
    * ``("h2d", kb)`` / ``("h2d_same", kb)`` — upload fresh /
      content-identical data;
    * ``("d2h", kb)`` — download into a fresh pageable buffer;
    * ``("read",)`` — read the most recent D2H destination (makes the
      preceding synchronization *required*);
    * ``("free",)`` — allocate-and-free a scratch device buffer
      (implicit sync).

    Each step gets its own synthetic source line so every op is a
    distinct call site.
    """

    name = "synthetic-scripted"
    description = "script-driven op sequence for property tests"

    def __init__(self, script, elements: int = 1024) -> None:
        self.script = list(script)
        self.elements = elements

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        dev = rt.cudaMalloc(self.elements * 8, label="scripted_dev")
        same = ctx.host_array(self.elements, label="same_src")
        same.write(np.arange(self.elements, dtype=np.float64))
        last_dst = None
        fresh_counter = 0
        with ctx.frame("main", "scripted.cpp", 1):
            for i, step in enumerate(self.script):
                op, *args = step
                line = 100 + i
                with ctx.frame("script_step", "scripted.cpp", line):
                    if op == "work":
                        ctx.cpu_work(args[0], "scripted")
                    elif op == "launch":
                        rt.cudaLaunchKernel(
                            f"k{i}", args[0],
                            writes=[(dev, np.full(self.elements, float(i)))])
                    elif op == "sync":
                        rt.cudaDeviceSynchronize()
                    elif op == "h2d":
                        fresh_counter += 1
                        src = ctx.host_array(self.elements,
                                             label=f"fresh{fresh_counter}")
                        src.write(np.full(self.elements,
                                          float(fresh_counter)))
                        rt.cudaMemcpy(dev, src)
                    elif op == "h2d_same":
                        rt.cudaMemcpy(dev, same)
                    elif op == "d2h":
                        last_dst = ctx.host_array(self.elements,
                                                  label=f"dst{i}")
                        rt.cudaMemcpy(last_dst, dev)
                    elif op == "read":
                        if last_dst is not None:
                            float(last_dst.read().sum())
                    elif op == "free":
                        scratch = rt.cudaMalloc(4096, label=f"scratch{i}")
                        rt.cudaFree(scratch)
                    else:
                        raise ValueError(f"unknown scripted op {op!r}")


def default_scripted_app() -> ScriptedApp:
    """The ``synthetic-scripted`` workload: one kernel launch, then a
    device sync."""
    return ScriptedApp([("launch", 1e-4), ("sync",)])


#: Step menu for seeded random scripts (shared with the validation
#: bench, so bench populations and registry workloads agree).
STEP_MENU: tuple = (
    ("work", 60e-6), ("work", 250e-6),
    ("launch", 120e-6), ("launch", 450e-6),
    ("sync",), ("h2d_same", 0), ("h2d", 0), ("d2h", 0), ("read",), ("free",),
)


def random_script(seed: int, length: int = 18, menu=None) -> list:
    """A reproducible random op script: one seed, one program.

    All randomness flows through a single ``random.Random(seed)``, so a
    recorded seed alone rebuilds the exact script — the contract the
    fuzz harness's copy-pasteable failure reports depend on.
    """
    import random

    rng = random.Random(seed)
    chosen_menu = menu if menu is not None else STEP_MENU
    return [rng.choice(chosen_menu) for _ in range(length)]


class RandomScriptApp(ScriptedApp):
    """A seeded random :class:`ScriptedApp`, rebuildable by name+params."""

    name = "synthetic-random"
    description = "seeded random op script (reproducible from the seed)"

    def __init__(self, seed: int = 0, length: int = 18,
                 elements: int = 1024) -> None:
        super().__init__(random_script(seed, length), elements=elements)
        self.seed = seed
        self.length = length
        self.name = f"synthetic-random-{seed}"
