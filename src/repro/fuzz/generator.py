"""Seeded generator of workloads with planted problems.

A :class:`FuzzPlan` is built deterministically from one integer seed:
a sequence of independent *segments*, each either quiet (filler) or
carrying exactly one planted problem pattern at a known synthetic call
site.  :class:`FuzzedApp` drives the plan through the simulated
runtime; ``fixed=True`` applies exactly the planted remedies (delete
the unnecessary sync, move the misplaced sync to first use, hoist the
duplicate upload out of its loop) so the *actual* benefit of the fixes
is measurable as a wall-time delta — the same methodology as the
paper's Table 1 and the ``fixed`` flags on the hand-written synthetic
apps.

Segment design notes
--------------------
Each segment owns its buffers and keeps its reads inside its own
sync window: stage 3 marks a synchronization *required* when any
protected host region is touched before the next synchronization, so
cross-segment reads would contaminate neighbouring verdicts.  CPU
filler work after each kernel always exceeds the kernel duration, so
the device is drained at every segment boundary and the measured
fixed-vs-base delta isolates exactly the planted problems.

All payload contents are drawn from one per-app counter, so no two
transfers are accidentally content-identical — the only duplicate
digests are the planted ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import Workload
from repro.runtime.context import ExecutionContext

#: Problem-kind strings in manifests (match ``ProblemKind.value``).
UNNECESSARY_SYNC = "unnecessary_synchronization"
MISPLACED_SYNC = "misplaced_synchronization"
UNNECESSARY_TRANSFER = "unnecessary_transfer"

#: Segment kinds that plant a problem.
_PLANTED_KINDS = ("unnecessary_sync", "misplaced_sync", "duplicate_transfer")
#: Quiet fillers: correct code the tool must *not* flag.
_QUIET_KINDS = ("quiet_cpu", "quiet_pipeline", "required_sync")

#: Source lines inside a segment's 40-line block.
_LN_ALLOC = 0
_LN_HOIST = 2      # fixed variant: hoisted duplicate upload
_LN_COPY = 4       # planted duplicate / misplaced transfer site
_LN_LAUNCH = 6
_LN_SYNC = 8       # planted unnecessary-sync site
_LN_READ = 10


@dataclass(frozen=True)
class PlantedProblem:
    """Ground truth for one planted problem site."""

    kind: str          # one of the ProblemKind value strings above
    file: str
    line: int
    count: int         # expected dynamic detections at this site

    def to_json(self) -> dict:
        return {"kind": self.kind, "file": self.file,
                "line": self.line, "count": self.count}


@dataclass(frozen=True)
class Segment:
    """One independent stretch of the generated program."""

    index: int
    kind: str
    line_base: int
    kernel_time: float = 0.0
    cpu_time: float = 0.0          # trailing filler work
    independent_time: float = 0.0  # misplaced: work between sync and use
    elements: int = 256
    copies: int = 1                # duplicate_transfer: loop trip count

    def to_json(self) -> dict:
        return {
            "index": self.index, "kind": self.kind,
            "line_base": self.line_base, "kernel_time": self.kernel_time,
            "cpu_time": self.cpu_time,
            "independent_time": self.independent_time,
            "elements": self.elements, "copies": self.copies,
        }


@dataclass
class FuzzPlan:
    """Deterministic program + ground-truth manifest for one seed."""

    seed: int
    file: str
    segments: list[Segment] = field(default_factory=list)
    planted: list[PlantedProblem] = field(default_factory=list)

    def planted_lines(self) -> dict[tuple[str, int, str], int]:
        """(file, line, kind) -> expected detection count."""
        return {(p.file, p.line, p.kind): p.count for p in self.planted}

    def duplicate_lines(self) -> set[int]:
        """Lines of planted duplicate-upload sites (fix keeps occurrence 0)."""
        return {s.line_base + _LN_COPY for s in self.segments
                if s.kind == "duplicate_transfer"}

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "file": self.file,
            "segments": [s.to_json() for s in self.segments],
            "planted": [p.to_json() for p in self.planted],
        }


def _usec(rng: random.Random, lo: float, hi: float) -> float:
    """A duration in [lo, hi] seconds, quantized to whole microseconds
    so plans serialize to short, stable decimal floats."""
    return rng.randrange(round(lo * 1e6), round(hi * 1e6) + 1) / 1e6


def build_plan(seed: int, segments: int | None = None) -> FuzzPlan:
    """Build the deterministic plan for one seed.

    ``segments`` fixes the segment count; by default the seed also
    chooses it (3–7).  At least one segment always plants a problem,
    so every generated app has a non-empty ground truth.
    """
    rng = random.Random(seed)
    count = segments if segments is not None else rng.randint(3, 7)
    if count < 1:
        raise ValueError(f"segments must be >= 1, got {count}")
    src = f"fuzz_{seed}.cpp"

    kinds = [rng.choice(_PLANTED_KINDS + _QUIET_KINDS) for _ in range(count)]
    if not any(k in _PLANTED_KINDS for k in kinds):
        kinds[rng.randrange(count)] = rng.choice(_PLANTED_KINDS)

    plan = FuzzPlan(seed=seed, file=src)
    for i, kind in enumerate(kinds):
        base = 100 + 40 * i
        kernel = _usec(rng, 120e-6, 400e-6)
        # Trailing CPU work always outlasts the kernel: the device is
        # drained at every segment boundary (see module docstring).
        cpu = kernel * rng.uniform(1.3, 1.9) + 30e-6
        seg = Segment(index=i, kind=kind, line_base=base,
                      kernel_time=kernel, cpu_time=cpu)
        if kind == "unnecessary_sync":
            plan.planted.append(PlantedProblem(
                UNNECESSARY_SYNC, src, base + _LN_SYNC, 1))
        elif kind == "misplaced_sync":
            # Independent work long enough that (a) the first-use delay
            # clears the misplaced threshold with margin and (b) the
            # kernel fully hides behind it in the fixed variant.
            indep = max(150e-6, kernel * rng.uniform(1.4, 2.0)) + 50e-6
            seg = Segment(index=i, kind=kind, line_base=base,
                          kernel_time=kernel, cpu_time=cpu,
                          independent_time=indep, elements=256)
            plan.planted.append(PlantedProblem(
                MISPLACED_SYNC, src, base + _LN_COPY, 1))
        elif kind == "duplicate_transfer":
            copies = rng.randint(2, 4)
            seg = Segment(index=i, kind=kind, line_base=base,
                          kernel_time=kernel, cpu_time=cpu,
                          elements=rng.choice((16384, 32768, 65536)),
                          copies=copies)
            # Occurrence 0 carries fresh data; the k-1 repeats are
            # duplicates.  Every occurrence's implicit copy-sync is
            # unnecessary (nothing reads device data in this segment).
            plan.planted.append(PlantedProblem(
                UNNECESSARY_TRANSFER, src, base + _LN_COPY, copies - 1))
            plan.planted.append(PlantedProblem(
                UNNECESSARY_SYNC, src, base + _LN_COPY, copies))
        elif kind == "required_sync":
            seg = Segment(index=i, kind=kind, line_base=base,
                          kernel_time=kernel, cpu_time=cpu, elements=256)
        elif kind == "quiet_pipeline":
            seg = Segment(index=i, kind=kind, line_base=base,
                          kernel_time=kernel, cpu_time=cpu, elements=512)
        plan.segments.append(seg)
    return plan


class FuzzedApp(Workload):
    """A generated workload with a known ground-truth manifest.

    ``fixed=True`` applies exactly the planted remedies and nothing
    else, so ``base.uninstrumented_time() - fixed.uninstrumented_time()``
    is the *actual* benefit of the planted fixes.

    Registered as ``"fuzzed"`` with plain scalar parameters, so
    :class:`repro.exec.jobs.WorkloadSpec` can rebuild it in worker
    processes and cache its stage results.
    """

    name = "fuzzed"
    description = "seeded fuzz workload with planted problems"

    def __init__(self, seed: int = 0, segments: int | None = None,
                 fixed: bool = False) -> None:
        self.seed = seed
        self.segments = segments
        self.fixed = fixed
        self.plan = build_plan(seed, segments)
        self.name = f"fuzzed-{seed}"

    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        plan = self.plan
        src = plan.file
        counter = 0

        def payload(elements: int) -> np.ndarray:
            nonlocal counter
            counter += 1
            return np.full(elements, float(counter))

        with ctx.frame("main", src, 1):
            # Prologue: every buffer up front (allocation is not a
            # sync; keeping it out of the segments keeps their
            # problem windows clean).
            bufs: dict[int, dict] = {}
            for seg in plan.segments:
                with ctx.frame("setup", src, seg.line_base + _LN_ALLOC):
                    b: dict = {"dev": rt.cudaMalloc(seg.elements * 8,
                                                    label=f"dev{seg.index}")}
                    if seg.kind in ("misplaced_sync", "required_sync"):
                        b["out"] = ctx.host_array(seg.elements,
                                                  label=f"out{seg.index}")
                    elif seg.kind == "duplicate_transfer":
                        b["dup_src"] = ctx.host_array(
                            seg.elements, label=f"dup{seg.index}")
                        b["dup_src"].write(payload(seg.elements))
                        b["dev_out"] = rt.cudaMalloc(
                            seg.elements * 8, label=f"devout{seg.index}")
                    elif seg.kind == "quiet_pipeline":
                        b["pinned"] = rt.cudaMallocHost(
                            seg.elements, label=f"pin{seg.index}")
                    bufs[seg.index] = b

            for seg in plan.segments:
                self._run_segment(ctx, seg, bufs[seg.index], payload)

    def _run_segment(self, ctx: ExecutionContext, seg: Segment,
                     bufs: dict, payload) -> None:
        rt = ctx.cudart
        src = self.plan.file
        base = seg.line_base
        fn = f"segment_{seg.index}"
        with ctx.frame(fn, src, base + 1):
            if seg.kind == "unnecessary_sync":
                with ctx.frame(fn, src, base + _LN_LAUNCH):
                    rt.cudaLaunchKernel(f"k{seg.index}", seg.kernel_time,
                                        writes=[(bufs["dev"],
                                                 payload(seg.elements))])
                if not self.fixed:
                    with ctx.frame(fn, src, base + _LN_SYNC):
                        rt.cudaDeviceSynchronize()
                ctx.cpu_work(seg.cpu_time, "filler")

            elif seg.kind == "misplaced_sync":
                with ctx.frame(fn, src, base + _LN_LAUNCH):
                    rt.cudaLaunchKernel(f"k{seg.index}", seg.kernel_time,
                                        writes=[(bufs["dev"],
                                                 payload(seg.elements))])
                if not self.fixed:
                    # Planted placement: sync (the D2H copy) first,
                    # independent work after, use at the very end.
                    with ctx.frame(fn, src, base + _LN_COPY):
                        rt.cudaMemcpy(bufs["out"], bufs["dev"])
                    ctx.cpu_work(seg.independent_time, "independent")
                else:
                    ctx.cpu_work(seg.independent_time, "independent")
                    with ctx.frame(fn, src, base + _LN_COPY):
                        rt.cudaMemcpy(bufs["out"], bufs["dev"])
                with ctx.frame(fn, src, base + _LN_READ):
                    float(bufs["out"].read().sum())
                ctx.cpu_work(seg.cpu_time, "filler")

            elif seg.kind == "duplicate_transfer":
                if self.fixed:
                    with ctx.frame(fn, src, base + _LN_HOIST):
                        rt.cudaMemcpy(bufs["dev"], bufs["dup_src"])
                for i in range(seg.copies):
                    if not self.fixed:
                        with ctx.frame(fn, src, base + _LN_COPY):
                            rt.cudaMemcpy(bufs["dev"], bufs["dup_src"])
                    with ctx.frame(fn, src, base + _LN_LAUNCH):
                        rt.cudaLaunchKernel(
                            f"k{seg.index}_{i}", seg.kernel_time,
                            writes=[(bufs["dev_out"],
                                     payload(seg.elements))])
                    ctx.cpu_work(seg.cpu_time, "filler")

            elif seg.kind == "required_sync":
                with ctx.frame(fn, src, base + _LN_LAUNCH):
                    rt.cudaLaunchKernel(f"k{seg.index}", seg.kernel_time,
                                        writes=[(bufs["dev"],
                                                 payload(seg.elements))])
                with ctx.frame(fn, src, base + _LN_COPY):
                    rt.cudaMemcpy(bufs["out"], bufs["dev"])
                # Immediate use: the sync is required and well-placed.
                with ctx.frame(fn, src, base + _LN_READ):
                    float(bufs["out"].read().sum())
                ctx.cpu_work(seg.cpu_time, "filler")

            elif seg.kind == "quiet_pipeline":
                with ctx.frame(fn, src, base + _LN_LAUNCH):
                    rt.cudaLaunchKernel(f"k{seg.index}", seg.kernel_time,
                                        writes=[(bufs["dev"],
                                                 payload(seg.elements))])
                with ctx.frame(fn, src, base + _LN_COPY):
                    rt.cudaMemcpyAsync(bufs["pinned"], bufs["dev"])
                with ctx.frame(fn, src, base + _LN_SYNC):
                    rt.cudaStreamSynchronize(0)
                with ctx.frame(fn, src, base + _LN_READ):
                    float(bufs["pinned"].read().sum())
                ctx.cpu_work(seg.cpu_time, "filler")

            elif seg.kind == "quiet_cpu":
                ctx.cpu_work(seg.cpu_time, "filler")

            else:  # pragma: no cover - build_plan emits known kinds
                raise ValueError(f"unknown segment kind {seg.kind!r}")
