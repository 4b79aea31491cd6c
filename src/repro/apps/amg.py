"""AMG — algebraic multigrid benchmark (LLNL), ij matrix problem.

The paper's third case study (§5.1): Diogenes flagged a problematic
synchronization at a ``cudaMemset`` operation.  ``cudaMemset``
synchronizes **only when used on a unified-memory address**, and since
the pages being set were already CPU-resident, the paper's fix simply
replaced it with a plain C ``memset`` — worth 5.8% of execution for a
6.8% estimate.

The solver is a real multigrid V-cycle on the 2-D Poisson system from
:mod:`repro.apps.data` (the stand-in for AMG's ij benchmark): weighted
Jacobi smoothing, full-weighting restriction and prolongation with
actual numpy arithmetic, converging over cycles.

Problematic patterns (matching AMG's rows in Table 2):

* two per-cycle ``cudaMemset`` calls on **managed** vectors — the
  conditional synchronization (Diogenes's #1 entry for AMG);
* a per-cycle temporary coarse-grid buffer freed with ``cudaFree`` —
  implicit sync (#2);
* a per-cycle ``cudaStreamSynchronize`` placed well before the
  residual it guards is read (bookkeeping in between) — a *misplaced*
  synchronization (#3, small);
* ``cudaMallocManaged`` traffic that profilers report but Diogenes
  rightly has no entry for.

``fixed=True`` applies only the paper's memset fix (host-side clear of
the CPU-resident pages); everything else stays, so Table 1's
estimated-vs-actual comparison is apples-to-apples.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Workload
from repro.apps.data import poisson_system
from repro.runtime.context import ExecutionContext
from repro.sim.costs import KernelCost

_CYCLE = "par_cycle.c"
_SOLVER = "par_amg_solve.c"


class Amg(Workload):
    """The AMG workload model."""

    name = "amg"
    description = "multigrid V-cycle Poisson solver (ij benchmark stand-in)"

    def __init__(self, cycles: int = 20, n: int = 32, levels: int = 3,
                 kernel_unit: float = 0.35e-3, cover_unit: float = 0.06e-3,
                 bookkeeping: float = 55e-6, fixed: bool = False) -> None:
        self.cycles = cycles
        self.n = n
        self.levels = levels
        self.kernel_unit = kernel_unit
        self.cover_unit = cover_unit
        self.bookkeeping = bookkeeping
        self.fixed = fixed
        self.residual_history: list[float] = []

    # ------------------------------------------------------------------
    # Real multigrid numerics
    # ------------------------------------------------------------------
    @staticmethod
    def _apply(n: int, x: np.ndarray) -> np.ndarray:
        g = x.reshape(n, n)
        y = 4.0 * g.copy()
        y[1:, :] -= g[:-1, :]
        y[:-1, :] -= g[1:, :]
        y[:, 1:] -= g[:, :-1]
        y[:, :-1] -= g[:, 1:]
        return y.reshape(-1)

    @classmethod
    def _jacobi(cls, n: int, x: np.ndarray, b: np.ndarray,
                sweeps: int = 2, omega: float = 0.8) -> np.ndarray:
        for _ in range(sweeps):
            r = b - cls._apply(n, x)
            x = x + omega * r / 4.0
        return x

    @staticmethod
    def _restrict(n: int, r: np.ndarray) -> np.ndarray:
        g = r.reshape(n, n)
        coarse = (g[0::2, 0::2] + g[1::2, 0::2]
                  + g[0::2, 1::2] + g[1::2, 1::2]) / 4.0
        return coarse.reshape(-1)

    @staticmethod
    def _prolong(nc: int, e: np.ndarray) -> np.ndarray:
        g = e.reshape(nc, nc)
        fine = np.zeros((2 * nc, 2 * nc))
        fine[0::2, 0::2] = g
        fine[1::2, 0::2] = g
        fine[0::2, 1::2] = g
        fine[1::2, 1::2] = g
        return fine.reshape(-1)

    def _vcycle_math(self, n: int, x: np.ndarray, b: np.ndarray,
                     level: int) -> np.ndarray:
        x = self._jacobi(n, x, b)
        if level + 1 >= self.levels or n <= 4:
            return self._jacobi(n, x, b, sweeps=8)
        r = b - self._apply(n, x)
        rc = self._restrict(n, r)
        ec = self._vcycle_math(n // 2, np.zeros_like(rc), rc, level + 1)
        x = x + self._prolong(n // 2, ec)
        return self._jacobi(n, x, b)

    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        u = self.kernel_unit
        system = poisson_system(self.n)
        x = np.zeros(system.unknowns)
        self.residual_history = []

        with ctx.frame("main", "amg.c", 212):
            # Unified-memory vectors, as AMG's GPU port allocates them.
            managed_x = rt.cudaMallocManaged(system.unknowns, label="u_x")
            managed_r = rt.cudaMallocManaged(system.unknowns, label="u_r")
            dev_rhs = rt.cudaMalloc(system.b.nbytes, "d_rhs")
            dev_res = rt.cudaMalloc(4096, "d_res")
            resid_pinned = rt.cudaMallocHost(8, dtype=np.float64,
                                             label="resid")
            copy_stream = rt.cudaStreamCreate()

            with ctx.frame("hypre_BoomerAMGSetup", _SOLVER, 102):
                rt.cudaMemcpy(dev_rhs, ctx.host_array(
                    system.unknowns, label="rhs_stage"))
                for lvl in range(self.levels):
                    rt.cudaLaunchKernel(f"setup_level_{lvl}",
                                        KernelCost(duration=1.2 * u))
                ctx.cpu_work(self.cover_unit * 2, "galerkin_setup")
                rt.cudaDeviceSynchronize()

            for cycle in range(self.cycles):
                with ctx.frame("hypre_BoomerAMGCycle", _CYCLE, 280):
                    # Coarse-grid scratch for this cycle, allocated up
                    # front (hypre allocates workspaces eagerly).
                    with ctx.frame("hypre_GaussElimSetup", _SOLVER, 380):
                        temp = rt.cudaMalloc(16 * 1024, "coarse_temp")
                    # --- the problem: memset on unified memory --------
                    if not self.fixed:
                        with ctx.frame("hypre_BoomerAMGCycle", _CYCLE, 295):
                            rt.cudaMemset(managed_r, 0)
                    else:
                        # The paper's fix: plain host-side memset of the
                        # already-CPU-resident pages.
                        managed_r.managed_host.fill(0)
                        ctx.cpu_work(
                            ctx.machine.costs.host_memop_duration(
                                managed_r.nbytes), "host_memset")
                    ctx.cpu_work(self.cover_unit, "level_scheduling")
                    if not self.fixed:
                        with ctx.frame("hypre_BoomerAMGCycle", _CYCLE, 300):
                            rt.cudaMemset(managed_x, 0)
                    else:
                        managed_x.managed_host.fill(0)
                        ctx.cpu_work(
                            ctx.machine.costs.host_memop_duration(
                                managed_x.nbytes), "host_memset")
                    ctx.cpu_work(self.cover_unit, "cycle_bookkeeping")

                    # --- real V-cycle, device-paced -------------------
                    x = self._vcycle_math(self.n, x, system.b, 0)
                    size = self.n
                    for lvl in range(self.levels):
                        with ctx.frame("hypre_BoomerAMGCycle", _CYCLE,
                                       320 + lvl):
                            rt.cudaLaunchKernel(
                                f"jacobi_smooth_l{lvl}",
                                KernelCost(duration=u * (size / self.n) ** 2))
                            rt.cudaLaunchKernel(
                                f"restrict_l{lvl}",
                                KernelCost(duration=0.4 * u))
                        size //= 2

                    # Coarse solve on the per-cycle temporary.
                    with ctx.frame("hypre_GaussElimSolve", _SOLVER, 412):
                        rt.cudaLaunchKernel("coarse_direct_solve",
                                            KernelCost(duration=1.5 * u))
                        ctx.cpu_work(self.cover_unit * 0.4, "coarse_setup")
                    with ctx.frame("hypre_GaussElimSolve", _SOLVER, 430):
                        rt.cudaFree(temp)
                    ctx.cpu_work(self.cover_unit * 1.4, "interp_bookkeeping")

                    # Residual kernel ahead of the prolongation sweep;
                    # its value drains to the host over a side stream so
                    # the compute stream keeps working into the next
                    # cycle (whose managed memsets will then stall on it).
                    resid = float(np.linalg.norm(
                        system.b - self._apply(self.n, x)))
                    with ctx.frame("hypre_BoomerAMGCycle", _CYCLE, 355):
                        rt.cudaLaunchKernel(
                            "compute_residual", KernelCost(duration=0.5 * u),
                            writes=[(dev_res, np.resize(np.array([resid]),
                                                        512))])
                    for lvl in reversed(range(self.levels)):
                        with ctx.frame("hypre_BoomerAMGCycle", _CYCLE,
                                       360 + lvl):
                            rt.cudaLaunchKernel(
                                f"prolong_smooth_l{lvl}",
                                KernelCost(duration=0.8 * u))

                    # --- misplaced stream synchronization -------------
                    with ctx.frame("hypre_BoomerAMGCycle", _CYCLE, 390):
                        rt.cudaMemcpyAsync(resid_pinned, dev_res,
                                           stream=copy_stream, nbytes=8)
                        rt.cudaStreamSynchronize(copy_stream)
                    ctx.cpu_work(self.bookkeeping, "log_formatting")
                    with ctx.frame("hypre_BoomerAMGCycle", _CYCLE, 396):
                        self.residual_history.append(
                            float(resid_pinned.read()[0]))

            with ctx.frame("main", "amg.c", 240):
                rt.cudaFree(managed_x)
                rt.cudaFree(managed_r)
                rt.cudaFree(dev_rhs)
                rt.cudaFree(dev_res)
                rt.cudaFreeHost(resid_pinned)
                rt.cudaStreamDestroy(copy_stream)
        self.solution = x
