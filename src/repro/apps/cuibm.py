"""cuIBM — immersed-boundary CFD (Layton/Krishnan/Barba, Boston Univ.).

The paper's second case study (§5.1, Figure 7): a 2-D Navier–Stokes
solver whose pressure-Poisson solve calls Thrust/Cusp primitives that
allocate a temporary device vector per call and free it on return.
Every such ``cudaFree`` implicitly synchronizes with the device —
millions of times over a run.  Diogenes's fold on ``cudaFree`` showed
22.5% of execution recoverable, expanding to three template functions
(``thrust::detail::contiguous_storage<...>``, ``thrust::pair<...>``,
``cusp::...::multiply<...>``), which is exactly the call structure
modelled here: the workload pushes the original template-bearing
symbol names onto its stack frames, so the *folded function* grouping
has real demangling work to do.

The fluid solve is real: an explicit advection–diffusion step plus a
matrix-free conjugate-gradient pressure solve on the lid-driven cavity
(Re 5000) case from :mod:`repro.apps.data`, mirroring the paper's
``lidDrivenCavityRe5000`` input.

Problematic patterns reproduced:

* per-call temporary alloc/``cudaFree`` in the three template
  functions (unnecessary implicit syncs — the big fold);
* a per-step ``cudaDeviceSynchronize`` (second fold in Figure 7);
* a per-CG-iteration ``cudaMemcpyAsync`` of the residual into
  *pageable* host memory — the conditional synchronization CUPTI never
  reports — whose value the solver only reads every
  ``check_interval`` iterations, leaving most of those hidden syncs
  unnecessary;
* a mostly-required per-step ``cudaStreamSynchronize`` (small tail
  entry, as in the paper's overview).

``fixed=True`` applies the paper's remedy: a reusing memory manager
for the Thrust temporaries, which removes the synchronizing frees
*and* millions of ``cudaMalloc``/``cudaFuncGetAttributes`` calls —
the reason the paper's actual benefit (17.6%) exceeded the estimate
(10.8%).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Workload
from repro.apps.data import lid_driven_cavity
from repro.runtime.context import ExecutionContext
from repro.sim.costs import KernelCost

_SOLVER = "kernels/generateVelocity.cu"
_CG = "solvers/cg.cu"

#: The original template-bearing symbol names (Figure 7 right).
_FN_STORAGE = ("thrust::detail::contiguous_storage<double, "
               "thrust::device_allocator<double>>::allocate")
_FN_PAIR = ("thrust::pair<thrust::device_ptr<double>, "
            "thrust::device_ptr<double>> thrust::minmax_element<"
            "thrust::device_ptr<double>>")
_FN_MULTIPLY = ("void cusp::system::detail::generic::multiply<"
                "cusp::csr_matrix<int, double>, cusp::array1d<double>>")


class _TempPool:
    """The fix: a trivial reusing allocator for Thrust temporaries."""

    def __init__(self, rt) -> None:
        self.rt = rt
        self._pool: dict[tuple[str, int], object] = {}

    def get(self, tag: str, nbytes: int):
        key = (tag, nbytes)
        buf = self._pool.get(key)
        if buf is None:
            buf = self._pool[key] = self.rt.cudaMalloc(nbytes, tag)
        return buf

    def release_all(self) -> None:
        for buf in self._pool.values():
            self.rt.cudaFree(buf)
        self._pool.clear()


class CuIbm(Workload):
    """The cuIBM workload model."""

    name = "cuibm"
    description = "2-D immersed-boundary Navier-Stokes, lid-driven cavity"

    def __init__(self, steps: int = 8, cg_iters: int = 10, n: int = 24,
                 reynolds: float = 5000.0, check_interval: int = 4,
                 kernel_unit: float = 0.8e-3, cover_unit: float = 0.05e-3,
                 fixed: bool = False) -> None:
        self.steps = steps
        self.cg_iters = cg_iters
        self.n = n
        self.reynolds = reynolds
        self.check_interval = check_interval
        self.kernel_unit = kernel_unit
        self.cover_unit = cover_unit
        self.fixed = fixed
        self.residual_history: list[float] = []

    # ------------------------------------------------------------------
    # Thrust/Cusp call-pattern helpers
    # ------------------------------------------------------------------
    def _thrust_reduce(self, ctx, rt, pool, kernel: str,
                       duration: float) -> None:
        """A Thrust reduction: temp storage, attribute query, kernel,
        synchronizing free (the contiguous_storage fold members)."""
        with ctx.frame(_FN_STORAGE, "thrust/detail/contiguous_storage.inl", 74):
            if self.fixed:
                pool.get("reduce_tmp", 16 * 1024)
            else:
                tmp = rt.cudaMalloc(16 * 1024, "reduce_tmp")
            rt.cudaFuncGetAttributes(kernel)
            rt.cudaLaunchKernel(kernel, KernelCost(duration=duration))
            ctx.cpu_work(self.cover_unit, "thrust_dispatch")
            if not self.fixed:
                with ctx.frame(_FN_STORAGE,
                               "thrust/detail/contiguous_storage.inl", 120):
                    rt.cudaFree(tmp)

    def _cusp_spmv(self, ctx, rt, pool, duration: float) -> None:
        """Cusp SpMV with its own temporary (the multiply fold members)."""
        with ctx.frame(_FN_MULTIPLY, "cusp/system/detail/generic/multiply.inl",
                       203):
            if self.fixed:
                pool.get("spmv_tmp", 32 * 1024)
            else:
                tmp = rt.cudaMalloc(32 * 1024, "spmv_tmp")
            rt.cudaLaunchKernel("cusp_spmv_csr", KernelCost(duration=duration))
            ctx.cpu_work(self.cover_unit * 0.5, "cusp_dispatch")
            if not self.fixed:
                with ctx.frame(_FN_MULTIPLY,
                               "cusp/system/detail/generic/multiply.inl", 241):
                    rt.cudaFree(tmp)
            ctx.cpu_work(self.cover_unit, "cusp_result_repack")

    def _thrust_minmax(self, ctx, rt, pool, duration: float) -> None:
        """Thrust minmax_element (the thrust::pair fold members)."""
        with ctx.frame(_FN_PAIR, "thrust/extrema.h", 551):
            if self.fixed:
                pool.get("minmax_tmp", 8 * 1024)
            else:
                tmp = rt.cudaMalloc(8 * 1024, "minmax_tmp")
            rt.cudaFuncGetAttributes("minmax_reduce")
            rt.cudaLaunchKernel("minmax_reduce", KernelCost(duration=duration))
            ctx.cpu_work(self.cover_unit * 4.0, "minmax_dispatch")
            if not self.fixed:
                with ctx.frame(_FN_PAIR, "thrust/extrema.h", 579):
                    rt.cudaFree(tmp)

    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> None:  # noqa: C901 - script-like
        rt = ctx.cudart
        u = self.kernel_unit
        case = lid_driven_cavity(self.n, self.reynolds)
        uvel, vvel, p = case.u.copy(), case.v.copy(), case.p.copy()
        dx = case.dx
        dt = 0.2 * dx  # stable explicit step for the scaled case
        nu = 1.0 / self.reynolds
        pool = _TempPool(rt)
        self.residual_history = []

        with ctx.frame("main", "cuIBM.cu", 88):
            dev_fields = rt.cudaMalloc(3 * uvel.nbytes, "fields")
            resid_host = ctx.host_array(1, label="residual")  # pageable!

            for step in range(self.steps):
                with ctx.frame("NavierStokesSolver::stepTime",
                               _SOLVER, 132):
                    # Explicit advection-diffusion for the intermediate
                    # velocity (real math, device-paced kernels).
                    lap_u = self._laplacian(uvel, dx)
                    lap_v = self._laplacian(vvel, dx)
                    uvel = uvel + dt * (nu * lap_u)
                    vvel = vvel + dt * (nu * lap_v)
                    uvel[-1, :] = 1.0  # lid BC
                    with ctx.frame("NavierStokesSolver::stepTime",
                                   _SOLVER, 140):
                        rt.cudaLaunchKernel("advect_diffuse",
                                            KernelCost(duration=6.0 * u))
                    ctx.cpu_work(self.cover_unit * 2, "bc_update")

                    # CFL bookkeeping via thrust::minmax (3 fields).
                    for _ in range(3):
                        self._thrust_minmax(ctx, rt, pool, 0.3 * u)

                    # Pressure Poisson solve by CG (matrix-free Laplacian).
                    rhs = self._divergence(uvel, vvel, dx) / dt
                    p, resid = self._cg_pressure(ctx, rt, pool, p, rhs, dx)
                    self.residual_history.append(resid)

                    # Projection update + end-of-step sync habits.
                    gx, gy = self._gradient(p, dx)
                    uvel -= dt * gx
                    vvel -= dt * gy
                    with ctx.frame("NavierStokesSolver::stepTime",
                                   _SOLVER, 171):
                        rt.cudaLaunchKernel("project_velocity",
                                            KernelCost(duration=3.0 * u))
                    with ctx.frame("NavierStokesSolver::stepTime",
                                   _SOLVER, 175):
                        rt.cudaStreamSynchronize(0)
                    ctx.cpu_work(self.cover_unit, "io_bookkeeping")
                    with ctx.frame("NavierStokesSolver::stepTime",
                                   _SOLVER, 178):
                        rt.cudaDeviceSynchronize()  # habit, not needed
                    ctx.cpu_work(self.cover_unit * 8, "step_logging")

            with ctx.frame("main", "cuIBM.cu", 120):
                rt.cudaFree(dev_fields)
            pool.release_all()
        self.final_fields = (uvel, vvel, p)

    # ------------------------------------------------------------------
    def _cg_pressure(self, ctx, rt, pool, p: np.ndarray, rhs: np.ndarray,
                     dx: float) -> tuple[np.ndarray, float]:
        """Matrix-free CG on the pressure Poisson system."""
        u = self.kernel_unit
        x = p.reshape(-1).copy()
        b = rhs.reshape(-1)
        r = b - self._apply_lap(x, p.shape)
        d = r.copy()
        rr = float(r @ r)
        resid = np.sqrt(rr)
        with ctx.frame("CG::solve", _CG, 60):
            for it in range(self.cg_iters):
                with ctx.frame("CG::solve", _CG, 64):
                    q = self._apply_lap(d, p.shape)
                    self._cusp_spmv(ctx, rt, pool, 0.5 * u)
                    dq = float(d @ q)
                    if abs(dq) < 1e-30:
                        break
                    alpha = rr / dq
                    x += alpha * d
                    r -= alpha * q
                    rr_new = float(r @ r)
                    # Residual copied back every iteration into pageable
                    # memory (hidden conditional sync)...
                    with ctx.frame("CG::solve", _CG, 92):
                        dev_r = pool.get("resid_dev", 4096)
                        rt.cudaLaunchKernel(
                            "reduce_residual", KernelCost(duration=0.1 * u),
                            writes=[(dev_r, np.full(512, np.sqrt(rr_new)))])
                        resid_host = self._resid_host(ctx)
                        rt.cudaMemcpyAsync(resid_host, dev_r, nbytes=8)
                    # Device-side dots (alpha/beta stay on the GPU).
                    self._thrust_reduce(ctx, rt, pool, "dot_rr", 0.35 * u)
                    self._thrust_reduce(ctx, rt, pool, "dot_dq", 0.35 * u)
                    beta = rr_new / max(rr, 1e-30)
                    d = r + beta * d
                    rr = rr_new
                    # ...but only *read* at the check interval.
                    if (it + 1) % self.check_interval == 0:
                        with ctx.frame("CG::solve", _CG, 101):
                            resid = float(np.sqrt(max(
                                resid_host.read(0, 8)[0], 0.0)))
                    ctx.cpu_work(self.cover_unit * 0.5, "cg_bookkeeping")
            # The remaining device iterations execute the same code path;
            # to keep simulated call volume bounded we model only the
            # first ``cg_iters`` in GPU calls and complete the solve
            # numerically so the fluid state stays physical.
            x, rr = self._finish_cg(x, r, d, rr, p.shape)
        return x.reshape(p.shape), float(np.sqrt(rr))

    def _finish_cg(self, x, r, d, rr, shape, tol=1e-10, max_iters=2000):
        for _ in range(max_iters):
            if rr <= tol:
                break
            q = self._apply_lap(d, shape)
            dq = float(d @ q)
            if abs(dq) < 1e-30:
                break
            alpha = rr / dq
            x += alpha * d
            r -= alpha * q
            rr_new = float(r @ r)
            d = r + (rr_new / max(rr, 1e-30)) * d
            rr = rr_new
        return x, rr

    def _resid_host(self, ctx):
        """One pageable scalar buffer per run (lazily created)."""
        buf = getattr(self, "_resid_buf", None)
        if buf is None or buf.space is not ctx.hostspace:
            buf = ctx.host_array(1, label="resid_host")
            self._resid_buf = buf
        return buf

    # ------------------------------------------------------------------
    # Real grid math
    # ------------------------------------------------------------------
    @staticmethod
    def _laplacian(f: np.ndarray, dx: float) -> np.ndarray:
        out = np.zeros_like(f)
        out[1:-1, 1:-1] = (
            f[2:, 1:-1] + f[:-2, 1:-1] + f[1:-1, 2:] + f[1:-1, :-2]
            - 4.0 * f[1:-1, 1:-1]
        ) / dx ** 2
        return out

    @staticmethod
    def _divergence(u: np.ndarray, v: np.ndarray, dx: float) -> np.ndarray:
        out = np.zeros_like(u)
        out[1:-1, 1:-1] = (
            (u[1:-1, 2:] - u[1:-1, :-2]) + (v[2:, 1:-1] - v[:-2, 1:-1])
        ) / (2.0 * dx)
        return out

    @staticmethod
    def _gradient(p: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
        gx = np.zeros_like(p)
        gy = np.zeros_like(p)
        gx[:, 1:-1] = (p[:, 2:] - p[:, :-2]) / (2.0 * dx)
        gy[1:-1, :] = (p[2:, :] - p[:-2, :]) / (2.0 * dx)
        return gx, gy

    def _apply_lap(self, x: np.ndarray, shape) -> np.ndarray:
        g = x.reshape(shape)
        y = 4.0 * g.copy()
        y[1:, :] -= g[:-1, :]
        y[:-1, :] -= g[1:, :]
        y[:, 1:] -= g[:, :-1]
        y[:, :-1] -= g[:, 1:]
        return y.reshape(-1)
