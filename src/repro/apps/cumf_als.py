"""cumf_als — ALS matrix factorization (Tan et al., IBM/UIUC).

The paper's headline case study (§5.1, Figures 6 and 8): Diogenes
found a 23-operation problematic sequence per training iteration,
spread across two functions in two source files —

* 5 synchronous ``cudaMemcpy`` uploads that re-transfer identical
  data every iteration (duplicate transfer + unnecessary implicit
  sync);
* 17 ``cudaFree`` calls on per-iteration temporaries, each implicitly
  synchronizing with the device;
* 1 ``cudaDeviceSynchronize`` right after the largest kernel batch.

The visible entries of Figure 6 are reproduced verbatim (``cudaMemcpy``
at als.cpp:738/739, ``cudaFree`` at als.cpp:760/855/856/878/986/987,
``cudaDeviceSynchronize`` at als.cpp:877); the entries the figure
elides live in the CG solver (cg.cu), giving the paper's "two
functions in two different source files".

The factorization itself is real: alternating ridge-regression updates
of the user/item factor matrices against a synthetic MovieLens-shaped
ratings sample, with the RMSE computed on the CPU from data the GPU
produced (which is what makes the end-of-iteration D2H transfer's
synchronization *required* and terminates the sequence).

``fix`` selects the paper's remediations:

* ``"none"`` — the problematic original;
* ``"subsequence"`` — the fix actually applied in the paper (entries
  10–23: hoist the updateTheta-phase malloc/free pairs out of the
  loop, drop the ``cudaDeviceSynchronize``, keep entries 1–9 as-is);
* ``"full"`` — additionally hoist the duplicate uploads and the
  X/CG-phase temporaries (fixing all 23 entries).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Workload
from repro.apps.data import movielens_like
from repro.runtime.context import ExecutionContext
from repro.sim.costs import KernelCost

_ALS = "als.cpp"
_CG = "cg.cu"

_FIX_LEVELS = ("none", "subsequence", "full")


class CumfAls(Workload):
    """The cumf_als workload model."""

    name = "cumf-als"
    description = "ALS matrix factorization (MovieLens-shaped input)"

    def __init__(self, iterations: int = 30, users: int = 600,
                 items: int = 400, factors: int = 16,
                 kernel_unit: float = 1e-3, cover_unit: float = 0.08e-3,
                 transfer_kb: int = 2048, seed: int = 7,
                 fix: str = "none") -> None:
        if fix not in _FIX_LEVELS:
            raise ValueError(f"fix must be one of {_FIX_LEVELS}, got {fix!r}")
        self.iterations = iterations
        self.users = users
        self.items = items
        self.factors = factors
        self.kernel_unit = kernel_unit
        self.cover_unit = cover_unit
        self.transfer_kb = transfer_kb
        self.seed = seed
        self.fix = fix
        self.rmse_history: list[float] = []

    # ------------------------------------------------------------------
    def run(self, ctx: ExecutionContext) -> None:  # noqa: C901 - script-like
        rt = ctx.cudart
        u = self.kernel_unit
        cover = self.cover_unit
        data = movielens_like(self.users, self.items, seed=self.seed)
        ratings = data.dense()
        lam = 0.05

        rng = np.random.default_rng(self.seed + 1)
        x = rng.standard_normal((self.users, self.factors)) * 0.1
        theta = rng.standard_normal((self.items, self.factors)) * 0.1
        mask = (ratings != 0.0).astype(np.float64)
        self.rmse_history = []

        kb = self.transfer_kb
        sub_fixed = self.fix in ("subsequence", "full")
        full_fixed = self.fix == "full"

        with ctx.frame("main", _ALS, 700):
            # Static model data the loop (re-)uploads.
            host_csr_vals = ctx.host_array(kb * 128, label="csr_vals")
            host_csr_vals.write(np.resize(data.values, kb * 128))
            host_csr_cols = ctx.host_array(kb * 128, label="csr_cols")
            host_csr_cols.write(np.resize(
                data.item_idx.astype(np.float64), kb * 128))
            host_precond = ctx.host_array(kb * 64, label="precond")
            host_precond.write(np.full(kb * 64, 0.5))
            host_diag = ctx.host_array(kb * 64, label="diag")
            host_diag.write(np.arange(kb * 64, dtype=np.float64))
            host_perm = ctx.host_array(kb * 64, label="perm")
            host_perm.write(np.arange(kb * 64, dtype=np.float64)[::-1].copy())
            host_theta = ctx.host_array((self.items, self.factors),
                                        label="theta_out")

            dev_csr_vals = rt.cudaMalloc(host_csr_vals.nbytes, "d_csr_vals")
            dev_csr_cols = rt.cudaMalloc(host_csr_cols.nbytes, "d_csr_cols")
            dev_precond = rt.cudaMalloc(host_precond.nbytes, "d_precond")
            dev_diag = rt.cudaMalloc(host_diag.nbytes, "d_diag")
            dev_perm = rt.cudaMalloc(host_perm.nbytes, "d_perm")
            dev_theta = rt.cudaMalloc(host_theta.nbytes, "d_theta")

            if full_fixed:
                # Hoisted one-time uploads (with const+mprotect guard,
                # the paper's §5.1 safety recipe).
                with ctx.frame("main", _ALS, 710):
                    rt.cudaMemcpy(dev_csr_vals, host_csr_vals)
                    rt.cudaMemcpy(dev_csr_cols, host_csr_cols)
                    rt.cudaMemcpy(dev_precond, host_precond)
                    rt.cudaMemcpy(dev_diag, host_diag)
                    rt.cudaMemcpy(dev_perm, host_perm)
                host_csr_vals.protection.protect()
                host_csr_cols.protection.protect()
            hoisted: dict[str, object] = {}
            if sub_fixed:
                # The paper's fix: allocate the updateTheta temporaries
                # once, outside the training loop.
                with ctx.frame("main", _ALS, 715):
                    for key, size in self._theta_temps():
                        hoisted[key] = rt.cudaMalloc(size, key)
            if full_fixed:
                with ctx.frame("main", _ALS, 716):
                    hoisted["temp_x"] = rt.cudaMalloc(64 * 1024, "temp_x")
                    hoisted["cg_t1"] = rt.cudaMalloc(32 * 1024, "cg_t1")
                    hoisted["cg_t2"] = rt.cudaMalloc(32 * 1024, "cg_t2")

            for it in range(self.iterations):
                x = self._update_x_phase(ctx, rt, hoisted, host_csr_vals,
                                         host_csr_cols, dev_csr_vals,
                                         dev_csr_cols, ratings, mask,
                                         theta, lam)
                self._cg_phase(ctx, rt, hoisted, host_precond, host_diag,
                               host_perm, dev_precond, dev_diag, dev_perm)
                theta = self._update_theta_phase(ctx, rt, hoisted, ratings,
                                                 mask, x, lam, dev_theta,
                                                 host_theta)

            with ctx.frame("main", _ALS, 995):
                rt.cudaFree(dev_csr_vals)
                rt.cudaFree(dev_csr_cols)
                rt.cudaFree(dev_precond)
                rt.cudaFree(dev_diag)
                rt.cudaFree(dev_perm)
                rt.cudaFree(dev_theta)
                for buf in hoisted.values():
                    rt.cudaFree(buf)

    # ------------------------------------------------------------------
    @staticmethod
    def _theta_temps() -> list[tuple[str, int]]:
        """The 14 updateTheta-phase temporaries (entries 9/10/12..23)."""
        temps = [("theta_A", 96 * 1024), ("theta_B", 96 * 1024),
                 ("theta_C", 64 * 1024)]
        temps += [(f"theta_T{j}", 48 * 1024) for j in range(9)]
        temps += [("theta_D", 64 * 1024), ("theta_E", 64 * 1024)]
        return temps

    def _update_x_phase(self, ctx, rt, hoisted, host_csr_vals, host_csr_cols,
                        dev_csr_vals, dev_csr_cols, ratings, mask, theta,
                        lam) -> np.ndarray:
        """Entries 1–3 of Figure 6 (function 1, als.cpp)."""
        u, cover = self.kernel_unit, self.cover_unit
        full_fixed = self.fix == "full"
        with ctx.frame("updateXWithCGHost", _ALS, 730):
            if not full_fixed:
                with ctx.frame("updateXWithCGHost", _ALS, 738):
                    rt.cudaMemcpy(dev_csr_vals, host_csr_vals)   # entry 1
                with ctx.frame("updateXWithCGHost", _ALS, 739):
                    rt.cudaMemcpy(dev_csr_cols, host_csr_cols)   # entry 2
                with ctx.frame("updateXWithCGHost", _ALS, 745):
                    temp_x = rt.cudaMalloc(64 * 1024, "temp_x")
            else:
                temp_x = hoisted["temp_x"]
            # Real factor update: X = R Θ (ΘᵀΘ + λI)⁻¹ on the "GPU".
            gram = theta.T @ theta + lam * np.eye(self.factors)
            x_new = np.linalg.solve(gram, (ratings @ theta).T).T
            with ctx.frame("updateXWithCGHost", _ALS, 750):
                rt.cudaLaunchKernel(
                    "get_hermitian_x",
                    KernelCost(duration=0.2 * u), writes=[])
            ctx.cpu_work(cover / 3.0, "assemble_x_batches")
            if not full_fixed:
                with ctx.frame("updateXWithCGHost", _ALS, 760):
                    rt.cudaFree(temp_x)                          # entry 3
        return x_new

    def _cg_phase(self, ctx, rt, hoisted, host_precond, host_diag, host_perm,
                  dev_precond, dev_diag, dev_perm) -> None:
        """The elided entries 4–8 (function 2, cg.cu)."""
        u, cover = self.kernel_unit, self.cover_unit
        full_fixed = self.fix == "full"
        with ctx.frame("solve_cg", _CG, 190):
            if not full_fixed:
                with ctx.frame("solve_cg", _CG, 201):
                    rt.cudaMemcpy(dev_precond, host_precond)     # entry 4
                with ctx.frame("solve_cg", _CG, 203):
                    rt.cudaMemcpy(dev_diag, host_diag)           # entry 5
                with ctx.frame("solve_cg", _CG, 205):
                    rt.cudaMemcpy(dev_perm, host_perm)           # entry 6
                with ctx.frame("solve_cg", _CG, 208):
                    cg_t1 = rt.cudaMalloc(32 * 1024, "cg_t1")
                with ctx.frame("solve_cg", _CG, 209):
                    cg_t2 = rt.cudaMalloc(32 * 1024, "cg_t2")
            else:
                cg_t1, cg_t2 = hoisted["cg_t1"], hoisted["cg_t2"]
            with ctx.frame("solve_cg", _CG, 210):
                rt.cudaLaunchKernel("cg_spmv", KernelCost(duration=0.15 * u))
            ctx.cpu_work(cover / 3.0, "cg_setup")
            if not full_fixed:
                with ctx.frame("solve_cg", _CG, 230):
                    rt.cudaFree(cg_t1)                           # entry 7
            with ctx.frame("solve_cg", _CG, 232):
                rt.cudaLaunchKernel("cg_axpy", KernelCost(duration=0.1 * u))
            ctx.cpu_work(cover / 3.0, "cg_update")
            if not full_fixed:
                with ctx.frame("solve_cg", _CG, 240):
                    rt.cudaFree(cg_t2)                           # entry 8
    def _update_theta_phase(self, ctx, rt, hoisted, ratings, mask, x, lam,
                            dev_theta, host_theta) -> np.ndarray:
        """Entries 9–23 of Figure 6 (function 1 again, als.cpp)."""
        u, cover = self.kernel_unit, self.cover_unit
        sub_fixed = self.fix in ("subsequence", "full")
        with ctx.frame("updateThetaWithCGHost", _ALS, 840):
            if not sub_fixed:
                temps: dict[str, object] = {}
                with ctx.frame("updateThetaWithCGHost", _ALS, 850):
                    for key, size in self._theta_temps():
                        if key.startswith("theta_T"):
                            continue  # tail temps allocated at use sites
                        temps[key] = rt.cudaMalloc(size, key)
            else:
                temps = hoisted

            # Real factor update: Θ = Rᵀ X (XᵀX + λI)⁻¹.
            gram = x.T @ x + lam * np.eye(self.factors)
            theta_new = np.linalg.solve(gram, (ratings.T @ x).T).T

            with ctx.frame("updateThetaWithCGHost", _ALS, 852):
                rt.cudaLaunchKernel("get_hermitian_theta",
                                    KernelCost(duration=1.5 * u))
            ctx.cpu_work(cover, "theta_batch_setup")
            if not sub_fixed:
                with ctx.frame("updateThetaWithCGHost", _ALS, 855):
                    rt.cudaFree(temps.pop("theta_A"))            # entry 9
            ctx.cpu_work(cover, "theta_batch_setup2")
            if not sub_fixed:
                with ctx.frame("updateThetaWithCGHost", _ALS, 856):
                    rt.cudaFree(temps.pop("theta_B"))            # entry 10
            with ctx.frame("updateThetaWithCGHost", _ALS, 860):
                rt.cudaLaunchKernel("theta_solve_batched",
                                    KernelCost(duration=8.0 * u))
            if not sub_fixed:
                with ctx.frame("updateThetaWithCGHost", _ALS, 877):
                    rt.cudaDeviceSynchronize()                   # entry 11
                with ctx.frame("updateThetaWithCGHost", _ALS, 878):
                    rt.cudaFree(temps.pop("theta_C"))            # entry 12
            ctx.cpu_work(cover, "theta_copyback_prep")
            for j in range(9):                                   # entries 13-21
                if not sub_fixed:
                    with ctx.frame("updateThetaWithCGHost", _ALS,
                                   888 + 10 * j):
                        temps[f"theta_T{j}"] = rt.cudaMalloc(48 * 1024,
                                                             f"theta_T{j}")
                with ctx.frame("updateThetaWithCGHost", _ALS, 890 + 10 * j):
                    rt.cudaLaunchKernel(f"theta_tail_{j}",
                                        KernelCost(duration=0.5 * u))
                ctx.cpu_work(cover * 0.8, "theta_tail_setup")
                if not sub_fixed:
                    with ctx.frame("updateThetaWithCGHost", _ALS,
                                   891 + 10 * j):
                        rt.cudaFree(temps.pop(f"theta_T{j}"))
            with ctx.frame("updateThetaWithCGHost", _ALS, 982):
                rt.cudaLaunchKernel(
                    "theta_finalize", KernelCost(duration=1.0 * u),
                    writes=[(dev_theta, theta_new)])
            ctx.cpu_work(cover * 0.6, "theta_wrapup")
            if not sub_fixed:
                with ctx.frame("updateThetaWithCGHost", _ALS, 986):
                    rt.cudaFree(temps.pop("theta_D"))            # entry 22
                with ctx.frame("updateThetaWithCGHost", _ALS, 987):
                    rt.cudaFree(temps.pop("theta_E"))            # entry 23

            # Required synchronization: the RMSE reads GPU results.
            with ctx.frame("updateThetaWithCGHost", _ALS, 990):
                rt.cudaMemcpy(host_theta, dev_theta)
            with ctx.frame("updateThetaWithCGHost", _ALS, 992):
                theta_back = np.asarray(
                    host_theta.read()).reshape(self.items, self.factors)
                pred = x @ theta_back.T
                err = mask * (ratings - pred)
                rmse = float(np.sqrt((err ** 2).sum() / max(mask.sum(), 1)))
                self.rmse_history.append(rmse)
            ctx.cpu_work(cover * 2.0, "rmse_bookkeeping")
        return theta_new
