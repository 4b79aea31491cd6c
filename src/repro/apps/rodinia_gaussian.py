"""Rodinia Gaussian — GPU Gaussian elimination benchmark (UVA).

The paper's fourth case study (§5.1): Rodinia's Gaussian benchmark
calls the deprecated ``cudaThreadSynchronize`` after every elimination
step.  NVProf attributes ~95% of execution to that call — yet Diogenes
estimated only 2.2% recoverable, because the application is GPU-bound:
the kernels the synchronization waits on must run regardless, and the
CPU has almost nothing to overlap (Figure 4's *small-benefit* case in
the wild).  The paper's fix — simply deleting the call — recovered
2.1%, confirming the estimate and exposing how misleading the
resource-consumption view is.

The elimination is real: per step, the ``Fan1``/``Fan2`` kernels'
arithmetic is carried out on the host shadow of the device matrix, and
after the final D2H transfer the CPU back-substitutes and verifies
``A @ x ≈ b``.

``fixed=True`` removes the per-step ``cudaThreadSynchronize``.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Workload
from repro.apps.data import gaussian_matrix
from repro.runtime.context import ExecutionContext
from repro.sim.costs import KernelCost

_SRC = "gaussian.cu"


class RodiniaGaussian(Workload):
    """The Rodinia Gaussian workload model."""

    name = "rodinia-gaussian"
    description = "Gaussian elimination with per-step cudaThreadSynchronize"

    def __init__(self, n: int = 64, kernel_unit: float = 1.0e-3,
                 fixed: bool = False, seed: int = 3) -> None:
        self.n = n
        self.kernel_unit = kernel_unit
        self.fixed = fixed
        self.seed = seed

    def run(self, ctx: ExecutionContext) -> None:
        rt = ctx.cudart
        n = self.n
        u = self.kernel_unit
        a, b = gaussian_matrix(n, self.seed)
        m = np.zeros((n, n))
        aug = a.copy()
        rhs = b.copy()

        with ctx.frame("main", _SRC, 310):
            host_a = ctx.host_array((n, n), label="a")
            host_b = ctx.host_array(n, label="b")
            host_a.write(a)
            host_b.write(b)
            dev_a = rt.cudaMalloc(host_a.nbytes, "m_cuda")
            dev_b = rt.cudaMalloc(host_b.nbytes, "b_cuda")
            dev_m = rt.cudaMalloc(host_a.nbytes, "mult_cuda")

            with ctx.frame("ForwardSub", _SRC, 340):
                rt.cudaMemcpy(dev_a, host_a)
                rt.cudaMemcpy(dev_b, host_b)

            with ctx.frame("ForwardSub", _SRC, 350):
                for t in range(n - 1):
                    # Real elimination arithmetic (the kernels' effect).
                    rows = slice(t + 1, n)
                    m[rows, t] = aug[rows, t] / aug[t, t]
                    aug[rows, t:] -= np.outer(m[rows, t], aug[t, t:])
                    rhs[rows.start:] -= m[rows.start:, t] * rhs[t]

                    remaining = (n - t) / n
                    with ctx.frame("ForwardSub", _SRC, 358):
                        rt.cudaLaunchKernel(
                            "Fan1", KernelCost(duration=0.25 * u * remaining))
                    with ctx.frame("ForwardSub", _SRC, 361):
                        rt.cudaLaunchKernel(
                            "Fan2",
                            KernelCost(duration=0.75 * u * remaining ** 2),
                            writes=[(dev_m, m), (dev_a, aug)])
                    if not self.fixed:
                        with ctx.frame("ForwardSub", _SRC, 363):
                            rt.cudaThreadSynchronize()  # the problem

            with ctx.frame("main", _SRC, 380):
                rt.cudaLaunchKernel("finalize_rhs", KernelCost(duration=0.2 * u),
                                    writes=[(dev_b, rhs)])
                out_a = ctx.host_array((n, n), label="a_out")
                out_b = ctx.host_array(n, label="b_out")
                rt.cudaMemcpy(out_a, dev_a)
                rt.cudaMemcpy(out_b, dev_b)

            with ctx.frame("BackSub", _SRC, 402):
                tri = np.asarray(out_a.read()).reshape(n, n)
                vec = np.asarray(out_b.read()).copy()
                x = np.zeros(n)
                for i in range(n - 1, -1, -1):
                    x[i] = (vec[i] - tri[i, i + 1 :] @ x[i + 1 :]) / tri[i, i]
                self.solution = x
                self.residual = float(np.linalg.norm(a @ x - b))
                ctx.cpu_work(50e-6, "print_solution")

            with ctx.frame("main", _SRC, 420):
                rt.cudaFree(dev_a)
                rt.cudaFree(dev_b)
                rt.cudaFree(dev_m)
