"""Modal responses under a decaying memory kernel, checked two ways.

Every mode's response Z is computed twice: a direct second-order march
of the forced integro-differential equation, and a variation-of-constants
route that rebuilds it from the homogeneous response z and its
convolutions with the kernel N and its derivative N'.  The gap between
them, over its scheme allowance, is a free accuracy certificate that
compute_responses keeps for every mode of the batch.  The refined
representation (one refined_S batch over the high modes) then shows them
collapsing onto pure oscillations at rate 1/beta, which is the whole
reason the control theory of the memory system can lean on the
memoryless one.
"""

import numpy as np

from memwave import (DomainSpec, KernelSpec, asymptotic_residual,
                     compute_eigenpairs, compute_responses, make_grid,
                     normalize, refined_S)

PI = np.pi


def main():
    grid = make_grid(PI, 1e-2)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), grid)
    print(f"kernel exp(-t) on [0, pi], h = {grid.h:.4f}")
    print(f"  normalization shift gamma = {ker.gamma}, alpha = {ker.alpha}")

    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 16,
                               alpha=ker.alpha)
    resp = compute_responses(ker, modes)
    print("\ntwo-route Z gap per mode (march vs variation of constants), "
          "over its allowance:")
    for n, ratio in zip(resp.modes.index, resp.z_gap_ratio):
        print(f"  n={n:2d}: {ratio:.2e}")

    usable = modes.take(slice(4, None))
    fit = asymptotic_residual(usable, refined_S(ker, usable), ker.h)
    print("\nsup |S_n - e^(i beta_n t)| for n = 5..16:")
    for n, r in zip(fit["indices"], fit["residuals"]):
        bar = "#" * max(1, int(r / fit["residuals"][0] * 40))
        print(f"  n={n:2d}: {r:.3e} {bar}")
    print(f"log-log slope vs beta: {fit['slope']:.3f}  (theory: -1)")


if __name__ == "__main__":
    main()
