"""Modal responses under a decaying memory kernel, checked two ways.

Every mode's response Z is computed twice: a direct second-order march
of the forced integro-differential equation, and a variation-of-constants
route that rebuilds it from the homogeneous response z and its
convolutions with the kernel N and its derivative N'.  The gap between
them, over its scheme allowance, is a free accuracy certificate that
compute_responses keeps for every mode of the batch.  The exact S-frame
rows S_n = exp(-alpha t) Z_n (memwave.exact, residue sums over the roots
of each mode's characteristic polynomial) then show the march's phase
error growing with the mode, and the high modes collapsing onto pure
oscillations at rate 1/beta, which is the whole reason the control
theory of the memory system can lean on the memoryless one.
"""

import numpy as np

from memwave import (DomainSpec, KernelSpec, asymptotic_residual,
                     compute_eigenpairs, compute_responses, make_grid,
                     normalize)
from memwave.exact import s_frame_rows

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
    S = s_frame_rows(ker.terms, ker.alpha, modes, ker.t)
    marched = np.exp(-ker.alpha * ker.t) * (
        resp.z + resp.Npz + 1j * modes.beta[:, None] * resp.Nz)
    print("\nper mode: two-route Z gap over its allowance, and the marched "
          "S against the exact one:")
    for n, ratio, gap in zip(modes.index, resp.z_gap_ratio,
                             np.max(np.abs(marched - S), axis=1)):
        print(f"  n={n:2d}: {ratio:.2e}  {gap:.2e}")

    usable = modes.take(slice(4, None))
    fit = asymptotic_residual(usable, S[4:], ker.h)
    print("\nsup |S_n - e^(i beta_n t)| for n = 5..16:")
    for n, r in zip(fit["indices"], fit["residuals"]):
        bar = "#" * max(1, int(r / fit["residuals"][0] * 40))
        print(f"  n={n:2d}: {r:.3e} {bar}")
    print(f"log-log slope vs beta: {fit['slope']:.3f}  (theory: -1)")


if __name__ == "__main__":
    main()
