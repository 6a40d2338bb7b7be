"""Sharp control time read off the Gram lower bound.

A boundary control reaching K modes exists exactly when the associated
exponential-type family keeps a positive lower frame bound m_N.  For the
interval of length pi the critical horizon is 2*pi.  The sweep below
shows m_N collapsing through machine zero below the critical time and
plateauing above it, and it shows the memory system inheriting the same
transition point as its memoryless comparator: the two curves cross any
fixed threshold within one sweep step of each other.

Both families are built once, on one grid to the last horizon, and
gram_sweep reads the frame bounds of every shorter horizon of both from
one pass over that grid.  The step divides the horizon spacing, so every
horizon is a grid point.
"""

import math

import numpy as np

from memwave import (DomainSpec, KernelSpec, TimeGrid, compute_eigenpairs,
                     compute_responses, gram_sweep, normalize,
                     telegraph_family, viscoelastic_family)

PI = np.pi
K = 5


def main():
    quarters = np.arange(4, 13)                  # horizons q*pi/4, q = 4..12
    spacing = PI / 4
    h = spacing / math.ceil(spacing / 1e-2)      # at most 1e-2, divides pi/4
    steps = [round(q * spacing / h) for q in quarters]
    grid = TimeGrid(steps[-1] * h, steps[-1], h)

    modes_t = compute_eigenpairs(DomainSpec("interval", (PI,)), K, 0.0)
    tel = telegraph_family(modes_t, 0.0, grid)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), grid)
    modes_v = compute_eigenpairs(DomainSpec("interval", (PI,)), K,
                                 alpha=ker.alpha)
    vis = viscoelastic_family(compute_responses(ker, modes_v))

    print(f"lower frame bound m_N of the {2 * K}-member families, h = {h:.4g}")
    print("      T/pi   memoryless      with exp(-t) kernel")
    for q, rt, rv in zip(quarters, *gram_sweep((tel, vis), steps)):
        mark = "  <- critical horizon" if q == 8 else ""
        print(f"    {q / 4:6.2f}   {rt.m_N:.3e}       {rv.m_N:.3e}{mark}")
    print("\nboth curves fall by orders of magnitude below T = 2*pi and")
    print("flatten above it; the memory kernel rescales the plateau but")
    print("does not move the transition")


if __name__ == "__main__":
    main()
