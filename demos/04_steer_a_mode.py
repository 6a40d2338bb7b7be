"""Full round trip: synthesize a boundary control, then verify it.

Target: put all the energy into the first mode's position and stop it,
starting from rest, over a horizon comfortably above the critical time.
The minimum-norm control comes out of the moment problem; an independent
forward simulation (convolution route, with spillover modes tracked
beyond the controlled band) confirms the final state.
"""

import numpy as np

from memwave import (DomainSpec, KernelSpec, TargetState,
                     achieved_coefficients, build_moment_problem,
                     compute_eigenpairs, compute_responses, make_grid,
                     normalize, simulate_convolution, synthesize,
                     viscoelastic_family)

PI = np.pi
K, K_SIM = 4, 12


def main():
    grid = make_grid(2.5 * PI, 5e-3)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), grid)
    resp = compute_responses(ker, compute_eigenpairs(
        DomainSpec("interval", (PI,)), K_SIM, alpha=ker.alpha))

    target = TargetState(np.eye(K)[0], np.zeros(K), K)
    head = resp.head(K)
    fam = viscoelastic_family(head)
    sig = synthesize(build_moment_problem(fam, target))
    print(f"synthesized control on [0, {grid.T:.4f}] for target e_1")
    print(f"  members {fam.count}, Gram condition {sig.condition:.1f}, "
          f"m_N {sig.frame_lower:.3f}")
    print(f"  moment residual {sig.residual_max:.2e}, "
          f"factor gap {sig.factor_gap:.2e}, L2 norm {sig.norm:.3f}")

    # the simulator runs every mode of the batch, 1..K_SIM
    res = simulate_convolution(resp, ker, sig)
    xi, eta = achieved_coefficients(res)
    print("\nforward simulation, achieved vs wanted:")
    print("  n   xi achieved    eta achieved")
    for n in range(1, K + 1):
        print(f"  {n}   {xi[n - 1]: .6f}     {eta[n - 1]: .6f}")
    err = np.linalg.norm(np.r_[xi[:K] - target.xi, eta[:K] - target.eta])
    print(f"  controlled-band error {err:.2e}, "
          f"spillover energy in modes {K + 1}..{K_SIM}: {res.tail_energy:.3f}")


if __name__ == "__main__":
    main()
