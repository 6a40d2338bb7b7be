"""Below the critical horizon the solver refuses, with numbers attached."""

import numpy as np

from memwave import (DomainSpec, KernelSpec, NotControllableError,
                     TargetState, build_moment_problem, compute_eigenpairs,
                     compute_responses, make_grid, normalize, synthesize,
                     viscoelastic_family)

PI = np.pi
K = 4


def attempt(T):
    grid = make_grid(T, 5e-3)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), grid)
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), K,
                               alpha=ker.alpha)
    fam = viscoelastic_family(compute_responses(ker, pairs))
    target = TargetState(np.eye(K)[0], np.zeros(K), K)
    return synthesize(build_moment_problem(fam, target))


def main():
    print("same synthesis at two horizons, critical time is 2*pi\n")
    sig = attempt(2.5 * PI)
    print(f"T = 2.5*pi: ok, condition {sig.condition:.1f}, "
          f"residual {sig.residual_max:.1e}")
    try:
        attempt(0.5 * PI)
    except NotControllableError as e:
        print("T = 0.5*pi: refused")
        print(f"  {e}")
        print(f"  measured lower frame bound: {e.frame_lower:.3e}")
        print("  (the CLI maps this failure to exit code 4)")


if __name__ == "__main__":
    main()
