"""Eigenvalues and boundary traces on the two supported geometries.

The interval with unit coefficients has the classic spectrum n^2 with
sine modes, so everything downstream can be cross-checked by hand.  The
rectangle shows the machinery generalizing: products of sines, boundary
traces on a chosen side, and Weyl-rate growth of the eigenvalues.
"""

import numpy as np

from memwave import DomainSpec, compute_eigenpairs, trace_diagnostics

PI = np.pi


def main():
    dom = DomainSpec("interval", (PI,))
    modes = compute_eigenpairs(dom, 8, alpha=0.0)
    print("interval(pi), control boundary at x=pi")
    print("  n  lambda^2   trace at x=pi   trace / beta_n")
    for n, lam, trace, beta in zip(modes.index[:5], modes.lambda_sq,
                                   modes.trace[:, 0], modes.beta.real):
        print(f"  {n}  {lam:8.3f}   {trace: .6f}       {trace / beta: .6f}")
    print("  (the scaled traces alternate in sign and stay bounded: the")
    print("   normal derivative of sin(nx) at pi over n is "
          "sqrt(2/pi)*(-1)^n)")

    rect = DomainSpec("rectangle", (PI, PI), gamma_subset=("right",))
    rmodes = compute_eigenpairs(rect, 40, alpha=0.0)
    lam = rmodes.lambda_sq
    n = np.arange(1, 41)
    slope = np.polyfit(np.log(n[9:]), np.log(lam[9:]), 1)[0]
    print(f"\nrectangle(pi x pi): first eigenvalues {lam[:6]}")
    print(f"  growth of lambda_n^2 ~ n^s with s = {slope:.3f}"
          f"  (Weyl in d=2 predicts 1)")
    diag = trace_diagnostics(rmodes)
    print(f"  trace diagnostics: {diag['flagged']!r} flagged of {len(rmodes)}")


if __name__ == "__main__":
    main()
