"""Verification suite for GJMS-type operator families, Q-curvatures and
holographic volume coefficients.

Layers, bottom up:

  lambda_algebra  exact rationals, polynomials and rational functions in the
                  spectral parameter lambda
  series          truncated formal power series over exact coefficient rings
  hypergeom       terminating hypergeometric sums and classical identities
  sphere          exact round-sphere model: v-coefficients, T families on
                  constants, residue polynomials, master relations
  grid, presets,  periodic 2-torus charts with stencil or spectral derivatives,
  conformal       seeded conformally flat metrics in dimension n, curvature
                  and operators
  families        every T_2N and P_2N by one recursion, the holographic formula
  holographic     torus Q-curvatures, master checks, the flat-base checks,
                  the critical n=4 suite, conformal covariance
  reports, cli    check verdicts, run configuration, deterministic
                  JSON/markdown output, command line
  workers         the tasks of cli's run plan (suites, torus dimensions) run
                  on the usable CPUs in forked processes; no suite forks on
                  its own
"""

__version__ = "0.1.0"

from .lambda_algebra import LambdaPoly, LambdaRat, pochhammer

__all__ = ["LambdaPoly", "LambdaRat", "pochhammer", "__version__"]
