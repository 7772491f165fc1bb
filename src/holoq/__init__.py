"""Verification suite for GJMS-type operator families, Q-curvatures and
holographic volume coefficients.

Layers, bottom up:

  lambda_algebra  exact rationals, polynomials and rational functions in the
                  spectral parameter lambda
  series          truncated formal power series over exact coefficient rings
  hypergeom       terminating hypergeometric sums and classical identities
  sphere          exact round-sphere model: v-coefficients, T/P families on
                  constants, residue polynomials, master relations
  grid, presets,  periodic 2-torus charts and stencils, seeded test metrics,
  conformal       conformally flat metrics in background dimension n,
                  discrete curvature and operators
  families        lambda-dependent operator families T2, T4, P_2N on grids
  holographic     holographic coefficients, Q-curvature routes, master checks,
                  the critical n=4 suite, conformal covariance
  reports, cli    check verdicts, run configuration, deterministic
                  JSON/markdown output, command line
"""

__version__ = "0.1.0"

from .lambda_algebra import LambdaPoly, LambdaRat, pochhammer

__all__ = ["LambdaPoly", "LambdaRat", "pochhammer", "__version__"]
