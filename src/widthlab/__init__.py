"""widthlab: numerical laboratory for approximation-width separations.

Subpackages by topic:

- ``separation``: closed-form width lower bounds and multi-scale schedules
  over user-supplied rate constants.
- ``transport``: exact 1-Wasserstein distances between discrete measures on
  the unit cube / flat torus, ball-covering lower bounds, and the L2
  operator-norm surrogate of smoothed evaluation functionals.
- ``barron``: finite two-layer networks, path norms, Rademacher-complexity
  estimation, and the 1D second-derivative norm.
- ``kernels``: spherical random-feature and neural-tangent kernels, exact
  spectra with multiplicities, Funk-Hecke quadrature oracle, Nystrom spectra.
- ``widthprobe``: best constrained L2 approximation of Lipschitz targets by
  path-norm-bounded networks, with decay-rate fits.
- ``cli``: one executable exposing the above as subcommands.
"""

__version__ = "0.1.0"
