"""zetalab: exact symbolic and numeric laboratory for local GL(2) zeta identities.

Subpackages
-----------
symring   exact Laurent-rational arithmetic with one quadratic extension
locgl2    closed-form local data: coset masses, classical vectors, transition
          coefficients, intertwining eigenvalues, local zeta values and ratios
oracle    independent brute-force checks: coset enumeration, shell summation,
          linear-system solving
mellin    smooth cutoff, its Mellin transform via integration by parts,
          truncation windows
lfunc     Dirichlet characters, central L-values by smoothed approximate
          functional equation, Hurwitz-zeta oracle, conductor-exponent scans
cli       batch commands: verify | oracle | lvalue | scan | mellin

Import the modules themselves (from zetalab import lfunc); the numeric ones,
mellin and lfunc, load no sympy.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
