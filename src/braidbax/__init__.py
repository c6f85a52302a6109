"""Exact spectral analysis and Baxterisation of small braid matrices.

The package works over the field of complex rational functions in a
fixed set of commuting symbols (coefficients in the Gaussian rationals,
Laurent monomials allowed), so every verification here is an identity,
not a numerical approximation.  The submodules layer as follows:

- scalar, parser: the exact scalar field and its round-tripping grammar
- linalg: square matrices, polynomials, the built-in matrices
- spectral: roots, Lagrange projectors, diagonalizer conjugation
- cases: the two built-in analysis cases with their published constants
- ybe: braid-equation residuals, parameterised families, the
  combination calculus for the two-parameter family
- funceq: the scalar composition laws behind the parameter choices
- ncplane: quadratic coordinate/differential relation derivation
- verify, cli: the end-to-end suite and its command-line front end
"""

from . import cases, funceq, linalg, ncplane, parser, scalar, spectral, verify, ybe
from .cases import *
from .funceq import *
from .linalg import *
from .ncplane import *
from .parser import *
from .scalar import *
from .spectral import *
from .verify import *
from .ybe import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (cases, funceq, linalg, ncplane, parser, scalar, spectral, verify, ybe)
    for name in module.__all__
)
