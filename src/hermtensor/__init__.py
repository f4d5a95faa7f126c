"""Orthogonal tensor Hermite polynomials in 3 and 6 dimensions.

Symmetric-tensor storage, the three-term basis recursion in both the
physicist and probabilist conventions, Gauss-Hermite projection of
velocity distributions, scaling and translation of the basis, and the
two-species center-of-mass / relative rotation machinery.
"""
from . import hermite, mixed6, quadrature, symtensor, transforms
from .hermite import *
from .mixed6 import *
from .quadrature import *
from .symtensor import *
from .transforms import *

__version__ = "0.1.0"

__all__ = symtensor.__all__ + hermite.__all__ + quadrature.__all__ + transforms.__all__ + mixed6.__all__
