"""Construct vortex solutions by differentiating a carrier with respect to k.

A polynomial P(x, y, z) applied as P(-i d/dk) to a carrier wave function
exp(i k.r + ...) brings down one position factor per differentiation, so the
result is P times the carrier plus the quantum corrections that make it an
exact solution.  Here the k-derivatives are taken numerically with high-order
central finite differences; this gives an oracle for the closed-form families
that shares no algebra with them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .catalog import SolutionSpec, WaveVector, amplitude
from .constants import PhysicalConstants
from .errors import SpecValidationError
from .polynomials import Poly3

K_STEP_FACTOR = 1e-2

#: Highest prefactor degree the stencils are sized for.
MAX_DEGREE = 4


def fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at 0.

    Solves the moment conditions sum_j w_j o_j^q = q! [q == order] for the
    given stencil offsets (in units of the step; divide by h**order on use).
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    if order >= n:
        raise SpecValidationError("stencil too small for requested derivative")
    moments = np.vander(offsets, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(moments, rhs)


def _stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric central stencil with at least 4th-order accuracy."""
    half = (order + 5) // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    return offsets, fd_weights(offsets, order)


def generate_from_polynomial(
    carrier: SolutionSpec,
    poly: Poly3,
    consts: PhysicalConstants,
    r,
    t: float,
) -> np.ndarray:
    """Apply P(-i d/dk) to the carrier numerically and evaluate at (r, t)."""
    if not (isinstance(carrier, SolutionSpec) and carrier.is_bare):
        raise SpecValidationError(
            f"{type(carrier).__name__} is not a supported generating carrier"
        )
    if any(p < 0 for exps in poly.coeffs for p in exps):
        raise SpecValidationError(f"negative exponent in {sorted(poly.coeffs)}")
    # The stencils differentiate along k_x, k_y and k_z only: P is in (x, y, z).
    if any(any(exps[3:]) for exps in poly.coeffs):
        raise SpecValidationError(
            f"power of s, not a polynomial in (x, y, z): {sorted(poly.coeffs)}"
        )
    if poly.degree() > MAX_DEGREE:
        raise SpecValidationError(
            f"prefactor degree {poly.degree()} exceeds maximum {MAX_DEGREE}"
        )
    r = np.asarray(r, dtype=float)
    k_step = K_STEP_FACTOR / carrier.length_scale(consts)
    base_k = carrier.k.as_array()

    result = np.zeros(r.shape[:-1], dtype=complex)
    for exps, coeff in poly.coeffs.items():
        # The tensor product of the per-axis stencils, x's varying fastest.
        axes = [a for a in (2, 1, 0) if exps[a] > 0]
        term = np.zeros(r.shape[:-1], dtype=complex)
        for shifts in itertools.product(*(zip(*_stencil(exps[a])) for a in axes)):
            k = base_k.copy()
            for a, (offset, _) in zip(axes, shifts):
                k[a] += offset * k_step
            shifted = dataclasses.replace(carrier, k=WaveVector(*k))
            term += math.prod(w for _, w in shifts) * amplitude(shifted, consts, r, t)
        total_order = sum(exps)
        result += coeff * (-1j) ** total_order * term / k_step**total_order
    return result
