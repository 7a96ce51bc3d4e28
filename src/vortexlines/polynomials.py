"""Complex polynomials in (x, y, z), and in a carrier's clock s.

Every analytic solution has the shape psi = P * exp(G), where the prefactor P
and the exponent G are polynomials in the spatial coordinates whose
coefficients are functions of time.  Each carrier has a clock s(t), one scalar
function of time, and every such coefficient is a polynomial in
s, so P and G are polynomials in (x, y, z, s): `Poly3.coordinate(3)` is s.
A catalog spec builds them once, by this class's arithmetic, and its snapshot
`spec.at(consts, t)` reads P and G, at point sets and on grids, from one
coefficient table at s(t).  `evaluate` is the plain term-by-term sum of a
polynomial in (x, y, z), for a prefactor (`catalog.prefactor`) and as the
reference the table is tested against.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np


#: A term's exponents: (i, j, k) of x, y and z, with a fourth entry n >= 1
#: for a power of s.  A polynomial without s keeps three exponents a term.
Exponents = tuple[int, ...]


class Poly3:
    """Polynomial in (x, y, z), and in s, with complex coefficients.

    Addition merges terms with equal exponents and drops the terms whose
    coefficient is zero.  `evaluate` needs a polynomial in (x, y, z) only.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Exponents, complex] = dict(coeffs) if coeffs else {}

    @staticmethod
    def constant(value) -> "Poly3":
        return Poly3({(0, 0, 0): complex(value)})

    @staticmethod
    def coordinate(axis: int) -> "Poly3":
        """x, y or z for axis 0, 1 or 2, and s for axis 3."""
        exps = [0] * max(3, axis + 1)
        exps[axis] = 1
        return Poly3({tuple(exps): 1.0})

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def diff(self, axis: int) -> "Poly3":
        out: dict[Exponents, complex] = {}
        for exps, c in self.coeffs.items():
            p = exps[axis] if axis < len(exps) else 0
            if p > 0:
                new = list(exps)
                new[axis] = p - 1
                key = tuple(new[:3] if new[3:] == [0] else new)
                out[key] = out.get(key, 0.0) + p * c
        return Poly3(out)

    def __add__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out[exps] + c if exps in out else c
        return Poly3({e: c for e, c in out.items() if c != 0})

    __radd__ = __add__

    def __sub__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        return self + Poly3({e: -c for e, c in other.coeffs.items()})

    def __rsub__(self, other) -> "Poly3":
        return Poly3.constant(other) - self

    def __mul__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            return Poly3({e: c * other for e, c in self.coeffs.items()})
        out: dict[Exponents, complex] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
                prod = c1 * c2
                out[key] = out[key] + prod if key in out else prod
        return Poly3(out)

    __rmul__ = __mul__

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at positions of shape (..., 3), as a plain sum over the
        terms."""
        points = np.asarray(points, dtype=float)
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        result = np.zeros(points.shape[:-1], dtype=complex)
        for (i, j, k), c in self.coeffs.items():
            result += complex(c) * x**i * y**j * z**k
        return result
