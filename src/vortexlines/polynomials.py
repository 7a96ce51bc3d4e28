"""Complex polynomials in (x, y, z), with plain or time-jet coefficients.

Every analytic solution has the shape psi = P * exp(G), where the prefactor P
and the exponent G are both polynomials in the spatial coordinates whose
coefficients are smooth complex functions of time (G is a quadratic with
diagonal quadratic part).  `Poly3` holds either: while P and G are built,
each coefficient is a second-order `Jet` (value plus first and second time
derivative), and `order(n)` takes the plain polynomial of the n-th time
derivative.  Jets compose, so the lens map (r, t) -> (r / beta, t / beta) of
the Gaussian-carrier families is a substitution of jet polynomials into a
plane-wave prefactor.  A catalog snapshot, `spec.at(consts, t)`, evaluates
P and G at point sets from one coefficient table of all their terms and
orders.  At coordinate arrays that broadcast together, such as grid axes, it
uses one plain `Poly3` per order with `evaluate` and `exp_factors`; exp(G) is
formed as one factor per axis, since G has no cross terms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np


Exponents = tuple[int, int, int]


@dataclass(frozen=True)
class Jet:
    """A complex scalar together with its first two time derivatives."""

    f: complex
    df: complex = 0.0
    d2f: complex = 0.0

    @staticmethod
    def const(value) -> "Jet":
        return Jet(complex(value))

    @staticmethod
    def exp_i(rate: complex, t: float) -> "Jet":
        """exp(rate * t) with its derivatives."""
        value = cmath.exp(rate * t)
        return Jet(value, rate * value, rate * rate * value)

    def __add__(self, other):
        if isinstance(other, Poly3):
            return NotImplemented
        other = _as_jet(other)
        return Jet(self.f + other.f, self.df + other.df, self.d2f + other.d2f)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly3):
            return NotImplemented
        other = _as_jet(other)
        return Jet(self.f - other.f, self.df - other.df, self.d2f - other.d2f)

    def __rsub__(self, other):
        return _as_jet(other) - self

    def __neg__(self):
        return Jet(-self.f, -self.df, -self.d2f)

    def __mul__(self, other):
        if isinstance(other, Poly3):
            return NotImplemented
        other = _as_jet(other)
        return Jet(
            self.f * other.f,
            self.df * other.f + self.f * other.df,
            self.d2f * other.f + 2.0 * self.df * other.df + self.f * other.d2f,
        )

    __rmul__ = __mul__

    def inv(self) -> "Jet":
        g = 1.0 / self.f
        return Jet(g, -self.df * g * g, (2.0 * self.df**2 / self.f - self.d2f) * g * g)

    def log(self) -> "Jet":
        d1 = self.df / self.f
        return Jet(cmath.log(self.f), d1, self.d2f / self.f - d1 * d1)

    def exp(self) -> "Jet":
        value = cmath.exp(self.f)
        return Jet(value, self.df * value, (self.d2f + self.df**2) * value)

    def pow(self, exponent: float) -> "Jet":
        return (float(exponent) * self.log()).exp()


def _as_jet(value) -> Jet:
    if isinstance(value, Jet):
        return value
    return Jet(complex(value))


class Poly3:
    """Polynomial in (x, y, z) whose coefficients are complex numbers or
    `Jet`s.

    Addition merges terms with equal exponents, and it and `order` drop the
    terms whose coefficient is zero.  `constant` and `coordinate` start a jet
    polynomial; `evaluate` and `exp_factors` need plain coefficients (see
    `order`).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Exponents, complex | Jet] = dict(coeffs) if coeffs else {}

    @staticmethod
    def constant(value) -> "Poly3":
        return Poly3({(0, 0, 0): _as_jet(value)})

    @staticmethod
    def coordinate(axis: int) -> "Poly3":
        exps = [0, 0, 0]
        exps[axis] = 1
        return Poly3({tuple(exps): Jet.const(1.0)})

    def order(self, n: int) -> "Poly3":
        """Plain polynomial holding the n-th time derivative of every jet
        coefficient."""
        attr = ("f", "df", "d2f")[n]
        return Poly3({e: c for e, j in self.coeffs.items() if (c := complex(getattr(j, attr)))})

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def diff(self, axis: int) -> "Poly3":
        out: dict[Exponents, complex] = {}
        for exps, c in self.coeffs.items():
            p = exps[axis]
            if p > 0:
                new = list(exps)
                new[axis] = p - 1
                key = tuple(new)
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

    def __mul__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            return Poly3({e: c * other for e, c in self.coeffs.items()})
        out: dict[Exponents, complex | Jet] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prod = c1 * c2
                out[key] = out[key] + prod if key in out else prod
        return Poly3(out)

    __rmul__ = __mul__

    def evaluate(self, *coords) -> np.ndarray:
        """Evaluate at positions of shape (..., 3), or at three coordinate
        arrays x, y, z that broadcast together.

        Each term is built from its lowest-dimensional factor up, and terms
        on the same coordinates are summed before they are added into the
        result: on grid axes shaped (N, 1, 1), (1, N, 1), (1, 1, N) only that
        final sum costs N^3, once per set of coordinates the terms involve.
        """
        axes = x, y, z = coordinates(*coords)
        shape = x.shape if x.shape == y.shape == z.shape else np.broadcast(x, y, z).shape
        # The result is allocated before the power tables it outlives.
        result = np.full(shape, self.coeffs.get((0, 0, 0), 0.0), dtype=complex)
        pows = []
        for axis, coord in enumerate(axes):
            table = [None, coord]
            for _ in range(max((e[axis] for e in self.coeffs), default=0) - 1):
                table.append(table[-1] * coord)
            pows.append(table)
        groups: dict[tuple[int, ...], np.ndarray] = {}
        for exps, c in self.coeffs.items():
            # Zeroth powers are skipped, not multiplied in as arrays of ones.
            used = [axis for axis in range(3) if exps[axis]]
            if not used:
                continue
            factors = [pows[axis][exps[axis]] for axis in used]
            if len(factors) > 1:
                factors.sort(key=np.size)
            term = complex(c) * factors[0]
            for factor in factors[1:]:
                term = term * factor
            key = tuple(used)
            if key in groups:
                groups[key] += term
            else:
                groups[key] = term
        for term in groups.values():
            result += term
        return result

    def exp_factors(self, *coords) -> list:
        """exp of a polynomial without cross terms, at the same positions as
        `evaluate`, as factors whose product it is.

        The axes are grouped while their broadcast stays smaller than the
        positions' shape, and each group's terms take one `evaluate` and one
        exp: on grid axes shaped (N, 1, 1), (1, N, 1), (1, 1, N) that is
        exp(c + p_x + p_y) on (N, N, 1) and exp(p_z) on (1, 1, N), N^2 + N
        exponentials instead of N^3; at a point set it is one exp(p).
        """
        if any(sum(1 for p in exps if p) > 1 for exps in self.coeffs):
            raise ValueError("exp of a polynomial with cross terms does not factor by axis")
        axes = coordinates(*coords)
        size = np.broadcast(*axes).size
        groups: list[list[int]] = [[]]
        for axis in range(3):
            if not any(exps[axis] for exps in self.coeffs):
                continue
            group = groups[-1]
            if group and axes[axis].size < size:
                in_group = [axes[a] for a in group]
                merged = np.broadcast(*in_group, axes[axis]).size
                if merged == size and np.broadcast(*in_group).size < size:
                    group = []
                    groups.append(group)
            group.append(axis)
        factors = []
        for group in groups:
            part = self if len(groups) == 1 else Poly3({
                exps: c for exps, c in self.coeffs.items()
                if any(exps[a] for a in group) or (group is groups[0] and not any(exps))
            })
            on_group = [axes[a] if a in group else 0.0 for a in range(3)]
            factors.append(np.exp(part.evaluate(*on_group)))
        return factors


def coordinates(*coords) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) from one array of positions of shape (..., 3), or from three
    coordinate arrays that broadcast together."""
    if len(coords) == 1:
        points = np.asarray(coords[0], dtype=float)
        return points[..., 0], points[..., 1], points[..., 2]
    x, y, z = coords
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)
