"""Local vortex geometry: flow velocity, circulation, winding, line velocity.

All operations accept either a catalog solution spec or a bare callable
`field(points) -> complex array` (for constructed test fields); only the
projective content of the wave function enters any result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .catalog import SolutionSpec
from .constants import PhysicalConstants
from .errors import (
    AmbiguousWindingError,
    DegenerateVortexError,
    NotOnLineError,
    SpecValidationError,
    VortexCoreError,
)

#: Hard cap on adaptive contour refinement (doublings of the sample count).
REFINEMENT_CAP = 6

#: |psi| below this fraction of the local gradient scale counts as "on a zero".
CORE_FLOOR = 1e-9


@dataclass(frozen=True)
class Contour:
    """A circle along which phase and velocity are integrated."""

    center: tuple[float, float, float]
    normal: tuple[float, float, float]
    radius: float
    samples: int = 64

    def __post_init__(self):
        if not (0 < self.radius < math.inf):
            raise SpecValidationError("contour radius must be finite and > 0")
        if not isinstance(self.samples, numbers.Integral) or self.samples < 16 or self.samples % 2:
            raise SpecValidationError("contour samples must be an even integer >= 16")
        center, n = (np.asarray(v, dtype=float) for v in (self.center, self.normal))
        if center.shape != (3,) or n.shape != (3,):
            raise SpecValidationError("contour center and normal must have 3 entries each")
        if not np.isfinite(center).all():
            raise SpecValidationError("contour center must be finite")
        if not np.isfinite(n).all():
            raise SpecValidationError("contour normal must be finite")
        norm = np.linalg.norm(n)
        if not norm > 0:
            raise SpecValidationError("contour normal must be nonzero")
        object.__setattr__(self, "center", tuple(float(c) for c in center))
        object.__setattr__(self, "normal", tuple(n / norm))

    def points(self, samples: int | None = None) -> np.ndarray:
        """samples+1 positions around the circle; last point repeats the first.

        Traversal is right-handed about the normal.
        """
        n = np.asarray(self.normal)
        seed = np.array([1.0, 0.0, 0.0])
        if abs(n @ seed) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        e1 = seed - (seed @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        theta = np.linspace(0.0, 2.0 * math.pi, (samples or self.samples) + 1)
        circle = (
            np.asarray(self.center)
            + self.radius * np.outer(np.cos(theta), e1)
            + self.radius * np.outer(np.sin(theta), e2)
        )
        circle[-1] = circle[0]
        return circle


@dataclass(frozen=True)
class LocalVortexData:
    """Geometry of the flow in the plane normal to a vortex line point."""

    w: tuple[complex, complex, complex]
    tangent: tuple[float, float, float]
    chi: float
    winding_sign: int


def _field_of(spec_or_field, consts, t):
    if isinstance(spec_or_field, SolutionSpec):
        snapshot = spec_or_field.at(consts, t)
        return lambda pts: snapshot.on(pts).psi
    if callable(spec_or_field):
        return spec_or_field
    raise SpecValidationError("expected a solution spec or a callable field")


def _default_potential(spec_or_field, consts, vector_potential):
    if vector_potential is not None:
        return vector_potential
    if isinstance(spec_or_field, SolutionSpec) and spec_or_field.equation == "magnetic":
        half_B = 0.5 * spec_or_field.B

        def symmetric_gauge(points):
            points = np.asarray(points, dtype=float)
            out = np.zeros(points.shape)
            out[..., 0] = -half_B * points[..., 1]
            out[..., 1] = half_B * points[..., 0]
            return out

        return symmetric_gauge
    return None


def flow_velocity(
    spec: SolutionSpec,
    consts: PhysicalConstants,
    r,
    t: float,
    vector_potential=None,
) -> np.ndarray:
    """Hydrodynamic velocity v = (hbar/m) Im(psi* grad psi)/|psi|^2 - (e/m) A."""
    field = spec.at(consts, t).on(r)
    psi, grad = field.psi, field.grad
    scale = np.linalg.norm(grad, axis=-1) * spec.length_scale(consts)
    density = np.abs(psi) ** 2
    if np.any(np.abs(psi) <= CORE_FLOOR * scale):
        raise VortexCoreError("flow velocity requested at a wave-function zero")
    v = (consts.hbar / consts.mass) * np.imag(np.conj(psi)[..., None] * grad)
    v /= density[..., None]
    vector_potential = _default_potential(spec, consts, vector_potential)
    if vector_potential is not None:
        potential = np.asarray(vector_potential(np.asarray(r, dtype=float)))
        v = v - (consts.charge / consts.mass) * potential
    return v


def _on_doubled(evaluate, points: np.ndarray, known: np.ndarray | None) -> np.ndarray:
    """evaluate(points), where `known` holds its values at the even points,
    the nodes of the rule before a doubling (None before the first): only the
    new odd points are evaluated, and interleaved with the known values."""
    if known is None:
        return evaluate(points)
    new = evaluate(points[1::2])
    values = np.empty((len(points),) + new.shape[1:], dtype=new.dtype)
    values[0::2], values[1::2] = known, new
    return values


def _unwrapped_increments(field, contour: Contour) -> np.ndarray:
    """Nearest-branch phase increments around the contour, adaptively refined."""
    samples, vals = contour.samples, None
    for _ in range(REFINEMENT_CAP + 1):
        vals = _on_doubled(lambda p: np.asarray(field(p), dtype=complex),
                           contour.points(samples), vals)
        if np.any(vals == 0):
            raise AmbiguousWindingError("contour passes through a zero")
        inc = np.diff(np.angle(vals))
        inc = np.mod(inc + math.pi, 2.0 * math.pi) - math.pi
        if np.all(np.abs(inc) < 0.5 * math.pi):
            return inc
        samples *= 2
    raise AmbiguousWindingError(
        f"phase increments still >= pi/2 after {REFINEMENT_CAP} refinements"
    )


def winding_number(spec_or_field, consts: PhysicalConstants, contour: Contour, t: float = 0.0) -> int:
    """Total phase change around the contour divided by 2*pi."""
    field = _field_of(spec_or_field, consts, t)
    total = float(np.sum(_unwrapped_increments(field, contour)))
    n = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * n) > 0.25 * math.pi:
        raise AmbiguousWindingError(f"unwrapped phase {total} is not near a multiple of 2*pi")
    return int(n)


def circulation(
    spec_or_field,
    consts: PhysicalConstants,
    contour: Contour,
    t: float = 0.0,
    vector_potential=None,
) -> float:
    """Line integral of the flow velocity around the contour.

    The gradient-of-phase part is accumulated exactly from unwrapped phase
    increments; the vector-potential part is the trapezoid sum of
    `_line_integral`.
    """
    field = _field_of(spec_or_field, consts, t)
    gamma = (consts.hbar / consts.mass) * float(np.sum(_unwrapped_increments(field, contour)))
    vector_potential = _default_potential(spec_or_field, consts, vector_potential)
    if vector_potential is not None:
        gamma -= (consts.charge / consts.mass) * _line_integral(
            lambda p: np.asarray(vector_potential(p), dtype=float),
            contour,
            contour.samples,
        )
    return gamma


def _line_integral(vector_field, contour: Contour, samples: int) -> float:
    """Trapezoid rule for the line integral of a vector field around the circle.

    The N nodes are equally spaced in angle, each weighted 2*pi/N, with the
    circle's exact tangent dr/dtheta = n x (r - center).  The integrand is
    periodic and smooth in the angle, so the sum converges geometrically in
    N (Trefethen & Weideman, SIAM Rev. 56:385, 2014).  The sum over every
    other node is the rule with N/2 nodes; N doubles until the two agree,
    and each doubling evaluates the field at the N new nodes only.
    """
    center, normal = np.asarray(contour.center), np.asarray(contour.normal)

    def integrand(pts):
        return np.einsum("ij,ij->i", vector_field(pts), np.cross(normal, pts - center))

    terms = None
    for _ in range(REFINEMENT_CAP + 1):
        terms = _on_doubled(integrand, contour.points(samples)[:-1], terms)
        weight = 2.0 * math.pi / samples
        fine, coarse = weight * float(np.sum(terms)), 2.0 * weight * float(np.sum(terms[::2]))
        if abs(fine - coarse) <= 1e-12 * max(abs(fine), 1.0):
            break
        samples *= 2
    return fine


def circulation_from_velocity(
    spec: SolutionSpec,
    consts: PhysicalConstants,
    contour: Contour,
    t: float = 0.0,
    vector_potential=None,
) -> float:
    """Trapezoid-rule line integral of flow_velocity around the contour.

    Independent route to the circulation: no phase unwrapping is involved,
    only pointwise velocities.
    """
    return _line_integral(
        lambda pts: flow_velocity(
            spec, consts, pts, t, vector_potential=vector_potential
        ),
        contour,
        contour.samples,
    )


def linearized_field(w, center):
    """The first-order model psi(r) = w . (r - center) of a vortex zero."""
    w = np.asarray(w, dtype=complex)
    center = np.asarray(center, dtype=float)
    return lambda pts: (np.asarray(pts, dtype=float) - center) @ w


def _on_line_scale(spec, consts, grad):
    return float(np.linalg.norm(grad)) * spec.length_scale(consts)


def w_vector(
    spec: SolutionSpec, consts: PhysicalConstants, point_on_line, t: float
) -> LocalVortexData:
    """Amplitude gradient and derived local geometry at a certified line point."""
    return _vortex_data(spec, consts, spec.at(consts, t).on(point_on_line))


def _vortex_data(spec: SolutionSpec, consts: PhysicalConstants, field) -> LocalVortexData:
    """`w_vector` from the field values at the point, from which the line
    velocities also read dpsi/dt or the Laplacian."""
    psi, w = complex(field.psi), field.grad
    scale = _on_line_scale(spec, consts, w)
    if abs(psi) > CORE_FLOOR * scale:
        raise NotOnLineError(
            f"|psi| = {abs(psi):.3e} exceeds the on-line tolerance {CORE_FLOOR * scale:.3e}"
        )
    re_w, im_w = np.real(w), np.imag(w)
    vorticity = np.cross(re_w, im_w)  # = i (w x w*) / 2
    norm = np.linalg.norm(vorticity)
    if norm <= 1e-12 * max(np.linalg.norm(w) ** 2, 1e-300):
        raise DegenerateVortexError("Re w and Im w are parallel: node sheet, not a vortex")
    tangent = vorticity / norm
    # Singular values of [Re w, Im w]; both columns lie in the normal plane.
    sing = np.linalg.svd(np.stack([re_w, im_w], axis=1), compute_uv=False)
    chi = math.atan2(sing[1], sing[0])
    winding_sign = 1 if np.dot(np.cross(re_w, im_w), tangent) > 0 else -1
    return LocalVortexData(
        w=tuple(w), tangent=tuple(tangent), chi=chi, winding_sign=winding_sign
    )


def min_norm_solve(grad, rhs) -> np.ndarray:
    """The minimum-norm x with J x = rhs at each point, J = [grad Re psi;
    grad Im psi] for the rows of the complex `grad`: x = J^T (J J^T)^-1 rhs,
    the 2 x 2 J J^T inverted in closed form.  A point where J drops rank
    gets x = 0: a Newton step or a velocity there leaves it in place."""
    a, b = grad.real, grad.imag
    aa, bb, ab = (np.einsum("ij,ij->i", p, q) for p, q in ((a, a), (b, b), (a, b)))
    det = aa * bb - ab * ab
    inverse = np.divide(1.0, det, out=np.zeros_like(det), where=det >= 1e-300)
    f, g = rhs.real * inverse, rhs.imag * inverse
    return (bb * f - ab * g)[:, None] * a + (aa * g - ab * f)[:, None] * b


def line_velocity(
    spec: SolutionSpec, consts: PhysicalConstants, point_on_line, t: float
) -> np.ndarray:
    """Velocity of the vortex line itself, from u . w + dpsi/dt = 0.

    The returned representative is the minimum-norm u = -J^+ dpsi/dt, which
    is orthogonal to the local tangent.
    """
    field = spec.at(consts, t).on(point_on_line)
    data = _vortex_data(spec, consts, field)
    dpsi_dt = complex(field.dt)
    return min_norm_solve(np.asarray([data.w]), np.array([-dpsi_dt]))[0]


def line_velocity_from_laplacian(
    spec: SolutionSpec, consts: PhysicalConstants, point_on_line, t: float
) -> np.ndarray:
    """Cross-check of line_velocity with dpsi/dt eliminated via the equation
    of motion on the line (where psi = 0, so potential terms drop out)."""
    if spec.equation == "relativistic":
        raise SpecValidationError(
            "Laplacian form of the line velocity applies to first-order-in-time equations"
        )
    point = np.asarray(point_on_line, dtype=float)
    field = spec.at(consts, t).on(point)
    data = _vortex_data(spec, consts, field)
    dpsi_dt = 1j * consts.hbar / (2.0 * consts.mass) * complex(field.lap)
    if spec.equation == "magnetic":
        w = np.asarray(data.w)
        eB = consts.charge * spec.B
        angular = point[0] * w[1] - point[1] * w[0]
        dpsi_dt += -(eB / (2.0 * consts.mass)) * angular
    return min_norm_solve(np.asarray([data.w]), np.array([-dpsi_dt]))[0]
