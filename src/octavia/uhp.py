"""Generalized upper half plane over a normed division algebra.

Points z = u + iv with u a coordinate vector in the algebra and v > 0.
The even Weyl group acts by isometries, token-wise through
hyperweyl.act_coords on the hyperboloid coordinates of z (_hyperboloid),
so it stays valid over the octonions, where the closed 2x2 matrix formula
breaks down.

Most geometry here is double precision.  The jet layer is the exception:
second-order Taylor jets over exact rationals take the same path, so
differential identities (such as the invariance of the Laplace-Beltrami
operator) can be certified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgElem, left_mult_matrix
from .hyperweyl import GroupWord, act_coords

__all__ = [
    "Jet2",
    "UhpPoint",
    "act_word_jets",
    "laplace_beltrami_jet",
    "act_matrix_quaternion",
    "act_word",
    "cayley_matrix",
    "distance",
    "embed",
    "geodesic_point",
    "hyperbolic_element",
    "laplace_beltrami_numeric",
    "periodic_orbit_length",
    "unembed",
    "volume_density",
]


def _as_vector(x, dim=None) -> np.ndarray:
    a = x.floats() if isinstance(x, AlgElem) else np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if dim is not None and a.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}")
    return a


def _conj(u: np.ndarray) -> np.ndarray:
    out = u.copy()
    out[1:] = -out[1:]
    return out


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return left_mult_matrix(x, len(x)) @ y


@dataclass(frozen=True)
class UhpPoint:
    """z = u + iv on the upper half plane; u is an algebra coordinate
    vector, v > 0."""

    u: tuple
    v: float

    def __init__(self, u, v):
        u = tuple(_as_vector(u).tolist())
        v = float(v)
        if not all(map(math.isfinite, u)):
            raise ValueError("u must be finite")
        if not math.isfinite(v):
            raise ValueError("v must be finite")
        if not v > 0:
            raise ValueError("v must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return len(self.u)

    def u_vector(self) -> np.ndarray:
        return np.array(self.u, dtype=float)

    def __repr__(self):
        return f"UhpPoint(u={list(self.u)}, v={self.v})"


def _hyperboloid(u, v):
    """(x_plus, x_minus, x) = (v + |u|^2/v, 1/v, u/v); floats, Fractions or jets."""
    x_minus = 1 / v
    return v + sum(a * a for a in u) * x_minus, x_minus, [a * x_minus for a in u]


def _half_plane(x_minus, x):
    """(u, v) = (x/x_minus, 1/x_minus), the inverse of _hyperboloid."""
    v = 1 / x_minus
    return [a * v for a in x], v


def embed(z: UhpPoint):
    """Coordinates on the hyperboloid -x_plus*x_minus + |x|^2 = -1:
    x_minus = 1/v, x_plus = v + |u|^2/v, x = u/v."""
    x_plus, x_minus, x = _hyperboloid(z.u, z.v)
    return x_plus, x_minus, np.array(x)


def unembed(x_plus: float, x_minus: float, x) -> UhpPoint:
    if not x_minus > 0:
        raise ValueError("x_minus must be positive")
    return UhpPoint(*_half_plane(x_minus, _as_vector(x).tolist()))


def distance(z1: UhpPoint, z2: UhpPoint) -> float:
    """Hyperbolic distance 2 artanh(|z1 - z2| / |z1 - z2*|).

    Equivalently arcosh(1 + |z1 - z2|^2 / (2 v1 v2)); the factor 2 in the
    denominator is required for consistency with the artanh form and with
    the classical real upper half plane.
    """
    du = z1.u_vector() - z2.u_vector()
    uu = float(du @ du)
    num = uu + (z1.v - z2.v) ** 2
    den = uu + (z1.v + z2.v) ** 2
    if num == 0.0:
        return 0.0
    return 2.0 * np.arctanh(np.sqrt(num / den))


def volume_density(z: UhpPoint) -> float:
    """Density of the invariant volume element du dv / v^(n+1)."""
    return z.v ** (-(z.dim + 1))


# -- group action ------------------------------------------------------------


def act_word(w: GroupWord, z: UhpPoint) -> UhpPoint:
    """Apply a group word; the rightmost token acts first, matching the
    matrix-product convention of the exact layer.  Inversion is
    z -> -1/z = (-conj(u) + iv) / (|u|^2 + v^2)."""
    _, x_minus, x = act_coords(w.tokens, *_hyperboloid(z.u, z.v))
    return UhpPoint(*_half_plane(x_minus, x))


def act_matrix_quaternion(S, z: UhpPoint) -> UhpPoint:
    """Closed-form action z -> ((au+b)(conj(u)conj(c)+conj(d)) + a conj(c) v^2
    + iv) / |cz+d|^2, valid over R, C, H only."""
    if z.dim > 4:
        raise ValueError("matrix action is not associative over octonions;"
                         " use act_word")
    (a, b), (c, d) = S
    a, b, c, d = (_as_vector(x, z.dim) for x in (a, b, c, d))
    u, v = z.u_vector(), z.v
    cu_d = _mul(c, u) + d
    denom = float(cu_d @ cu_d) + float(c @ c) * v * v
    if denom == 0.0:
        raise ZeroDivisionError("cz + d vanishes")
    num = _mul(_mul(a, u) + b, _conj(_mul(c, u) + d)) + _mul(a, _conj(c)) * v * v
    return UhpPoint(num / denom, v / denom)


# -- Laplacian ---------------------------------------------------------------


def laplace_beltrami_numeric(f, z: UhpPoint, h: float = 1e-3) -> float:
    """Laplace-Beltrami operator v^(n+1) d_v(v^(1-n) d_v f) + v^2 sum_i d^2_{u_i} f,
    evaluated through the expanded form (1-n) v f_v + v^2 f_vv + v^2 lap_u f.

    Central differences have O(h^2) error; the Richardson combination
    (4 L(h/2) - L(h)) / 3 cancels it, leaving O(h^4).
    """
    return (4 * _central_laplace_beltrami(f, z, h / 2)
            - _central_laplace_beltrami(f, z, h)) / 3


def _central_laplace_beltrami(f, z: UhpPoint, h: float) -> float:
    u, v, n = z.u_vector(), z.v, z.dim
    f0 = f(z)
    fv_p = f(UhpPoint(u, v + h))
    fv_m = f(UhpPoint(u, v - h))
    out = (1 - n) * v * (fv_p - fv_m) / (2 * h)
    out += v * v * (fv_p - 2 * f0 + fv_m) / (h * h)
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        out += v * v * (f(UhpPoint(u + step, v)) - 2 * f0
                        + f(UhpPoint(u - step, v))) / (h * h)
    return out


# -- exact jets --------------------------------------------------------------


def _exact(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _constant(x):  # Fraction arithmetic takes ints as they are
    return x if isinstance(x, int) else _exact(x)


class Jet2:
    """Truncated Taylor series a + b t + c t^2 over exact rationals.

    Tracks a value and its first two derivatives along one direction:
    f = a, f' = b, f'' = 2 c.  Arithmetic is closed, so pushing jet
    coordinates through a rational map yields its exact directional
    derivatives.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b=0, c=0):
        # arithmetic results are Fractions already; coerce only the rest
        self.a = _exact(a)
        self.b = _exact(b)
        self.c = _exact(c)

    def _is_constant(self) -> bool:  # then + and * cost one Fraction op per coefficient
        return not (self.b or self.c)

    def __add__(self, other):
        if not isinstance(other, Jet2):  # a constant shifts the value only
            return Jet2(self.a + _constant(other), self.b, self.c)
        if other._is_constant():
            return self + other.a
        if self._is_constant():
            return other + self.a
        return Jet2(self.a + other.a, self.b + other.b, self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.a, -self.b, -self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):  # a constant scales each coefficient
            k = _constant(other)
            return Jet2(self.a * k, self.b * k, self.c * k)
        if other._is_constant():
            return self * other.a
        if self._is_constant():
            return other * self.a
        return Jet2(self.a * other.a,
                    self.a * other.b + self.b * other.a,
                    self.a * other.c + self.b * other.b + self.c * other.a)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        if self.a == 0:
            raise ZeroDivisionError("jet with zero value")
        ia = 1 / self.a
        return Jet2(ia, -self.b * ia * ia,
                    (self.b * self.b * ia - self.c) * ia * ia)

    def __truediv__(self, other):
        if not isinstance(other, Jet2):  # divide each coefficient
            k = _constant(other)
            return Jet2(self.a / k, self.b / k, self.c / k)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other


def act_word_jets(w: GroupWord, u_jets: list, v_jet: Jet2):
    """The word action on jet coordinates (u, v): act_word's path through
    the hyperboloid map and act_coords, in exact jet arithmetic."""
    _, x_minus, x = act_coords(w.tokens, *_hyperboloid(u_jets, v_jet))
    return _half_plane(x_minus, x)


def laplace_beltrami_jet(f, u, v) -> Fraction:
    """Exact Laplace-Beltrami value (1-n) v f_v + v^2 f_vv + v^2 lap_u f
    for a rational f(u_jets, v_jet) at the rational point (u, v)."""
    u = [Fraction(x) for x in u]
    v = Fraction(v)
    n = len(u)
    jv = f([Jet2(x) for x in u], Jet2(v, 1))
    total = (1 - n) * v * jv.b + 2 * v * v * jv.c
    for i in range(n):
        uj = [Jet2(x) for x in u]
        uj[i] = Jet2(u[i], 1)
        total += 2 * v * v * f(uj, Jet2(v)).c
    return total


# -- geodesics and periodic orbits -------------------------------------------


def geodesic_point(u1, u2, t: float) -> UhpPoint:
    """Point z(t) = (u1 + u2 t^2 + it|u1 - u2|) / (1 + t^2) on the
    half-circle geodesic with endpoints u1, u2 on the boundary."""
    u1, u2 = _as_vector(u1), _as_vector(u2)
    if u1.shape != u2.shape or np.array_equal(u1, u2):
        raise ValueError("endpoints must be distinct, same dimension")
    t = float(t)
    if not t > 0:
        raise ValueError("t must be positive")
    s = 1.0 + t * t
    return UhpPoint((u1 + t * t * u2) / s,
                    t * float(np.linalg.norm(u1 - u2)) / s)


def cayley_matrix(u1, u2):
    """Matrix C = [[u2, u1], [1, 1]] / sqrt(|u1 - u2|) mapping the standard
    vertical geodesic to the half-circle over (u1, u2)."""
    u1, u2 = _as_vector(u1), _as_vector(u2)
    if u1.shape != u2.shape or np.array_equal(u1, u2):
        raise ValueError("endpoints must be distinct, same dimension")
    n = len(u1)
    one = np.zeros(n)
    one[0] = 1.0
    s = np.sqrt(np.linalg.norm(u1 - u2))
    return ((u2 / s, u1 / s), (one / s, one / s))


def _inv(x: np.ndarray) -> np.ndarray:
    nrm = float(x @ x)
    if nrm == 0.0:
        raise ZeroDivisionError("zero element")
    return _conj(x) / nrm


def hyperbolic_element(u1, u2, t: float):
    """M_t = C diag(sqrt(t), 1/sqrt(t)) C^(-1); maps the geodesic over
    (u1, u2) to itself with dilation factor t."""
    u1, u2 = _as_vector(u1), _as_vector(u2)
    if len(u1) > 4:
        raise ValueError("hyperbolic elements need an associative algebra")
    if u1.shape != u2.shape or np.array_equal(u1, u2):
        raise ValueError("endpoints must be distinct, same dimension")
    t = float(t)
    if not t > 0:
        raise ValueError("t must be positive")
    s = np.sqrt(t)
    n = len(u1)
    one = np.zeros(n)
    one[0] = 1.0
    # A = [[u2, u1], [1, 1]], A^(-1) = [[w, -w u1], [-w, 1 + w u1]],
    # w = (u2 - u1)^(-1); the normalization of C cancels in M_t
    w = _inv(u2 - u1)
    ia, ib = w, -_mul(w, u1)
    ic, idd = -w, one + _mul(w, u1)
    m00 = s * _mul(u2, ia) + _mul(u1, ic) / s
    m01 = s * _mul(u2, ib) + _mul(u1, idd) / s
    m10 = s * ia + ic / s
    m11 = s * ib + idd / s
    return ((m00, m01), (m10, m11))


def periodic_orbit_length(M) -> float:
    """Length of the periodic geodesic of a hyperbolic element:
    l = 2 arcosh(|Re Tr M| / 2) = log of the dilation eigenvalue."""
    (a, _), (_, d) = M
    a = _as_vector(a)
    d = _as_vector(d)
    half = abs(float(a[0]) + float(d[0])) / 2.0
    if half <= 1.0:
        raise ValueError("not hyperbolic: |Re Tr M| <= 2")
    return 2.0 * float(np.arccosh(half))
