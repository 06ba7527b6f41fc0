"""Potential catalog and magnetic vector potentials.

Every electric potential in the catalog is radial.  Each entry is a row
that maps its parameters (d >= 3, scale parameters positive unless noted)
onto one family,

    V(r) = amp r^-s exp(-mu r - gamma r^2) 1{r < r0},

and a :class:`Potential` is that family: it keeps the five numbers and
derives from them the profile, the jumps (r0 when finite) and, for the
sign-decomposition constants, d/dr (r Re V) = Re amp ((1 - s) - mu r
- 2 gamma r^2) r^-s exp(-mu r - gamma r^2), pointwise almost everywhere.
|V(r)| ~ r^-s near the origin, with s <= 2 throughout, and the condition
checkers read their constants off the five numbers in closed form:

    row                     amp                     s   mu   gamma   r0
    hardy(a)                -a ((d-2)/2)^2          2
    coulomb_repulsive(c)    c                       1
    imaginary_hardy(beta)   i beta                  2
    gaussian(v0, c_im)      -v0 + i c_im (v0 >= 0)           1
    yukawa(g, mu)           -g                      1   mu
    square_well(v0, r0)     -v0                                      r0

Blank cells are 0 (r0: infinite).  A row also checks its parameters and
carries its line of the ``spectra-cert catalog`` listing.

Magnetic potentials are vector fields A with field tensor
B = grad A - (grad A)^T.  The sign convention is fixed by the d = 3
identification B v = curl A x v, i.e. B_ij = dA_i/dx_j - dA_j/dx_i.
The tangential trace B_tau(x) = (x/|x|) . B(x) is always orthogonal to x
because B is antisymmetric.  Each magnetic row (d = 3) maps its
parameters onto one family, A(x) = k |x|^-p (-x2, x1, 0), which is
divergence-free, as the magnetic Laplacian needs, and has
B_tau(x) = -k (2 - p) |x|^(-p-1) (-x2, x1, 0):

    row                         k       p
    azimuthal_inverse_square    1       2
    uniform_z(b)                b/2     0
    zero                        0       0

The magnetic side works on point arrays: A, B and B_tau take points of
shape (..., 3), a single point (3,) included, and return shapes (..., 3),
(..., 3, 3) and (..., 3).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .numerics import _scale_exponent, _scaled_back

__all__ = [
    "PotentialError",
    "Potential",
    "MagneticPotential",
    "catalog",
    "magnetic_catalog",
    "complex_sign",
    "b_tau",
]


class PotentialError(ValueError):
    """Raised for unknown catalog names or invalid parameters."""


def complex_sign(v: np.ndarray) -> np.ndarray:
    """Complex signum v/|v| with sign(0) := 0, elementwise."""
    v = np.asarray(v, dtype=np.complex128)
    out = np.zeros_like(v)
    nz = v != 0
    w = v[nz]
    # |w| loses bits on denormal inputs (far tails of decaying potentials);
    # rescaling by an exact power of two moves them into the normal range
    # without changing the quotient
    tiny = np.abs(w) < 2.0**-500
    if np.any(tiny):
        w = w.copy()
        w[tiny] *= 2.0**600
    # each part divided as a real array, so a real entry gives exactly +-1,
    # where numpy's complex division is off by an ulp
    modulus = np.abs(w)
    out.real[nz] = w.real / modulus
    out.imag[nz] = w.imag / modulus
    return out


@dataclass(frozen=True)
class Potential:
    """A radial complex potential V(r) = amp r^-s exp(-mu r - gamma r^2) 1{r < r0}.

    The fields are the catalog row's family; ``r0`` is inf when V has no
    edge.  |V(r)| ~ r^-s as r -> 0, and V jumps at a finite r0, where
    radial quadratures put a panel edge.  ``amp`` stays a float for a real
    row, so real rows do real arithmetic.
    """

    dimension: int
    amp: complex
    s: float
    mu: float
    gamma: float
    r0: float

    @property
    def jumps(self) -> tuple[float, ...]:
        return (self.r0,) if self.r0 < math.inf else ()

    def _shape(self, value, r: np.ndarray):
        """value exp(-mu r - gamma r^2) r^-s 1{r < r0}, skipping factors of one."""
        decay = _poly((0.0, -self.mu, -self.gamma), r)
        if decay is not None:
            # in place: the exponent is a fresh array, and not holding it
            # next to its exponential keeps the peak memory of large grids
            value = value * np.exp(decay, out=decay)
        if self.s:
            value = value / (r if self.s == 1 else r**self.s)
        return np.where(r < self.r0, value, 0.0) if self.r0 < math.inf else value

    def radial_profile(self, r: np.ndarray) -> np.ndarray:
        return self._shape(self.amp, np.asarray(r, float)).astype(complex, copy=False)

    def d_r_rReV(self, r: np.ndarray) -> np.ndarray:
        """d/dr (r Re V), pointwise almost everywhere (module docstring).

        The jump at r0 is a measure that no pointwise value sees.
        """
        r = np.asarray(r, float)
        bracket = _poly((1 - self.s, -self.mu, -2.0 * self.gamma), r)
        if bracket is None or not self.amp.real:
            return np.zeros_like(r)
        return self._shape(self.amp.real * bracket, r)

    def abs_radial(self, r: np.ndarray) -> np.ndarray:
        return self._shape(abs(self.amp), np.asarray(r, float))

    def sign_radial(self, r: np.ndarray) -> np.ndarray:
        return complex_sign(self.radial_profile(r))


def _scaled_row(potential: Potential, j: int, k: int) -> Potential:
    """The row of V~(t) = 2^-j V(2^k t): amp 2^-(j + s k), mu 2^k, gamma 2^(2k),
    r0 2^-k, all exact while normal (s k is an integer on every catalog row);
    a rescaled mu, gamma or r0 past the float range reads inf rather than raise."""
    e = j + int(potential.s * k)
    re, im = (math.ldexp(x, -e) for x in (potential.amp.real, potential.amp.imag))
    return replace(
        potential, amp=complex(re, im) if isinstance(potential.amp, complex) else re,
        mu=_scaled_back(potential.mu, k), gamma=_scaled_back(potential.gamma, 2 * k),
        r0=_scaled_back(potential.r0, -k),
    )


def _unit_row(
    potential: Potential, length: float | None = None, every_row: bool = False
) -> tuple[Potential, int]:
    """(V~, e = j + 2k) for the row V~(t) = 2^-j V(2^k t) of ``_scaled_row``.

    k and j + s k are the exponents of a length and of |amp|: of ``length``
    when given (1.0 keeps r as it is, as grids in r need; a ball radius
    brings the ball to order one), else of the row's own (r0, 1/mu or
    1/sqrt(gamma); none without one).  They are ``numerics._scale_exponent``'s,
    so an ordinary row comes back as it is (e = 0), or with ``every_row``
    ``math.frexp``'s, which bring every row's length and |amp| to order one,
    as the Rollnik norm (quadratic in V, quartic in length) needs.  Sups of
    |x|^2 V and the Rollnik norm are 2^e times V~'s, an integral of |V| over
    the ball of radius R is 2^(e + k) times V~'s over radius R 2^-k, and
    anything linear in V on grids in r is 2^e times V~'s when k = 0.
    """
    exponent = (lambda x: math.frexp(x)[1]) if every_row else _scale_exponent
    if length is not None:
        k = exponent(length)
    elif potential.r0 < math.inf:
        k = exponent(potential.r0)
    else:
        k = -exponent(max(potential.mu, math.sqrt(potential.gamma)))
    j = exponent(abs(potential.amp)) - int(potential.s * k)
    return (_scaled_row(potential, j, k) if j or k else potential), j + 2 * k


# a rule is (key, range, default): range "> 0", ">= 0", "finite when squared"
# or None for any finite value; a default of None makes the parameter required
_IN_RANGE = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "finite when squared": lambda v: float(v) * float(v) < math.inf,
    None: lambda v: True,
}


class _Row(NamedTuple):
    """A catalog entry: parameter rules, map onto its family, listing line."""

    rules: tuple
    family: Callable
    usage: str = ""
    summary: str = ""


def _row_params(error: type, kind: str, rows: dict, name: str, given: dict) -> tuple:
    """(row of ``name``, its parameters as floats with defaults filled in).

    Raises ``error`` for an unknown name and for missing, unknown,
    non-numeric, non-finite or out-of-range parameters: the one place
    where each catalog checks what it is given.
    """
    if name not in rows:
        raise error(f"unknown {kind} {name!r}; known: {tuple(rows)}")
    row = rows[name]
    unknown = set(given) - {key for key, _, _ in row.rules}
    if unknown:
        raise error(f"{name}: unexpected parameters {sorted(unknown)}")
    values = {}
    for key, bound, default in row.rules:
        if key not in given and default is None:
            raise error(f"{name}: missing required parameter {key!r}")
        value = given.get(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name}: parameter {key} must be a number, got {value!r}")
        # abs() first: an integer past the float range must not reach float()
        if not abs(value) <= sys.float_info.max:
            raise error(f"{name}: parameter {key} must be finite, got {value}")
        if not _IN_RANGE[bound](value):
            raise error(f"{name}: parameter {key} must be {bound}, got {value}")
        values[key] = float(value)
    return row, values


# the largest d with a finite ((d-2)/2)^2: d - 2 must round to at most
# E = 2 sqrt(max float), as the integers below E + ulp(E)/2 do
_EDGE = 2.0 * math.sqrt(sys.float_info.max)
_MAX_DIMENSION = 1 + int(_EDGE) + int(math.ulp(_EDGE)) // 2


def _check_dimension(d, error: type = PotentialError, exactly=None) -> None:
    """Raise ``error`` unless d is an integer >= 3 with a finite ((d-2)/2)^2
    (the thresholds are finite then too) or, given ``exactly``, unless d ==
    exactly: d >= 3 for the multiplier results, d = 3 for Theorem 1.1 and the
    partial waves.  d is compared as an integer, so no float of it overflows."""
    if exactly is not None:
        if d != exactly:
            raise error(f"dimension must be {exactly}")
    elif not (isinstance(d, numbers.Integral) and 3 <= d <= _MAX_DIMENSION):
        raise error("dimension must be an integer >= 3 whose ((d-2)/2)^2 is a finite float")


def _poly(coefficients: tuple, r: np.ndarray):
    """sum_k c_k r^k over the nonzero c_k, lowest power first; None if all vanish."""
    total = None
    for k, c in enumerate(coefficients):
        if c:
            term = c if k == 0 else c * (r if k == 1 else r**k)
            total = term if total is None else total + term
    return total


# params, dimension -> the family fields of Potential other than 0 (r0: inf)
_ELECTRIC = {
    "hardy": _Row(
        (("a", "> 0", None),), lambda p, d: dict(amp=-p["a"] * ((d - 2) / 2.0) ** 2, s=2),
        "hardy(a)", "attractive inverse-square, strength a relative to the sharp constant",
    ),
    "coulomb_repulsive": _Row(
        (("c", "> 0", None),), lambda p, d: dict(amp=p["c"], s=1),
        "coulomb_repulsive(c)", "repulsive real tail +c/|x|",
    ),
    "imaginary_hardy": _Row(
        (("beta", "> 0", None),), lambda p, d: dict(amp=1j * p["beta"], s=2),
        "imaginary_hardy(beta)", "purely imaginary inverse-square i*beta/|x|^2",
    ),
    "gaussian": _Row(
        (("v0", ">= 0", None), ("c_im", None, 0.0)),
        lambda p, d: dict(amp=complex(-p["v0"], p["c_im"]), gamma=1.0),
        "gaussian(v0[, c_im])", "(-v0 + i*c_im) exp(-|x|^2)",
    ),
    "yukawa": _Row(
        (("g", "> 0", None), ("mu", "> 0", None)), lambda p, d: dict(amp=-p["g"], s=1, mu=p["mu"]),
        "yukawa(g, mu)", "-g exp(-mu|x|)/|x|",
    ),
    "square_well": _Row(
        (("v0", "> 0", None), ("r0", "> 0", None)), lambda p, d: dict(amp=-p["v0"], r0=p["r0"]),
        "square_well(v0, r0)", "-v0 on |x| < r0, zero outside",
    ),
}


def catalog(name: str, dimension: int = 3, **params: float) -> Potential:
    """Construct a catalog potential by name.

    Raises :class:`PotentialError` for dimensions ``_check_dimension``
    refuses, for unknown names and for parameters the entry's row refuses,
    the amplitude they give included: |amp| must be finite.
    """
    _check_dimension(dimension)
    row, values = _row_params(PotentialError, "potential", _ELECTRIC, name, params)
    family = dict(s=0.0, mu=0.0, gamma=0.0, r0=math.inf) | row.family(values, dimension)
    amp = family["amp"]
    if not math.hypot(amp.real, amp.imag) < math.inf:
        raise PotentialError(f"{name}: amplitude {amp} leaves the float range")
    return Potential(dimension, **family)


# ---------------------------------------------------------------------------
# magnetic side
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5

# R x = (-x2, x1, 0), the rotation every magnetic row is built on
_ROTATION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class MagneticPotential:
    """A(x) = k |x|^-p R x with R x = (-x2, x1, 0), and its field tensor B.

    ``vector_potential`` and ``field_tensor`` take points of shape (..., 3),
    a single point (3,) included, and return A of shape (..., 3) and

        B = k |x|^-p (2 R - p ((R x) x^T - x (R x)^T) / |x|^2)

    of shape (..., 3, 3).  Both refuse the origin when p > 0.  A is
    divergence-free (Coulomb gauge), so the magnetic Laplacian carries no
    div A term.
    """

    name: str
    k: float
    p: float

    def _rotated(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, R x, |x|^2) at points (..., 3)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (3,):
            raise PotentialError("expected points of shape (..., 3)")
        rho2 = np.sum(np.square(x), axis=-1)
        if self.p and np.any(rho2 == 0.0):
            raise PotentialError(f"{self.name} is singular at the origin")
        return x, x @ _ROTATION.T, rho2

    def vector_potential(self, x: np.ndarray) -> np.ndarray:
        _, rx, rho2 = self._rotated(x)
        return self.k * rx / (rho2 ** (self.p / 2))[..., None]

    def field_tensor(self, x: np.ndarray) -> np.ndarray:
        x, rx, rho2 = self._rotated(x)
        b = 2.0 * _ROTATION
        if self.p:
            m = rx[..., :, None] * x[..., None, :]
            b = b - self.p * (m - np.swapaxes(m, -1, -2)) / rho2[..., None, None]
        return (self.k / rho2 ** (self.p / 2))[..., None, None] * b


def _centred_difference_tensor(mag: MagneticPotential, x: np.ndarray) -> np.ndarray:
    """B(x) from centred differences of A (step 1e-5, O(h^2) accurate), at
    points (..., 3): the reference that ``field_tensor`` is checked against."""
    x = np.asarray(x, dtype=float)
    # jac[..., i, j] = dA_i/dx_j
    jac = np.stack(
        [
            (mag.vector_potential(x + e) - mag.vector_potential(x - e)) / (2.0 * _FD_STEP)
            for e in _FD_STEP * np.eye(3)
        ],
        axis=-1,
    )
    return jac - np.swapaxes(jac, -1, -2)


def b_tau(mag: MagneticPotential, x: np.ndarray) -> np.ndarray:
    """Tangential field trace B_tau(x) = (x/|x|) . B(x) at points (..., 3).

    Row-vector/matrix contraction: component j is sum_i (x_i/|x|) B_ij(x).
    Antisymmetry of B makes B_tau(x) . x = 0 identically.  Raises if any
    point is the origin.
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise PotentialError("B_tau is undefined at the origin")
    return np.einsum("...i,...ij->...j", x / r, mag.field_tensor(x))


# params -> (k, p) of A(x) = k |x|^-p (-x2, x1, 0)
_MAGNETIC = {
    "azimuthal_inverse_square": _Row(
        (), lambda v: (1.0, 2.0), "azimuthal_inverse_square",
        "A = (-x2, x1, 0)/|x|^2, tangential trace B_tau identically zero",
    ),
    "uniform_z": _Row(
        (("b", "finite when squared", 1.0),), lambda v: (v["b"] / 2, 0.0),
        "uniform_z(b)", "uniform field of strength b along the third axis",
    ),
    "zero": _Row((), lambda v: (0.0, 0.0), "zero", "A = 0"),
}


def magnetic_catalog(name: str, **params: float) -> MagneticPotential:
    """Construct a magnetic catalog entry; every row is three-dimensional."""
    row, values = _row_params(PotentialError, "magnetic potential", _MAGNETIC, name, params)
    return MagneticPotential(name, *row.family(values))
