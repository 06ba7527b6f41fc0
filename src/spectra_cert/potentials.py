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
shape (..., d), a single point (d,) included, and return shapes (..., d),
(..., d, d) and (..., d).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PotentialError",
    "Potential",
    "MagneticPotential",
    "catalog",
    "catalog_names",
    "magnetic_catalog",
    "magnetic_catalog_names",
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
    # numpy's complex division overflows or loses bits on denormal inputs
    # (far tails of decaying potentials); rescaling by an exact power of
    # two moves them into the normal range without changing the quotient
    tiny = np.abs(w) < 2.0**-500
    if np.any(tiny):
        w = w.copy()
        w[tiny] *= 2.0**600
    out[nz] = w / np.abs(w)
    return out


@dataclass(frozen=True)
class Potential:
    """A radial complex potential V(r) = amp r^-s exp(-mu r - gamma r^2) 1{r < r0}.

    The fields are the catalog row's family; ``r0`` is inf when V has no
    edge.  |V(r)| ~ r^-s as r -> 0, and V jumps at a finite r0, where
    radial quadratures put a panel edge.  ``amp`` stays a float for a real
    row, so real rows do real arithmetic.
    """

    name: str
    params: dict
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
    r0 2^-k, all exact while normal (s k is an integer on every catalog row)."""
    e = j + int(potential.s * k)
    re, im = (math.ldexp(x, -e) for x in (potential.amp.real, potential.amp.imag))
    return replace(
        potential, amp=complex(re, im) if isinstance(potential.amp, complex) else re,
        mu=math.ldexp(potential.mu, k), gamma=math.ldexp(potential.gamma, 2 * k),
        r0=math.ldexp(potential.r0, -k),
    )


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


def catalog_names() -> tuple[str, ...]:
    return tuple(_ELECTRIC)


def catalog(name: str, dimension: int = 3, **params: float) -> Potential:
    """Construct a catalog potential by name.

    Raises :class:`PotentialError` for unsupported dimensions (d < 3), for
    unknown names and for parameters the entry's row refuses.
    """
    if dimension < 3:
        raise PotentialError(f"dimension must be >= 3, got {dimension}")
    row, values = _row_params(PotentialError, "potential", _ELECTRIC, name, params)
    family = dict(s=0.0, mu=0.0, gamma=0.0, r0=math.inf) | row.family(values, dimension)
    return Potential(name, values, dimension, **family)


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
    dimension: int
    k: float
    p: float

    def _rotated(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, R x, |x|^2) at points (..., 3)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise PotentialError(f"expected points of shape (..., {self.dimension})")
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

    def field(self, x: np.ndarray, force_fd: bool = False) -> np.ndarray:
        """Field tensor B(x) = grad A - (grad A)^T, B_ij = dA_i/dx_j - dA_j/dx_i.

        ``x`` has shape (..., d); the result has shape (..., d, d).  With
        ``force_fd``, B comes from centred differences of A (step 1e-5,
        O(h^2) accurate): the cross-check of ``field_tensor``.
        """
        if not force_fd:
            return self.field_tensor(x)
        x = np.asarray(x, dtype=float)
        # jac[..., i, j] = dA_i/dx_j
        jac = np.stack(
            [
                (self.vector_potential(x + e) - self.vector_potential(x - e)) / (2.0 * _FD_STEP)
                for e in _FD_STEP * np.eye(self.dimension)
            ],
            axis=-1,
        )
        return jac - np.swapaxes(jac, -1, -2)


def b_tau(mag: MagneticPotential, x: np.ndarray, force_fd: bool = False) -> np.ndarray:
    """Tangential field trace B_tau(x) = (x/|x|) . B(x) at points (..., d).

    Row-vector/matrix contraction: component j is sum_i (x_i/|x|) B_ij(x).
    Antisymmetry of B makes B_tau(x) . x = 0 identically.  Raises if any
    point is the origin.
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise PotentialError("B_tau is undefined at the origin")
    return np.einsum("...i,...ij->...j", x / r, mag.field(x, force_fd=force_fd))


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


def magnetic_catalog_names() -> tuple[str, ...]:
    return tuple(_MAGNETIC)


def magnetic_catalog(name: str, dimension: int = 3, **params: float) -> MagneticPotential:
    """Construct a magnetic catalog entry; every row is three-dimensional."""
    row, values = _row_params(PotentialError, "magnetic potential", _MAGNETIC, name, params)
    if dimension != 3:
        raise PotentialError(f"magnetic catalog entry {name!r} is three-dimensional")
    return MagneticPotential(name, 3, *row.family(values))
