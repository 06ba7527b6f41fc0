"""Potential catalog and magnetic vector potentials.

Every electric potential in the catalog is radial and carries, besides the
profile V(r) itself, the metadata the condition checkers need: the
singularity order s with |V(r)| ~ r^-s near the origin (s <= 2 throughout)
and the closed-form radial derivative d/dr (r * Re V) used by the
sign-decomposition constants.

Catalog entries (d >= 3, scale parameters positive unless noted):

    hardy(a)                V(x) = -a ((d-2)/2)^2 / |x|^2
    coulomb_repulsive(c)    V(x) = c / |x|
    imaginary_hardy(beta)   V(x) = i beta / |x|^2
    gaussian(v0, c_im)      V(x) = (-v0 + i c_im) exp(-|x|^2)   (v0 >= 0)
    yukawa(g, mu)           V(x) = -g exp(-mu |x|) / |x|
    square_well(v0, r0)     V(x) = -v0 for |x| < r0, else 0

Magnetic potentials are vector fields A with field tensor
B = grad A - (grad A)^T.  The sign convention is fixed by the d = 3
identification B v = curl A x v, i.e. B_ij = dA_i/dx_j - dA_j/dx_i.
The tangential trace B_tau(x) = (x/|x|) . B(x) is always orthogonal to x
because B is antisymmetric.  The magnetic side works on point arrays: A,
B and B_tau take points of shape (..., d), a single point (d,) included,
and return shapes (..., d), (..., d, d) and (..., d).  Every catalog field
is divergence-free, which the magnetic Laplacian relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
    """A radial complex potential with analytic metadata.

    ``radial_profile`` maps r > 0 (vectorised) to V(r); ``d_r_rReV`` maps
    r > 0 to d/dr (r * Re V(r)), understood pointwise almost everywhere
    (jump discontinuities, as in the square well, contribute no pointwise
    term).  ``origin_singularity_order`` is the s in |V(r)| ~ r^-s as
    r -> 0 (0 for bounded potentials).  ``jumps`` lists the radii where V
    jumps; radial quadratures put panel edges there.
    """

    name: str
    params: dict
    dimension: int
    radial_profile: Callable[[np.ndarray], np.ndarray]
    d_r_rReV: Callable[[np.ndarray], np.ndarray]
    origin_singularity_order: float
    jumps: tuple[float, ...] = ()

    # -- radial accessors used by the checkers ---------------------------

    def abs_radial(self, r: np.ndarray) -> np.ndarray:
        return np.abs(self.radial_profile(r))

    def re_radial(self, r: np.ndarray) -> np.ndarray:
        return np.real(self.radial_profile(r))

    def im_radial(self, r: np.ndarray) -> np.ndarray:
        return np.imag(self.radial_profile(r))

    def re_minus_radial(self, r: np.ndarray) -> np.ndarray:
        """Negative part (Re V)_- >= 0."""
        return np.maximum(-self.re_radial(r), 0.0)

    def sign_radial(self, r: np.ndarray) -> np.ndarray:
        return complex_sign(self.radial_profile(r))


def _require_positive(name: str, **params: float) -> None:
    for key, val in params.items():
        if not val > 0:
            raise PotentialError(f"{name}: parameter {key} must be positive, got {val}")


def catalog_names() -> tuple[str, ...]:
    return ("hardy", "coulomb_repulsive", "imaginary_hardy", "gaussian", "yukawa", "square_well")


def catalog(name: str, dimension: int = 3, **params: float) -> Potential:
    """Construct a catalog potential by name.

    Raises :class:`PotentialError` for unknown names, unsupported
    dimensions (d < 3) and nonpositive scale parameters where positivity
    is required.
    """
    if dimension < 3:
        raise PotentialError(f"dimension must be >= 3, got {dimension}")
    cd2 = ((dimension - 2) / 2.0) ** 2

    if name == "hardy":
        a = float(params.pop("a"))
        _require_positive(name, a=a)
        _no_extra(name, params)
        return Potential(
            name,
            {"a": a},
            dimension,
            radial_profile=lambda r: (-a * cd2 / np.asarray(r, float) ** 2).astype(complex),
            d_r_rReV=lambda r: a * cd2 / np.asarray(r, float) ** 2,
            origin_singularity_order=2.0,
        )

    if name == "coulomb_repulsive":
        c = float(params.pop("c"))
        _require_positive(name, c=c)
        _no_extra(name, params)
        return Potential(
            name,
            {"c": c},
            dimension,
            radial_profile=lambda r: (c / np.asarray(r, float)).astype(complex),
            d_r_rReV=lambda r: np.zeros_like(np.asarray(r, float)),
            origin_singularity_order=1.0,
        )

    if name == "imaginary_hardy":
        beta = float(params.pop("beta"))
        _require_positive(name, beta=beta)
        _no_extra(name, params)
        return Potential(
            name,
            {"beta": beta},
            dimension,
            radial_profile=lambda r: 1j * beta / np.asarray(r, float) ** 2,
            d_r_rReV=lambda r: np.zeros_like(np.asarray(r, float)),
            origin_singularity_order=2.0,
        )

    if name == "gaussian":
        v0 = float(params.pop("v0"))
        c_im = float(params.pop("c_im", 0.0))
        if v0 < 0:
            raise PotentialError(f"gaussian: well depth v0 must be >= 0, got {v0}")
        _no_extra(name, params)
        amp = complex(-v0, c_im)
        return Potential(
            name,
            {"v0": v0, "c_im": c_im},
            dimension,
            radial_profile=lambda r: amp * np.exp(-np.asarray(r, float) ** 2),
            d_r_rReV=lambda r: -v0
            * (1.0 - 2.0 * np.asarray(r, float) ** 2)
            * np.exp(-np.asarray(r, float) ** 2),
            origin_singularity_order=0.0,
        )

    if name == "yukawa":
        g = float(params.pop("g"))
        mu = float(params.pop("mu"))
        _require_positive(name, g=g, mu=mu)
        _no_extra(name, params)
        return Potential(
            name,
            {"g": g, "mu": mu},
            dimension,
            radial_profile=lambda r: (
                -g * np.exp(-mu * np.asarray(r, float)) / np.asarray(r, float)
            ).astype(complex),
            d_r_rReV=lambda r: g * mu * np.exp(-mu * np.asarray(r, float)),
            origin_singularity_order=1.0,
        )

    if name == "square_well":
        v0 = float(params.pop("v0"))
        r0 = float(params.pop("r0"))
        _require_positive(name, v0=v0, r0=r0)
        _no_extra(name, params)
        return Potential(
            name,
            {"v0": v0, "r0": r0},
            dimension,
            radial_profile=lambda r: np.where(np.asarray(r, float) < r0, -v0, 0.0).astype(
                complex
            ),
            # Pointwise a.e. derivative of r * Re V: the jump at r0 is a
            # positive measure, invisible to a pointwise evaluation.
            d_r_rReV=lambda r: np.where(np.asarray(r, float) < r0, -v0, 0.0),
            origin_singularity_order=0.0,
            jumps=(r0,),
        )

    raise PotentialError(f"unknown potential {name!r}; known: {catalog_names()}")


def _no_extra(name: str, params: dict) -> None:
    if params:
        raise PotentialError(f"{name}: unexpected parameters {sorted(params)}")


# ---------------------------------------------------------------------------
# magnetic side
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5


@dataclass(frozen=True)
class MagneticPotential:
    """Vector potential A with its antisymmetric field tensor B.

    Every callable takes points of shape (..., d), a single point (d,)
    included: ``vector_potential`` returns A of shape (..., d) and
    ``field_tensor`` B of shape (..., d, d).  When ``field_tensor`` is None,
    B is computed by centred finite differences of A (step 1e-5, O(h^2)
    accurate).  A is taken
    to be divergence-free (Coulomb gauge), as every catalog entry is, so
    the magnetic Laplacian carries no div A term.
    """

    name: str
    dimension: int
    vector_potential: Callable[[np.ndarray], np.ndarray]
    field_tensor: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def field(self, x: np.ndarray, force_fd: bool = False) -> np.ndarray:
        """Field tensor B(x) = grad A - (grad A)^T, B_ij = dA_i/dx_j - dA_j/dx_i.

        ``x`` has shape (..., d); the result has shape (..., d, d).
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise PotentialError(f"expected points of shape (..., {self.dimension})")
        if self.field_tensor is not None and not force_fd:
            return self.field_tensor(x)
        return self._fd_field(x)

    def _fd_field(self, x: np.ndarray) -> np.ndarray:
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


def magnetic_catalog_names() -> tuple[str, ...]:
    return ("azimuthal_inverse_square", "uniform_z", "zero")


def magnetic_catalog(name: str, dimension: int = 3, **params: float) -> MagneticPotential:
    """Construct a magnetic catalog entry (d = 3 only for the named fields).

    ``azimuthal_inverse_square``: A(x) = (-x2, x1, 0)/|x|^2, a divergence-free
    field whose tangential trace vanishes identically.
    ``uniform_z``: A(x) = b/2 (-x2, x1, 0), the uniform field of strength b
    along the third axis.
    ``zero``: A = 0.
    """
    if name == "zero":
        _no_extra(name, params)
        d = dimension
        return MagneticPotential(
            name,
            d,
            vector_potential=lambda x: np.zeros(np.shape(x)),
            field_tensor=lambda x: np.zeros(np.shape(x) + (d,)),
        )

    if dimension != 3:
        raise PotentialError(f"magnetic catalog entry {name!r} is three-dimensional")

    def rotate(x: np.ndarray) -> np.ndarray:
        """(-x2, x1, 0) at points (..., 3)."""
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], axis=-1)

    def tensor(b12, b13, b23) -> np.ndarray:
        """The antisymmetric (..., 3, 3) tensor with upper entries b12, b13, b23."""
        b12, b13, b23 = np.broadcast_arrays(b12, b13, b23)
        out = np.zeros(b12.shape + (3, 3))
        out[..., 0, 1], out[..., 0, 2], out[..., 1, 2] = b12, b13, b23
        out[..., 1, 0], out[..., 2, 0], out[..., 2, 1] = -b12, -b13, -b23
        return out

    if name == "azimuthal_inverse_square":
        _no_extra(name, params)

        def rho2_of(x: np.ndarray, what: str) -> np.ndarray:
            rho2 = np.sum(np.square(x), axis=-1)
            if np.any(rho2 == 0.0):
                raise PotentialError(f"{what} singular at the origin")
            return rho2

        def a_fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return rotate(x) / rho2_of(x, "vector potential")[..., None]

        def b_fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            f = 2.0 / rho2_of(x, "field tensor") ** 2
            x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
            return tensor(-f * x3 * x3, f * x2 * x3, -f * x1 * x3)

        return MagneticPotential(name, 3, vector_potential=a_fn, field_tensor=b_fn)

    if name == "uniform_z":
        b = float(params.pop("b", 1.0))
        _no_extra(name, params)

        def a_fn(x: np.ndarray) -> np.ndarray:
            return 0.5 * b * rotate(x)

        def b_fn(x: np.ndarray) -> np.ndarray:
            # B v = (b e3) x v: B_12 = dA_1/dx_2 - dA_2/dx_1 = -b.
            return tensor(np.full(np.shape(x)[:-1], -b), 0.0, 0.0)

        return MagneticPotential(name, 3, vector_potential=a_fn, field_tensor=b_fn)

    raise PotentialError(f"unknown magnetic potential {name!r}; known: {magnetic_catalog_names()}")
