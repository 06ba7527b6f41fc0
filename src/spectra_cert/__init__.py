"""Numerical certification toolkit for spectral bounds of Schrodinger
operators -Delta + V with complex-valued potentials.

The package is organised around small, independently testable pieces:

``numerics``
    quadrature grids, dense complex eigen and SVD, LAPACK tridiagonal
    and band sigma routines, ARPACK sigma_min for large tridiagonals.
``potentials``
    the catalogs as rows of closed-form families: radial potentials
    V(r) = amp r^-s exp(-mu r - gamma r^2) 1{r < r0} and magnetic
    potentials A(x) = k |x|^-p (-x2, x1, 0) with their field tensors.
``conditions``
    smallness/subordination constants, integral norms and threshold
    evaluation ("is this potential certified by criterion X?").
``birman_schwinger``
    resolvent-kernel operators |V|^(1/2) (H0 - z)^(-1) V_(1/2) assembled by
    partial-wave Nystrom discretisation, their norms and HS identities.
``spectral``
    finite-difference model operators, eigenvalue/outlier reports,
    pseudospectra and Weyl-sequence decay rates.
``multipliers``
    the method-of-multipliers laboratory: analytic probe functions and
    term-by-term integral identity checks.
``cli``
    the ``spectra-cert`` experiment runner (config in, reports out).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
