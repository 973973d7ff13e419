"""First Dirichlet eigenpair of the m-Laplacian by inverse power iteration.

The eigenproblem solved is the standard one,

    -div(|grad phi|^(m-2) grad phi) = lambda |phi|^(m-2) phi,   phi = 0 on the
    boundary,

whose first eigenfunction is positive, unimodal and normalized here to
sup-norm 1.  Each iteration applies the inverse operator to |phi|^(m-2) phi
(one direct Dirichlet solve by exact flux integration, for every m) and
renormalizes; the eigenvalue is read off the Rayleigh quotient.  On the
interval the exact first eigenvalue is (m-1) * pi_m^m with
pi_m = 2 pi / (m sin(pi/m)), which the tests use as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid1D, GridFunction
from .errors import AdmissibilityViolation, NonConvergence, SignChange
from .operator import apply_mlap
from .solver import solve_dirichlet

__all__ = ["EigenPair", "first_eigenpair", "rayleigh_quotient"]

# Budget of inverse iterations per eigenpair.
MAX_ITERS = 200


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Normalized first eigenfunction (sup-norm 1, positive interior) and
    eigenvalue, with the sup-norm residual of the discrete eigen-identity."""

    eigenfunction: GridFunction
    eigenvalue: float
    m: float
    residual: float

    @property
    def grid(self) -> Grid1D:
        return self.eigenfunction.grid


def rayleigh_quotient(u: GridFunction, m: float) -> float:
    """sum_cells w |Du|^m / sum_nodes V |u|^m on the grid of ``u``."""
    g = u.grid
    du = np.diff(u.values) / g.h
    num = float(np.einsum("i,i->", g.interval_weights, np.abs(du) ** m))
    den = float(np.einsum("i,i->", g.cell_volumes, np.abs(u.values) ** m))
    return num / den


def _initial_field(grid: Grid1D) -> GridFunction:
    # positive, unimodal, satisfies the boundary conditions
    if grid.domain.is_ball:
        vals = 1.0 - grid.nodes**2
    else:
        vals = grid.nodes * (1.0 - grid.nodes)
    return GridFunction(grid, vals / vals.max())


def first_eigenpair(
    grid: Grid1D,
    m: float,
    tol: float = 1e-9,
    initial: GridFunction | None = None,
) -> EigenPair:
    """Inverse power iteration for the first m-Laplace Dirichlet eigenpair.

    Starts from ``initial`` (by default a positive unimodal polynomial) and
    stops when the Rayleigh-quotient eigenvalue changes by at most
    ``tol * max(1, lambda)`` between iterations.  Raises SignChange if an
    iterate loses interior positivity (the grid is too coarse) and
    NonConvergence if MAX_ITERS inverse iterations are not enough.
    """
    if m <= 1.0:
        raise AdmissibilityViolation(f"m > 1 fails: m = {m}")
    phi = initial if initial is not None else _initial_field(grid)
    # the initial field should be positive in the interior; a sign-changing
    # start is reported through SignChange on the first iterate
    vals = phi.values / np.max(np.abs(phi.values))
    phi = GridFunction(grid, vals)
    lam = rayleigh_quotient(phi, m)
    for _ in range(MAX_ITERS):
        rhs = GridFunction(grid, np.sign(phi.values) * np.abs(phi.values) ** (m - 1.0))
        psi = solve_dirichlet(rhs, m).solution
        if np.any(psi.interior <= 0.0):
            raise SignChange("inverse iterate lost interior positivity")
        phi = GridFunction(grid, psi.values / psi.values.max())
        lam_new = rayleigh_quotient(phi, m)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise NonConvergence(f"eigen iteration did not settle in {MAX_ITERS} steps")
    res_field = apply_mlap(phi, m).values - lam * np.sign(phi.values) * np.abs(
        phi.values
    ) ** (m - 1.0)
    residual = float(np.max(np.abs(res_field[grid.unknown_slice])))
    return EigenPair(eigenfunction=phi, eigenvalue=lam, m=m, residual=residual)
