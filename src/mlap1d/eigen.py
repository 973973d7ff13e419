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

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid1D, GridFunction, _check_m
from .errors import DomainError, NonConvergence
from .solver import apply_mlap, solve_dirichlet

__all__ = ["EigenPair", "first_eigenpair", "rayleigh_quotient"]

# Budget of inverse iterations per eigenpair, and the relative change of the
# eigenvalue at which they stop.
MAX_ITERS = 200
TOL = 1e-9


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
    """sum_cells w |Du|^m / sum_nodes V |u|^m on the grid of ``u``; inf,
    without a warning, where the numerator overflows double precision."""
    g = u.grid
    du = np.diff(u.values) / g.h
    with np.errstate(over="ignore"):
        num = float(np.einsum("i,i->", g.cell_measures, np.abs(du) ** m))
    den = float(np.einsum("i,i->", g.cell_volumes, np.abs(u.values) ** m))
    return num / den


def _initial_field(grid: Grid1D) -> GridFunction:
    # positive, unimodal, satisfies the boundary conditions; on the interval
    # delta (1 - delta) = x (1 - x), taken from delta so that it mirrors
    # exactly wherever the grid does
    if grid.domain.is_ball:
        vals = 1.0 - grid.nodes**2
    else:
        d = grid.delta_nodes
        vals = d * (1.0 - d)
    return GridFunction(grid, vals / vals.max())


def first_eigenpair(grid: Grid1D, m: float) -> EigenPair:
    """Inverse power iteration for the first m-Laplace Dirichlet eigenpair.

    Starts from a positive unimodal polynomial and stops when the
    Rayleigh-quotient eigenvalue changes by at most ``TOL * max(1, lambda)``
    between iterations.  Every iterate is positive inside: its load
    phi^(m-1) is, and a positive load gives a positive solve.  Raises
    AdmissibilityViolation unless 1 < m < inf, DomainError naming m as soon
    as an iterate's quotient overflows double precision (the start field's
    may), and NonConvergence if MAX_ITERS inverse iterations are not enough.
    """
    _check_m(m)
    phi = _initial_field(grid)
    lam = rayleigh_quotient(phi, m)
    for _ in range(MAX_ITERS):
        psi = solve_dirichlet(GridFunction(grid, phi.values ** (m - 1.0)), m).solution
        phi = GridFunction(grid, psi.values / psi.values.max())
        lam_new = rayleigh_quotient(phi, m)
        if not math.isfinite(lam_new):
            raise DomainError(f"the Rayleigh quotient overflows double precision at m = {m:g}")
        if abs(lam_new - lam) <= TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise NonConvergence(f"eigen iteration did not settle in {MAX_ITERS} steps")
    res_field = apply_mlap(phi, m).values - lam * phi.values ** (m - 1.0)
    residual = float(np.max(np.abs(res_field[grid.unknown_slice])))
    return EigenPair(eigenfunction=phi, eigenvalue=lam, m=m, residual=residual)
