"""Discrete m-Laplacian in conservative (flux) form.

The scheme is a finite-volume discretization of -div(Phi) with midpoint flux

    Phi = |Du|^(m-2) Du,      Du = (u_{i+1} - u_i) / h_{i+1/2},

weighted by r^(N-1) in the radial case.  The interior residual at node i is
the flux difference divided by the dual-cell measure, so that

    <apply_mlap(u), v>_V  =  sum_cells  w_cell * Phi(Du) * Dv

holds exactly (discrete summation by parts), and the residual is exactly the
gradient of the discrete energy

    E(u) = sum_cells w_cell * |Du|^m / m - sum_nodes V_i theta_i u_i,

which is strictly convex in u for m > 1, so the discrete Dirichlet problem
has exactly one solution.
"""

from __future__ import annotations

import numpy as np

from .core import GridFunction

__all__ = ["apply_mlap"]


def flux_of_gradient(du: np.ndarray, m: float) -> np.ndarray:
    """Flux |du|^(m-2) du, written as |du|^(m-1) sign(du) to be safe at du = 0."""
    return np.sign(du) * np.abs(du) ** (m - 1.0)


def apply_mlap(u: GridFunction, m: float) -> GridFunction:
    """Interior residual of -div(Phi) applied to ``u``.

    Dirichlet boundary entries of the result are 0 by convention.  No flux
    enters node 0, so where it is an unknown (the radial symmetry center
    r = 0) it is treated with its one-sided dual cell.
    """
    g = u.grid
    fw = np.zeros(g.n)  # fw[i]: the weighted flux of the cell left of node i
    np.multiply(g.flux_weights, flux_of_gradient(np.diff(u.values) / g.h, m), out=fw[1:])
    out = np.zeros(g.n)
    sl = g.unknown_slice
    out[sl] = -(fw[1:][sl] - fw[sl]) / g.cell_volumes[sl]
    return GridFunction(g, out)

