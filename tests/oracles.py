"""Independent oracles used by the tests.

Everything here is deliberately built on scipy/closed forms only, never on
the package's own discretizations, so the tests compare two unrelated routes
to the same numbers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import curve_fit


def torsion_exact(m: float, x: np.ndarray) -> np.ndarray:
    """Solution of -(|u'|^(m-2) u')' = 1 on (0,1), u(0) = u(1) = 0.

    The flux is exactly 1/2 - x, so u' = sign(1/2 - x) |1/2 - x|^(1/(m-1))
    and integration gives the closed form below.
    """
    mp = m / (m - 1.0)
    return (m - 1.0) / m * (0.5**mp - np.abs(x - 0.5) ** mp)


def generalized_pi(m: float) -> float:
    """pi_m = 2 pi / (m sin(pi/m)); equals pi at m = 2."""
    return 2.0 * math.pi / (m * math.sin(math.pi / m))


def eigenvalue_closed_form(m: float) -> float:
    """First Dirichlet eigenvalue of the 1-D m-Laplacian on (0,1)."""
    return (m - 1.0) * generalized_pi(m) ** m


def eigenvalue_shooting(m: float, rtol: float = 1e-12) -> float:
    """First eigenvalue by shooting, independent of any grid.

    Integrate u' = sign(s)|s|^(1/(m-1)), s' = -|u|^(m-2) u from u(0) = 0,
    s(0) = 1 (the eigenvalue is scaled out by homogeneity) to the first zero
    L of u; rescaling x -> x/L multiplies the eigenvalue by L^m, so the
    eigenvalue on (0,1) is L^m.
    """

    def rhs(_t, y):
        u, s = y
        return [
            math.copysign(abs(s) ** (1.0 / (m - 1.0)), s),
            -math.copysign(abs(u) ** (m - 1.0), u),
        ]

    def hit_zero(t, y):
        return y[0] if t > 1e-3 else 1.0

    hit_zero.terminal = True
    hit_zero.direction = -1.0
    sol = solve_ivp(
        rhs, (0.0, 10.0), [0.0, 1.0], events=hit_zero, rtol=rtol, atol=1e-14,
        dense_output=True,
    )
    if not sol.t_events[0].size:
        raise RuntimeError(f"shooting found no zero for m={m}")
    big_l = float(sol.t_events[0][0])
    return big_l**m


def quad_integral(f, a: float = 0.0, b: float = 1.0, **kw) -> float:
    """Adaptive quadrature wrapper (independent integral oracle)."""
    val, _err = quad(f, a, b, **kw)
    return val


def node_graded_nodes(n: int, grading: float) -> np.ndarray:
    """Graded interval nodes built from x itself: x = 0.5 (2t)^grading for
    t = i/(n-1) <= 1/2 and 1 - 0.5 (2(1-t))^grading above.

    At n = 2^k + 1 and grading 1-3 every value is exact, so this pins
    make_graded_grid there; elsewhere the rounding of 1 - t and of
    1 - 0.5 (...) breaks the mirror, which makes an asymmetric grid.
    """
    t = np.linspace(0.0, 1.0, n)
    x = np.where(
        t <= 0.5, 0.5 * (2.0 * t) ** grading, 1.0 - 0.5 * (2.0 * (1.0 - t)) ** grading
    )
    x[0], x[-1] = 0.0, 1.0
    return x


def log_profile_exponent(delta: np.ndarray, u: np.ndarray) -> float:
    """s of the least-squares fit u/delta ~ C log^s(1/delta) + B by scipy's
    Levenberg-Marquardt over (C, s, B) from (1, 0.5, 0)."""
    big_l = np.log(1.0 / delta)
    popt, _ = curve_fit(
        lambda x, c, s, b: c * x**s + b, big_l, u / delta, p0=(1.0, 0.5, 0.0), maxfev=20000
    )
    return float(popt[1])
