"""Closed-form references for the benchmark checks.

Everything here is derived by hand from the model definitions and computed
with numpy and the standard library only; nothing is taken from the package
under test (no ``spec.oracle``, no ``fbsdelab.special``), so a fault in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# ex_counter: g(x) = x, h = (t - 2) x on X = W, T = 1.
T_STAR = 2.0 - math.sqrt(3.0)          # root of c(t): the law of Y_t degenerates
T_FLIP = (3.0 - math.sqrt(5.0)) / 2.0  # root of the first-order H+ margin


def counter_c(t):
    """c(t) = -1/2 + 2t - t^2/2, so that Y_t = W_t c(t) and D_r Y_t = c(t)."""
    t = np.asarray(t, dtype=float)
    return -0.5 + 2.0 * t - 0.5 * t * t


def counter_y(t, w):
    return np.asarray(w, dtype=float) * counter_c(t)


# Var Y_1/2 = Var W_1/2 * c(1/2)^2 = 0.5 * 0.375^2
COUNTER_Y_HALF_VAR = 0.5 * float(counter_c(0.5)) ** 2


def first_order_margin(t):
    """H+ margin of ex_counter: inf g' + (t - 2)(T - t) with K = 0."""
    t = np.asarray(t, dtype=float)
    return -t * t + 3.0 * t - 1.0


def second_order_margin(t):
    """Htilde+ margin of ex_counter: gtilde = t, htilde = -h_xt = -1, weight (T-t)^2/2."""
    t = np.asarray(t, dtype=float)
    return -0.5 * t * t + 2.0 * t - 0.5


def normal_pdf(x, var):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


def normal_central(var, mass=0.9):
    """Symmetric interval holding ``mass`` of N(0, var)."""
    q = NormalDist().inv_cdf(0.5 + 0.5 * mass) * math.sqrt(var)
    return -q, q


# ex_cubic: Y_t = W_t^3 + 6 W_t (1 - t), Z_t = 3 W_t^2 + 6 (1 - t).


def cubic_z1_pdf(z):
    """Law of Z_1 = 3 W_1^2: 3 times a chi-square with one degree of freedom."""
    z = np.asarray(z, dtype=float)
    return np.exp(-z / 6.0) / np.sqrt(2.0 * math.pi * 3.0 * z)


def cubic_z1_central(mass=0.9):
    """Quantiles (1-mass)/2 and (1+mass)/2 of Z_1: P(3 W^2 <= 3 a^2) = 2 Phi(a) - 1."""
    def q(p):
        return 3.0 * NormalDist().inv_cdf(0.5 + 0.5 * p) ** 2
    return q(0.5 * (1.0 - mass)), q(0.5 * (1.0 + mass))


def _cubic_root(y):
    # real root of w^3 + 3w - y = 0 (Cardano; the cubic is strictly increasing)
    y = np.asarray(y, dtype=float)
    s = np.sqrt(0.25 * y * y + 1.0)
    return np.cbrt(0.5 * y + s) + np.cbrt(0.5 * y - s)


def cubic_y_half_pdf(y):
    """Law of Y_1/2 = W^3 + 3W with W ~ N(0, 1/2), by change of variables."""
    w = _cubic_root(y)
    return normal_pdf(w, 0.5) / (3.0 * w * w + 3.0)


def cubic_y_half_central(mass=0.9):
    lo, hi = normal_central(0.5, mass)
    return lo**3 + 3.0 * lo, hi**3 + 3.0 * hi


# ex_quad_exp: h = z^2/2, g = tanh; u(t, x) = log E[exp(tanh(x + sqrt(T-t) xi))].


def hermite_rule(n):
    """Gauss rule for E[f(xi)], xi ~ N(0, 1), by the Golub-Welsch eigenproblem."""
    off = np.sqrt(np.arange(1, n, dtype=float))
    J = np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(J)
    return nodes, vecs[0] ** 2


_HERMITE = hermite_rule(96)


def _quad_points(t, x, T):
    tau = np.sqrt(np.maximum(T - np.asarray(t, dtype=float), 0.0))
    return np.asarray(x, dtype=float)[..., None] + tau[..., None] * _HERMITE[0]


def quad_value(t, x, T=1.0):
    """Exponential-transform value function of the quadratic preset."""
    pts = _quad_points(t, x, T)
    return np.log(np.exp(np.tanh(pts)) @ _HERMITE[1])


def quad_value_x(t, x, T=1.0):
    """Space derivative of ``quad_value``, differentiated under the integral."""
    pts = _quad_points(t, x, T)
    e = np.exp(np.tanh(pts))
    return ((e / np.cosh(pts) ** 2) @ _HERMITE[1]) / (e @ _HERMITE[1])


_QUAD_X = np.linspace(-8.0, 8.0, 8001)


def quad_y_half_pdf(y):
    """Law of Y_1/2 = u(1/2, W_1/2), W_1/2 ~ N(0, 1/2): u is increasing in x."""
    u = quad_value(0.5, _QUAD_X)
    x = np.interp(np.asarray(y, dtype=float), u, _QUAD_X)
    return normal_pdf(x, 0.5) / quad_value_x(0.5, x)


def quad_y_half_central(mass=0.9):
    lo, hi = normal_central(0.5, mass)
    return float(quad_value(0.5, lo)), float(quad_value(0.5, hi))


def sup_error(x, rho, pdf, lo, hi):
    """(sup |rho - pdf| over nodes in [lo, hi], number of such nodes)."""
    x = np.asarray(x, dtype=float)
    m = (x >= lo) & (x <= hi)
    if not np.any(m):
        return math.inf, 0
    return float(np.max(np.abs(np.asarray(rho)[m] - pdf(x[m])))), int(np.sum(m))
