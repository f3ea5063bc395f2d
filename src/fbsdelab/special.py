"""Small special-function kernel: normal density helpers and quadrature."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["norm_pdf", "gauss_laguerre", "gauss_hermite_prob", "integral_from_zero"]


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def gauss_laguerre(n: int):
    """Nodes and weights for int_0^inf e^{-u} f(u) du ~ sum w_i f(u_i)."""
    return np.polynomial.laguerre.laggauss(n)


def gauss_hermite_prob(n: int):
    """Nodes/weights for E[f(Z)], Z standard normal: sum w_i f(x_i)."""
    # imported here: a module-level scipy.special import slows package import
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(n)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def integral_from_zero(fn, targets, n_fine=4001):
    """int_0^s fn(x) dx for every s in targets: trapezoid on them, 0 and n_fine even points."""
    targets = np.asarray(targets, dtype=float)
    lo, hi = min(0.0, float(np.min(targets))), max(0.0, float(np.max(targets)))
    mesh = np.unique(np.concatenate([np.linspace(lo, hi, n_fine), [0.0], targets]))
    vals = fn(mesh)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(mesh))])
    cum -= cum[int(np.searchsorted(mesh, 0.0))]
    return np.interp(targets, mesh, cum)
