"""Every `holds` of a sign criterion against the PDE's own sign of u_x, with no Monte Carlo.

H±, Htilde± and Q± conclude ±∇Y_t > 0, that is ±u_x(t, ·) > 0; Z-lip, Z-quad
and Z-markov-a/b conclude ±∇Z_t > 0, that is ±(u_x σ)_x = ±(u_xx σ + u_x σ_x) > 0.
u_x is the u' solve on a 101 x 401 grid and u_xx its centered difference; each
sign is read on the grid nodes in the middle half of the check's x-box, away
from the artificial boundary closure.
"""

import functools

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.config import parse_config
from fbsdelab.criteria import (first_order_check, quadratic_check, second_order_check,
                               z_lipschitz_check, z_markovian_check, z_quadratic_check)
from fbsdelab.model import default_box

# (b, sigma, g, h, f) on T = 1, X0 = 0, none of them a preset; f is the Markov
# map X_t = f(t, W_t) where z-markovian runs.  The first model is the witness
# on which the '-' weights e^{+sgn K s} published an unsound H- (K = 0.66).
MODELS = [
    ("-0.2*x", "1", "tanh(x) + 0.2*x", "(t - 1.87)*x + 0.46*sin(y)", None),
    ("0", "1", "x", "0.5*y + (t - 2)*x", None),
    ("0.3*sin(x)", "1", "tanh(x)", "0.5*x + 0.2*y", None),
    ("0", "1 + 0.2*tanh(x)", "sin(x) + 2*x", "-0.3*x + 0.1*sin(y)", None),
    ("-0.2*x", "1", "-x^3/(1 + x^2)", "0.4*tanh(y) - 0.5*x", None),
    ("0", "1", "x^3/(1 + x^2) + 0.5*x", "tanh(x) + 0.3*y", None),
    ("0.3*sin(x)", "1 + 0.2*tanh(x)", "-tanh(x) - 0.1*x", "(t - 1)*x - 0.2*y", None),
    ("0", "1", "x^2", "0.5*x + 0.2*y", "w"),
    ("0", "1", "-x^2", "0.05*y - 0.5*x", "w"),
    ("-0.2*x", "1", "-sin(x) - 1.5*x", "0.3*sin(x) - 0.4*y", None),
]
TIMES = (0.1, 0.5, 0.9)
NEGATIVE = ("-", "-b")  # tag suffixes of the packages that conclude a negative sign


@functools.cache
def _verdicts(i):
    """(tag, t, margin, min of the concluded signed quantity) of each `holds` of model i."""
    b, sigma, g, h, f = MODELS[i]
    spec = parse_config(f"[model]\nb = {b}\nsigma = {sigma}\ng = {g}\nh = {h}\n"
                        + (f"f = {f}\n" if f else "")).build_spec()
    grid = fl.default_grid(spec, nt=101, nx=401)
    sp = fl.solve_u_prime(spec, grid, sol_u=fl.solve_u(spec, grid))
    box = default_box(spec)
    quarter = 0.25 * (box.x_hi - box.x_lo)
    mid = np.abs(grid.x_nodes - 0.5 * (box.x_lo + box.x_hi)) <= quarter
    x = grid.x_nodes[mid]
    out = []
    for t in TIMES:
        # Z-lip and Z-quad read their bounds on D_r X and D^2 X off the model
        reps = {**first_order_check(spec, t), **second_order_check(spec, t),
                **quadratic_check(spec, t), **z_lipschitz_check(spec, t),
                **z_quadratic_check(spec, t)}
        if f:
            reps.update(z_markovian_check(spec, t))
        ux, uxx = sp.row(t)[mid], sp.row(t, sp.u_x)[mid]
        zx = uxx * spec.sigma(t, x) + ux * spec.d("sigma_x")(t, x)
        for tag, rep in reps.items():
            if rep.verdict == "holds":
                signed = (-1.0 if tag.endswith(NEGATIVE) else 1.0) * (zx if tag[0] == "Z" else ux)
                out.append((tag, t, rep.margin, float(np.min(signed))))
    return out


@pytest.mark.parametrize("i", range(len(MODELS)))
def test_every_holds_has_the_sign_of_u_x(i):
    unsound = [v for v in _verdicts(i) if not v[3] > 0.0]
    # each entry: (tag, t, margin, min of the concluded signed u_x or (u_x sigma)_x)
    assert not unsound, f"model {MODELS[i]}: {unsound}"


def test_every_sign_criterion_holds_somewhere():
    seen = {tag for i in range(len(MODELS)) for tag, *_ in _verdicts(i)}
    assert seen == {"H+", "H-", "Htilde+", "Htilde-", "Q+", "Q-", "Z-lip", "Z-quad",
                    "Z-markov-a", "Z-markov-b"}
