import dataclasses

import numpy as np
import pytest

import fbsdelab as fl


@pytest.fixture(scope="session")
def counter():
    return fl.preset("ex_counter")


@pytest.fixture(scope="session")
def cubic():
    return fl.preset("ex_cubic")


@pytest.fixture(scope="session")
def quad_exp():
    return fl.preset("ex_quad_exp")


@pytest.fixture(scope="session")
def counter_grids(counter):
    grid = fl.default_grid(counter, nt=161, nx=401)
    su = fl.solve_u(counter, grid)
    sp = fl.solve_u_prime(counter, grid, sol_u=su)
    return grid, su, sp


@pytest.fixture(scope="session")
def cubic_grids(cubic):
    grid = fl.default_grid(cubic, nt=161, nx=801, x_lo=-12.0, x_hi=12.0)
    su = fl.solve_u(cubic, grid)
    sp = fl.solve_u_prime(cubic, grid, sol_u=su)
    return grid, su, sp


@pytest.fixture(scope="session")
def quad_grids(quad_exp):
    grid = fl.default_grid(quad_exp, nt=201, nx=401)
    su = fl.solve_u(quad_exp, grid)
    sp = fl.solve_u_prime(quad_exp, grid, sol_u=su)
    return grid, su, sp


def make_spec(b="zero", sigma="one", g=None, g1=None, g2=None, h=None,
              h_partials=None, T=1.0, X0=0.0, regime="lipschitz", f=None,
              constants=None):
    """Hand-rolled ModelSpec helper for structured test models."""
    zero2 = lambda t, x: np.zeros_like(np.asarray(t, dtype=float) + np.asarray(x, dtype=float))
    one2 = lambda t, x: np.ones_like(np.asarray(t, dtype=float) + np.asarray(x, dtype=float))
    bmap = {"zero": zero2, "one": one2}
    partials = dict(h_partials or {})
    if g1 is not None:
        partials["g1"] = g1
    if g2 is not None:
        partials["g2"] = g2
    return fl.ModelSpec(
        b=bmap.get(b, b), sigma=bmap.get(sigma, sigma),
        g=g if g is not None else (lambda x: np.asarray(x, dtype=float)),
        h=h if h is not None else (lambda t, x, y, z: np.zeros_like(
            np.asarray(t, dtype=float) + np.asarray(x, dtype=float))),
        T=T, X0=X0, regime=regime, partials=partials, markovian_f=f,
        constants=constants or fl.Constants(),
    )


def opaque(spec):
    """The same callables and partials, each behind a lambda that carries no tree."""
    hide = lambda f: lambda *a: f(*a)
    return dataclasses.replace(spec, b=hide(spec.b), sigma=hide(spec.sigma), g=hide(spec.g),
                               h=hide(spec.h), markovian_f=hide(spec.markovian_f),
                               partials={n: hide(f) for n, f in spec.partials.items()})


def assert_same_solution(a, b):
    """Every array of two grid solutions equal bit for bit, and every other field equal."""
    for f in dataclasses.fields(fl.GridSolution):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb, equal_nan=True), f.name
        else:
            assert va == vb and type(va) is type(vb), f.name
