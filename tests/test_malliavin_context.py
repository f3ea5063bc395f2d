"""The r-independent Malliavin context, the held rows of a result and the memory preflight."""

import copy
import dataclasses

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.errors import PreconditionError, ResourceError
from fbsdelab.mc import BasisSpec, PathEnsemble

from conftest import opaque

PRESETS = [("ex_counter", "counter"), ("ex_cubic", "cubic"), ("ex_quad_exp", "quad")]
SOLUTIONS = ["pair", "u", "bsde"]
FIELDS = ("DrX", "DrY", "DrZ", "nablaX")
N_PATHS, N_STEPS, SEED = 400, 16, 31
TIMES = [0.5, 0.75]


def _setup(request, fixture, kind, n_steps=N_STEPS):
    spec = request.getfixturevalue({"quad": "quad_exp"}.get(fixture, fixture))
    _, su, sp = request.getfixturevalue(f"{fixture}_grids")
    ens = fl.simulate_forward(spec, N_PATHS, n_steps, seed=SEED)
    sol = {"pair": (su, sp), "u": su}.get(kind) or fl.solve_bsde_regression(spec, ens)
    return spec, ens, sol


def _assert_same(a, b, times):
    assert a.warnings == b.warnings
    assert a.nodes == b.nodes
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            for t in times:
                assert np.array_equal(a.at(t, name), b.at(t, name)), (name, t)


@pytest.mark.parametrize("preset,fixture", PRESETS)
@pytest.mark.parametrize("kind", SOLUTIONS)
def test_second_r_on_one_ensemble_matches_a_fresh_ensemble(request, preset, fixture, kind):
    spec, ens, sol = _setup(request, fixture, kind)
    fl.solve_malliavin_bsde(spec, ens, sol, r=0.0, times=TIMES, kurtosis_gate=0.1)
    ctx = ens._malliavin
    reused = fl.solve_malliavin_bsde(spec, ens, sol, r=0.25, times=TIMES, kurtosis_gate=0.1)
    assert ens._malliavin is ctx
    spec2, ens2, sol2 = _setup(request, fixture, kind)
    fresh = fl.solve_malliavin_bsde(spec2, ens2, sol2, r=0.25, times=TIMES, kurtosis_gate=0.1)
    _assert_same(reused, fresh, TIMES)


@pytest.mark.parametrize("preset,fixture", PRESETS)
@pytest.mark.parametrize("kind", SOLUTIONS)
def test_changed_inputs_rebuild_the_context(request, preset, fixture, kind):
    spec, ens, sol = _setup(request, fixture, kind)

    def ctx_after(**kw):
        args = dict(spec=spec, ens=ens, sol=sol, r=0.25, times=TIMES) | kw
        m = fl.solve_malliavin_bsde(**args)
        return ens._malliavin, m

    ctx, _ = ctx_after()
    # an equal basis and a repeated time keep the context
    assert ctx_after(basis=BasisSpec(), times=TIMES + [0.5])[0] is ctx
    pw = BasisSpec(kind="pwlinear", n_knots=12)
    rebuilt, m = ctx_after(basis=pw)
    assert rebuilt is not ctx
    _, ens2, sol2 = _setup(request, fixture, kind)
    fresh = fl.solve_malliavin_bsde(spec, ens2, sol2, r=0.25, times=TIMES, basis=pw)
    _assert_same(m, fresh, TIMES)
    copied = (sol[0], copy.copy(sol[1])) if kind == "pair" else copy.copy(sol)
    for change in (dict(times=[0.5]), dict(spec=fl.preset(preset)), dict(sol=copied)):
        before, _ = ctx_after()
        assert ctx_after(**change)[0] is not before, change
    # a rebuilt pair with the same elements is the same solution
    if kind == "pair":
        assert ctx_after(sol=(sol[0], sol[1]))[0] is ens._malliavin


@pytest.mark.parametrize("preset,fixture", PRESETS)
@pytest.mark.parametrize("kind", SOLUTIONS)
def test_ensemble_paths_are_read_only(request, preset, fixture, kind):
    spec, ens, sol = _setup(request, fixture, kind)
    fl.solve_malliavin_bsde(spec, ens, sol, r=0.25, times=TIMES)
    for a in (ens.t_grid, ens.X, ens.dW, ens.X.T, ens.X[:, 3]):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("preset,fixture", PRESETS)
@pytest.mark.parametrize("kind", SOLUTIONS)
def test_result_bytes_follow_requested_columns_not_steps(request, preset, fixture, kind):
    sizes = {}
    for n_steps in (16, 64):
        spec, ens, sol = _setup(request, fixture, kind, n_steps)
        for times in ([0.5], TIMES):
            m = fl.solve_malliavin_bsde(spec, ens, sol, r=0.25, times=times)
            sizes[n_steps, len(times)] = {f: getattr(m, f).nbytes for f in FIELDS
                                          if getattr(m, f) is not None}
            assert not m.at(0.5).flags.writeable
            assert m.nodes == tuple(ens.index_of(t) for t in times)
            assert m.DrY.shape == (len(times), N_PATHS)
    for f, b in sizes[16, 1].items():
        assert b == 8 * N_PATHS
        assert sizes[64, 1][f] == b
        assert sizes[16, 2][f] == sizes[64, 2][f] == 2 * b


def test_unrequested_or_off_grid_times_raise(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 100, 16, seed=2)
    m = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.25, times=[0.5])
    for t in (1.5, 0.75, 0.3125):
        with pytest.raises(PreconditionError, match=f"t={t}"):
            m.at(t)
    with pytest.raises(PreconditionError, match="t=0.3125"):
        fl.z_from_malliavin(m)
    with pytest.raises(PreconditionError, match="DrZ"):
        fl.solve_malliavin_bsde(counter, ens, su, r=0.25, times=[0.5]).at(0.5, "DrZ")


def test_oversized_jobs_raise_before_allocating(counter, counter_grids):
    _, su, sp = counter_grids
    n = 10**9
    with pytest.raises(ResourceError) as exc:
        fl.simulate_forward(counter, n, 256, seed=0)
    assert exc.value.witness == 8 * n * (3 * 256 + 1)
    # zero-stride paths of 1e9 rows take no memory until the context would
    t_grid = np.linspace(0.0, 1.0, 17)
    ens = PathEnsemble(t_grid, np.broadcast_to(0.0, (n, 16)), np.broadcast_to(0.0, (n, 17)), 0)
    with pytest.raises(ResourceError) as exc:
        fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.25, times=[0.5])
    assert exc.value.witness > 8 * n * 17
    assert ens._malliavin is None


def test_preflight_counts_the_variation_only_when_stepped(counter, counter_grids):
    # counter's nablaX is the constant view; behind an opaque b_x it is
    # stepped and its n (n_steps+1) doubles enter the estimate
    _, su, sp = counter_grids
    n = 10**9
    stepped = dataclasses.replace(counter, partials={**counter.partials,
                                                     "b_x": lambda t, x: 0.0 * x})
    witness = {}
    for spec in (counter, stepped):
        ens = PathEnsemble(np.linspace(0.0, 1.0, 17), np.broadcast_to(0.0, (n, 16)),
                           np.broadcast_to(0.0, (n, 17)), 0)
        with pytest.raises(ResourceError) as exc:
            fl.solve_malliavin_bsde(spec, ens, (su, sp), r=0.25, times=[0.5])
        witness[spec is counter] = exc.value.witness
    assert witness[False] - witness[True] == 8 * n * 17


def _counting(fn, calls):
    """``fn`` behind a wrapper that counts its calls and keeps its expression tree."""
    def wrapped(*args):
        calls.append(1)
        return fn(*args)
    wrapped.expression = fn.expression
    return wrapped


@pytest.mark.parametrize("kind", SOLUTIONS)
def test_constant_zero_girsanov_weight_is_not_evaluated(request, kind):
    # counter's h_y and h_z are the constant 0: rho = 1 and the Girsanov
    # exponent 0 are not evaluated, with the bits of the same model whose
    # h_y and h_z are opaque lambdas
    spec, ens, sol = _setup(request, "counter", kind)
    calls = []
    counted = dataclasses.replace(spec, partials={
        **spec.partials, **{n: _counting(spec.partials[n], calls) for n in ("h_y", "h_z")}})
    opaque = dataclasses.replace(spec, partials={
        **spec.partials, **{n: (lambda f: lambda *a: f(*a))(spec.partials[n])
                            for n in ("h_y", "h_z")}})
    assert counted.constant("h_y") == counted.constant("h_z") == 0.0
    assert opaque.constant("h_y") is opaque.constant("h_z") is None
    for r in (0.0, 0.25):
        fast = fl.solve_malliavin_bsde(counted, ens, sol, r=r, times=TIMES)
        ctx = ens._malliavin
        slow = fl.solve_malliavin_bsde(opaque, ens, sol, r=r, times=TIMES)
        _assert_same(fast, slow, TIMES)
        assert np.array_equal(ctx.cond, ens._malliavin.cond)
        assert ctx.kurtosis is ens._malliavin.kurtosis is None
    assert calls == []


def test_yz_is_looked_up_only_where_a_driver_partial_reads_it(counter, counter_grids,
                                                               monkeypatch):
    # counter's h_x = t - 2 and h_y = h_z = 0 read neither y nor z: the context
    # looks no (Y, Z) up and reads the grids only for the D_rZ factor at the
    # requested nodes.  Its opaque twin, whose partials may read both, looks
    # (Y, Z) up at every node, with the same bits
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, N_PATHS, N_STEPS, seed=SEED)
    yz_times, evals = [], []
    yz, evaluate = fl.mc.yz, fl.GridSolution.eval
    monkeypatch.setattr(fl.mc, "yz", lambda *a: yz_times.append(a[3]) or yz(*a))
    monkeypatch.setattr(fl.GridSolution, "eval",
                        lambda self, t, *a, **k: evals.append((self.which, t))
                        or evaluate(self, t, *a, **k))
    fast = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.0, times=TIMES)
    assert yz_times == []
    assert sorted(evals) == [("u_prime", t) for t in TIMES for _ in range(2)]
    yz_times.clear()
    slow = fl.solve_malliavin_bsde(opaque(counter), ens, (su, sp), r=0.0, times=TIMES)
    assert yz_times == list(ens.t_grid[::-1])
    _assert_same(fast, slow, TIMES)
