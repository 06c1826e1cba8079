import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracbspde import bspde, regression
from fracbspde.bspde import (
    BSPDEData,
    _PeriodicStencil,
    PathFunctional,
    RandomFieldSpec,
    RandomTerm,
    fbsde_crosscheck,
    regress_backward,
    solve_bspde_linear_gaussian,
    solve_bspde_regression,
    solve_fourier_deterministic,
    solve_kernel_deterministic,
    solve_pde_variable_coeff,
    space_process_norm,
    verify_holder_estimate,
)
from fracbspde.errors import (
    BlowUp,
    IllConditioned,
    OffGridTime,
    OutOfRange,
    PositivityViolation,
    StabilityError,
    UnsupportedSpec,
)
from fracbspde.fraclap import frac_lap_multiplier
from fracbspde.grid import Grid1D, apply_multiplier, derivative_multiplier
from fracbspde.kernel import CoefficientA, eval_A
from fracbspde.levy import RngStream, feynman_kac_estimate
from fracbspde.regression import project_expectation

GRID = Grid1D(-32.0, 32.0, 256)
XI1 = 2 * np.pi / GRID.length


def make_data(grid=GRID, alpha=1.5, T=1.0, a=None, **kw):
    return BSPDEData(
        grid=grid, alpha=alpha, T=T, a=a or CoefficientA.constant(1.0), **kw
    )


def random_smooth(grid, rng, modes=6):
    vals = np.zeros(grid.n)
    for k in range(1, modes + 1):
        xi = 2 * np.pi * k / grid.length
        vals += rng.normal() * np.cos(xi * grid.x) + rng.normal() * np.sin(xi * grid.x)
    return vals


def test_fourier_single_mode_decay():
    g_term = np.sin(XI1 * GRID.x)
    data = make_data(g=g_term)
    sol = solve_fourier_deterministic(data, n_steps=64)
    for t in (0.0, 0.5, 1.0):
        expected = np.exp(-(1.0 - t) * XI1**1.5) * g_term
        assert np.max(np.abs(sol.u_at(t) - expected)) < 1e-12


def test_fourier_zero_mode_source():
    c0 = 0.8
    data = make_data(g=np.zeros(GRID.n), f=lambda t: np.full(GRID.n, c0))
    sol = solve_fourier_deterministic(data, n_steps=64)
    for t in (0.0, 0.25, 1.0):
        assert np.max(np.abs(sol.u_at(t) - c0 * (1.0 - t))) < 1e-12


def test_fourier_terminal_condition():
    rng = np.random.default_rng(1)
    g_term = random_smooth(GRID, rng)
    data = make_data(g=g_term)
    sol = solve_fourier_deterministic(data, n_steps=32)
    assert np.max(np.abs(sol.u_at(1.0) - g_term)) < 1e-12


def test_kernel_solver_agrees_with_fourier():
    rng = np.random.default_rng(2)
    a = CoefficientA.from_callable(lambda t: 1.0 + 0.4 * np.sin(2 * t), t_max=1.0)
    prof = random_smooth(GRID, rng)
    data = make_data(
        a=a,
        g=random_smooth(GRID, rng),
        f=lambda t: prof * (1.0 + 0.5 * t),
    )
    sf = solve_fourier_deterministic(data, n_steps=48)
    sk = solve_kernel_deterministic(data, n_steps=48)
    assert np.max(np.abs(sf.u - sk.u)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(1.0, 2.0, exclude_min=True),
    n=st.sampled_from([32, 64, 128, 256]),
    n_steps=st.integers(1, 40),
    varying_a=st.booleans(),
    with_f=st.booleans(),
)
def test_fourier_and_kernel_solvers_agree_to_round_off(seed, alpha, n, n_steps, varying_a, with_f):
    # the two routes apply the same multipliers with the same time weights,
    # summed in Fourier and in physical space: they differ by round-off, up to
    # 0.68 eps log2(n) (max|g| + T max|f|) on 300 draws of rough data
    rng = np.random.default_rng(seed)
    half = rng.uniform(4.0, 40.0)
    grid = Grid1D(-half, half, n)
    T = rng.uniform(0.1, 2.0)
    a0 = rng.uniform(0.1, 3.0)
    if varying_a:
        a1, omega = rng.uniform(0.0, 0.45), rng.uniform(0.5, 5.0)
        a = CoefficientA.from_callable(lambda t: a0 * (1 + a1 * np.sin(omega * t)), t_max=T)
    else:
        a = CoefficientA.constant(a0)
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    prof = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) if with_f else np.zeros(n)
    omega_f, phase = rng.uniform(0.0, 5.0), rng.uniform(0.0, 2 * np.pi)
    f = (lambda t: prof * np.cos(omega_f * t + phase)) if with_f else None
    data = BSPDEData(grid=grid, alpha=alpha, T=T, a=a, g=g, f=f)
    sf = solve_fourier_deterministic(data, n_steps=n_steps)
    sk = solve_kernel_deterministic(data, n_steps=n_steps)
    bound = 8 * np.finfo(float).eps * np.log2(n) * (np.abs(g).max() + T * np.abs(prof).max())
    assert np.abs(sf.u - sk.u).max() <= bound


def test_kernel_solver_bump_spreads_like_gaussian():
    # alpha = 2: convolving a Gaussian bump with the kernel adds 2 A to the
    # variance, so the solution is the widened Gaussian in closed form
    sigma0 = 1.5
    g_term = np.exp(-GRID.x**2 / (2 * sigma0**2))
    data = make_data(alpha=2.0, g=g_term)
    sol = solve_kernel_deterministic(data, n_steps=32)
    t = 0.25
    var = sigma0**2 + 2 * (1.0 - t)
    expected = sigma0 / np.sqrt(var) * np.exp(-GRID.x**2 / (2 * var))
    assert np.max(np.abs(sol.u_at(t) - expected)) < 1e-9


def test_kernel_solver_terminal_exact():
    g_term = np.exp(-GRID.x**2)
    data = make_data(g=g_term)
    sol = solve_kernel_deterministic(data, n_steps=16)
    assert np.array_equal(sol.u_at(1.0), g_term)


def test_solver_linearity():
    rng = np.random.default_rng(3)
    g1, g2 = random_smooth(GRID, rng), random_smooth(GRID, rng)
    p1, p2 = random_smooth(GRID, rng), random_smooth(GRID, rng)
    d1 = make_data(g=g1, f=lambda t: p1 * (1 + t))
    d2 = make_data(g=g2, f=lambda t: p2 * np.cos(t))
    d12 = make_data(g=2 * g1 - g2, f=lambda t: 2 * (p1 * (1 + t)) - p2 * np.cos(t))
    u1 = solve_fourier_deterministic(d1, n_steps=32).u
    u2 = solve_fourier_deterministic(d2, n_steps=32).u
    u12 = solve_fourier_deterministic(d12, n_steps=32).u
    assert np.max(np.abs(u12 - (2 * u1 - u2))) < 1e-10


def test_mode_decoupling():
    g_term = np.sin(3 * XI1 * GRID.x)
    data = make_data(g=g_term)
    sol = solve_fourier_deterministic(data, n_steps=32)
    spec = np.abs(np.fft.fft(sol.u_at(0.5)))
    k3 = 3 % GRID.n
    km3 = -3 % GRID.n
    off = np.delete(spec, [k3, km3])
    assert off.max() < 1e-10 * spec.max()


def test_comparison_principle_diffusion_only():
    g_term = np.exp(-GRID.x**2)  # nonnegative bump
    data = make_data(g=g_term, f=lambda t: 0.1 * np.exp(-GRID.x**2))
    sol = solve_kernel_deterministic(data, n_steps=32)
    assert sol.u.min() > -1e-8


def test_pde_solver_degenerates_to_kernel_solver():
    a = CoefficientA.from_callable(lambda t: 1.0 + 0.3 * np.cos(t), t_max=1.0)
    prof = np.exp(-GRID.x**2 / 4)
    data = make_data(a=a, g=np.sin(XI1 * GRID.x), f=lambda t: prof)
    ref = solve_kernel_deterministic(data, n_steps=256)
    got = solve_pde_variable_coeff(data, n_steps=256)
    assert np.max(np.abs(ref.u_at(0.0) - got.u_at(0.0))) < 1e-6


def test_pde_solver_constant_zero_order_term():
    c0 = 0.5
    g_term = np.sin(2 * XI1 * GRID.x)
    base = make_data(g=g_term)
    with_c = make_data(g=g_term, c=lambda t: np.full(GRID.n, c0))
    u0 = solve_pde_variable_coeff(base, n_steps=64)
    uc = solve_pde_variable_coeff(with_c, n_steps=64)
    for t in (0.0, 0.5):
        expected = np.exp(c0 * (1.0 - t)) * u0.u_at(t)
        assert np.max(np.abs(uc.u_at(t) - expected)) < 1e-6


def test_pde_solver_constant_drift_shifts():
    # backward equation with u_t = a Lap u - b u_x: u(t, x) = u0(t, x + b (T - t))
    b0 = GRID.dx * 16  # shift at t = 0 lands exactly on the grid
    g_term = np.sin(XI1 * GRID.x)
    base = make_data(g=g_term)
    drift = make_data(g=g_term, b=lambda t: np.full(GRID.n, b0))
    u0 = solve_pde_variable_coeff(base, n_steps=64)
    ub = solve_pde_variable_coeff(drift, n_steps=64)
    shifted = np.roll(u0.u_at(0.0), -16)  # u0(x + 16 dx)
    assert np.max(np.abs(ub.u_at(0.0) - shifted)) < 1e-9


def test_pde_solver_first_order_in_time():
    a_xt = lambda t: 1.0 + 0.25 * np.cos(2 * np.pi * GRID.x / GRID.length) * np.cos(t)
    b_xt = lambda t: 0.3 * np.sin(2 * np.pi * GRID.x / GRID.length)
    g_term = np.exp(-GRID.x**2 / 8)
    sols = {}
    for n in (32, 64, 128):
        data = make_data(g=g_term, a_xt=a_xt, b=b_xt)
        sols[n] = solve_pde_variable_coeff(data, n_steps=n).u_at(0.0)
    d1 = np.max(np.abs(sols[32] - sols[64]))
    d2 = np.max(np.abs(sols[64] - sols[128]))
    order = np.log2(d1 / d2)
    assert 0.6 < order < 1.6


def test_pde_solver_stability_guard():
    sharp = lambda t: 1.0 + 0.9 * np.sign(np.sin(8 * np.pi * GRID.x / GRID.length))
    data = make_data(g=np.sin(XI1 * GRID.x), a_xt=sharp)
    with pytest.raises(StabilityError):
        solve_pde_variable_coeff(data, n_steps=4)


@pytest.mark.parametrize("a_xt", [
    lambda t: np.full(GRID.n, -4.0),  # ran, and grew data of amplitude 1 to max |u| 1.131
    lambda t: 1.0 + 3.0 * np.sin(XI1 * GRID.x),  # negative on part of the box
    lambda t: np.where(GRID.x > 0, np.nan, 1.0),
    lambda t: np.full(GRID.n, 1.0 - 2.0 * t),  # reaches 0 at t = 1/2 and goes below
], ids=["constant", "partly_negative", "nan", "zero_at_a_step_time"])
def test_pde_solver_rejects_a_diffusivity_not_above_zero_before_any_step(a_xt):
    stepped = []
    data = make_data(g=np.sin(XI1 * GRID.x), a_xt=a_xt, c=lambda t: stepped.append(t) or np.zeros(GRID.n))
    with pytest.raises(PositivityViolation, match="a_xt"):
        solve_pde_variable_coeff(data, n_steps=64)
    assert stepped == []


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
def test_data_rejects_a_horizon_not_above_zero(T):
    # a NaN T built, then failed in eval_A with "coefficient bounds inconsistent"
    with pytest.raises(ValueError, match="horizon T must be > 0"):
        make_data(T=T, g=np.zeros(GRID.n))


@pytest.mark.parametrize(
    "solve",
    [
        solve_fourier_deterministic,
        solve_kernel_deterministic,
        solve_pde_variable_coeff,
        lambda data, n_steps: solve_bspde_linear_gaussian(
            make_data(g=affine_terminal(np.sin(XI1 * GRID.x), 0.0, 1.0, 1.0), f=data.f),
            n_paths=8, rng=RngStream(0), n_steps=n_steps,
        ),
        lambda data, n_steps: solve_bspde_regression(
            data, n_paths=8, rng=RngStream(0), n_steps=n_steps
        ),
    ],
)
def test_non_finite_solution_raises(solve):
    # the transform of a source near the largest double overflows
    data = make_data(g=np.sin(XI1 * GRID.x), f=lambda t: np.full(GRID.n, 1e308))
    with np.errstate(all="ignore"), pytest.raises(BlowUp, match="not finite"):
        solve(data, n_steps=8)


def test_fourier_solver_transforms_no_absent_source(monkeypatch):
    calls = []
    fft = np.fft.fft

    def counting_fft(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    solve_fourier_deterministic(make_data(g=np.sin(XI1 * GRID.x)), n_steps=8)
    assert calls == [(GRID.n,)]  # the terminal condition only


def affine_terminal(profile, c0, c1, T):
    return RandomFieldSpec(
        terms=(RandomTerm(profile, PathFunctional.affine_in_w(T, c0, c1)),)
    )


def test_linear_gaussian_reduces_to_deterministic():
    prof = np.exp(-GRID.x**2 / 2)
    spec = affine_terminal(prof, 0.7, 0.0, 1.0)
    data = make_data(g=spec)
    sol, _ = solve_bspde_linear_gaussian(data, n_paths=8, rng=RngStream(5), n_steps=32)
    det = solve_fourier_deterministic(make_data(g=0.7 * prof), n_steps=32)
    for t in (0.0, 0.5, 1.0):
        diff = sol.u_at(t) - det.u_at(t)[None, :]
        assert np.max(np.abs(diff)) < 1e-10
    assert np.max(np.abs(sol.v)) < 1e-12


def test_linear_gaussian_terminal_pathwise():
    prof = np.sin(XI1 * GRID.x)
    c0, c1, T = 0.4, 1.3, 1.0
    data = make_data(g=affine_terminal(prof, c0, c1, T))
    n_steps = 32
    sol, w = solve_bspde_linear_gaussian(data, n_paths=64, rng=RngStream(7), n_steps=n_steps)
    w_T = w[:, -1]
    expected = (c0 + c1 * w_T)[:, None] * prof[None, :]
    assert np.max(np.abs(sol.u_at(T) - expected)) < 1e-10


def test_linear_gaussian_paths_are_the_regression_paths(monkeypatch):
    # the CLI, the regression-bspde check and the benchmark compare the two
    # solvers path by path: W from the closed form must be the cumulative sum
    # of the increments that the regression solver draws from the same stream
    drawn = []

    def recording(increments, *args):
        drawn.append(increments)
        return regress_backward(increments, *args)

    monkeypatch.setattr("fracbspde.bspde.regress_backward", recording)
    data = make_data(g=affine_terminal(np.sin(XI1 * GRID.x), 0.2, 1.0, 1.0))
    n_steps, out_times = 16, [0.0, 0.25, 1.0]
    _, w = solve_bspde_linear_gaussian(
        data, n_paths=32, rng=RngStream(3), n_steps=n_steps, output_times=out_times
    )
    solve_bspde_regression(
        data, n_paths=32, rng=RngStream(3), n_steps=n_steps, output_times=out_times
    )
    (increments,) = drawn
    w_cum = np.concatenate([np.zeros((32, 1)), np.cumsum(increments, axis=1)], axis=1)
    assert w.shape == (32, len(out_times))
    np.testing.assert_array_equal(w, w_cum[:, [0, 4, 16]])


def test_linear_gaussian_v_is_propagated_profile():
    prof = np.exp(-GRID.x**2 / 3)
    c1 = 0.9
    data = make_data(g=affine_terminal(prof, 0.2, c1, 1.0))
    sol, _ = solve_bspde_linear_gaussian(data, n_paths=4, rng=RngStream(9), n_steps=32)
    lam = np.abs(GRID.xi) ** 1.5
    for t in (0.0, 0.5, 1.0):  # v(T) = c1 times the profile
        A = 1.0 - t
        expected = c1 * np.real(np.fft.ifft(np.exp(-A * lam) * np.fft.fft(prof)))
        assert np.max(np.abs(sol.v_at(t) - expected)) < 1e-10


def test_linear_gaussian_rejects_bad_spec():
    prof = np.ones(GRID.n)
    quad = RandomFieldSpec(
        terms=(RandomTerm(prof, PathFunctional(quadratic=((1.0, 1.0, 1.0),))),)
    )
    data = make_data(g=quad)
    with pytest.raises(UnsupportedSpec):
        solve_bspde_linear_gaussian(data, n_paths=2, rng=RngStream(1))
    data2 = make_data(g=affine_terminal(prof, 0.0, 1.0, 1.0), sigma=0.3)
    with pytest.raises(UnsupportedSpec):
        solve_bspde_linear_gaussian(data2, n_paths=2, rng=RngStream(1))


@pytest.mark.parametrize("sigma", [float("nan"), lambda t: float("nan") if t > 0.5 else 0.0])
def test_linear_gaussian_rejects_a_nan_sigma(sigma):
    # abs(nan) > 1e-14 is False: a NaN sigma passed as zero, and the solve ran
    prof = np.ones(GRID.n)
    data = make_data(g=affine_terminal(prof, 0.0, 1.0, 1.0), sigma=sigma)
    with pytest.raises(UnsupportedSpec):
        solve_bspde_linear_gaussian(data, n_paths=2, rng=RngStream(1))


def dense_closed_form(data, n_steps, out_times, w):
    """u and v of the closed form as dense arrays, u (paths, times, n) built term by
    term into one array: the reference for the factored solution."""
    def part(terminal, f):
        det = make_data(grid=data.grid, alpha=data.alpha, T=data.T, a=data.a, g=terminal, f=f)
        return solve_fourier_deterministic(det, n_steps=n_steps, output_times=out_times).u

    u = np.zeros((w.shape[0], len(out_times), data.grid.n))
    if data.f is not None:
        u[:] = part(np.zeros(data.grid.n), data.f)
    v = np.zeros((len(out_times), data.grid.n))
    for profile, c0, c1 in data.g.affine_terms(data.T):
        prop = part(profile, None)
        for row in range(len(out_times)):
            u[:, row] += (c0 + c1 * w[:, row])[:, None] * prop[row]
        v += c1 * prop
    return u, v


SMALL = Grid1D(-8.0, 8.0, 32)


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1, max_size=3),
    with_f=st.booleans(),
    picks=st.lists(st.integers(0, 16), min_size=1, max_size=5),
    paths=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_factored_closed_form_is_the_dense_one_bit_for_bit(coeffs, with_f, picks, paths, seed):
    rng = np.random.default_rng(seed)
    spec = RandomFieldSpec(terms=tuple(
        RandomTerm(random_smooth(SMALL, rng, modes=3), PathFunctional.affine_in_w(1.0, c0, c1))
        for c0, c1 in coeffs
    ))
    src = random_smooth(SMALL, rng, modes=3)
    f = (lambda t: src * (1.0 + t)) if with_f else None
    data = make_data(grid=SMALL, g=spec, f=f)
    out_times = np.linspace(0.0, 1.0, 17)[sorted(set(picks))]
    sol, w = solve_bspde_linear_gaussian(
        data, n_paths=paths, rng=RngStream(seed), n_steps=16, output_times=out_times
    )
    u_ref, v_ref = dense_closed_form(data, 16, out_times, w)
    for row, t in enumerate(sol.times):
        assert sol.u_at(t).tobytes() == u_ref[:, row].tobytes()
    assert sol.u.tobytes() == u_ref.tobytes()
    assert sol.v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize(
    "terms",
    [
        [(2.0, 1e308)],  # the product overflows
        [(1.0, 1e308), (1.0, 1e308)],  # each product is finite, their sum is not
        [(1.0, float("nan"))],
    ],
)
def test_closed_form_raises_when_an_entry_of_u_is_not_finite(terms):
    spec = RandomFieldSpec(terms=tuple(
        RandomTerm(np.full(SMALL.n, amp), PathFunctional.affine_in_w(1.0, c0, 0.0)) for amp, c0 in terms
    ))
    data = make_data(grid=SMALL, g=spec)
    with np.errstate(over="ignore", invalid="ignore"):
        _, w = solve_bspde_linear_gaussian(  # sin terminal data: the same paths, finite
            make_data(grid=SMALL, g=affine_terminal(np.sin(SMALL.x), 0.0, 1.0, 1.0)),
            n_paths=4, rng=RngStream(2), n_steps=8,
        )
        u_ref, _ = dense_closed_form(data, 8, np.linspace(0.0, 1.0, 9), w)
        assert not np.all(np.isfinite(u_ref))
        with pytest.raises(BlowUp, match="not finite"):
            solve_bspde_linear_gaussian(data, n_paths=4, rng=RngStream(2), n_steps=8)


@pytest.mark.parametrize(
    "terms",
    [
        [(1.0, 1e301)],  # the bound reads 1e301: the rows are read, and pass
        [(1.0, 1e308), (1.0, -1e308)],  # the bound overflows; the terms cancel
    ],
)
def test_closed_form_with_finite_entries_does_not_raise(terms):
    spec = RandomFieldSpec(terms=tuple(
        RandomTerm(np.full(SMALL.n, amp), PathFunctional.affine_in_w(1.0, c0, 0.0)) for amp, c0 in terms
    ))
    data = make_data(grid=SMALL, g=spec)
    sol, w = solve_bspde_linear_gaussian(data, n_paths=4, rng=RngStream(2), n_steps=8)
    u_ref, _ = dense_closed_form(data, 8, sol.times, w)
    assert np.all(np.isfinite(u_ref))
    assert sol.u.tobytes() == u_ref.tobytes()


def test_closed_form_holds_no_dense_ensemble():
    # one (paths, times, n) array at 3600 paths, 5 output times and n = 256 is
    # 35 MiB; the factors and W's path are a few MiB
    data = make_data(g=affine_terminal(np.sin(XI1 * GRID.x), 0.3, 1.0, 1.0))
    out_times = [0.0, 0.25, 0.5, 0.75, 1.0]
    solve_bspde_linear_gaussian(data, n_paths=8, rng=RngStream(1), n_steps=64, output_times=out_times)
    tracemalloc.start()
    try:
        solve_bspde_linear_gaussian(
            data, n_paths=3600, rng=RngStream(1), n_steps=64, output_times=out_times
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def euler_multiplier_bias(a: CoefficientA, lam_k: float, n_steps: int, T: float, i: int):
    """|prod_j (1 - a(t_{j+1}) lam dt) - exp(-lam A_{T,t_i})| for the scheme."""
    times = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    prod = 1.0
    for j in range(i, n_steps):
        prod *= 1.0 - a(np.asarray([times[j + 1]]))[0] * lam_k * dt
    exact = np.exp(-lam_k * eval_A(a, times[i], T)) if i < n_steps else 1.0
    return abs(prod - exact)


def test_regression_collapses_to_deterministic():
    g_term = np.sin(XI1 * GRID.x)
    data = make_data(g=g_term)
    n_steps = 512
    sol = solve_bspde_regression(data, n_paths=64, rng=RngStream(11), n_steps=n_steps)
    det = solve_fourier_deterministic(data, n_steps=64)
    for t in (0.0, 0.5):
        got = sol.u_values(t)
        assert np.max(np.abs(got - det.u_at(t)[None, :])) < 1e-6


def test_off_grid_times_raise():
    data = make_data(g=np.sin(XI1 * GRID.x))
    with pytest.raises(OffGridTime):
        solve_fourier_deterministic(data, n_steps=16, output_times=[0.3])
    sol = solve_bspde_regression(
        data, n_paths=16, rng=RngStream(5), n_steps=16, output_times=[0.0, 0.5]
    )
    for t in (0.25, 0.3):  # a step-grid time that was not output, and an off-grid one
        with pytest.raises(OffGridTime):
            sol.u_values(t)


def test_regression_matches_linear_gaussian_closed_form():
    # the regression error is a common (across-path) projection shift, so the
    # standard error comes from independent replications, not per-path spread
    prof = np.sin(XI1 * GRID.x)
    c0, c1, T = 0.3, 1.0, 1.0
    data = make_data(g=affine_terminal(prof, c0, c1, T))
    n_paths, n_steps, n_reps = 1500, 64, 8
    lam1 = XI1**1.5
    probes = (0.0, 0.5)
    x_idx = GRID.n // 4  # near the sine crest
    du = {t: [] for t in probes}
    dv = {t: [] for t in probes}
    for rep in range(n_reps):
        stream = RngStream(13, rep)
        closed, _ = solve_bspde_linear_gaussian(
            data, n_paths=n_paths, rng=stream, n_steps=n_steps
        )
        reg = solve_bspde_regression(data, n_paths=n_paths, rng=stream, n_steps=n_steps)
        for t in probes:
            du[t].append(np.mean(reg.u_values(t)[:, x_idx] - closed.u_at(t)[:, x_idx]))
            dv[t].append(np.mean(reg.v_values(t)[:, x_idx] - closed.v_at(t)[x_idx]))
    for t in probes:
        i = int(round(t * n_steps))
        bias = euler_multiplier_bias(data.a, lam1, n_steps, T, i) * (
            abs(c0) + abs(c1) * np.sqrt(T) * 3
        )
        for diffs, extra_bias in ((du[t], bias), (dv[t], bias * abs(c1))):
            arr = np.asarray(diffs)
            se = arr.std(ddof=1) / np.sqrt(n_reps)
            assert abs(arr.mean()) <= 3 * se + extra_bias, (t, arr.mean(), se)


def test_regression_random_source_matches_closed_form():
    # f = phi(x) W_t with g = 0, sigma = 0: u(t) = W_t U(t) and v(t) = U(t), where
    # U solves the deterministic equation with source phi and zero terminal value
    T, n_paths, n_steps, n_reps = 1.0, 1000, 32, 8
    prof = np.sin(XI1 * GRID.x)
    data = make_data(g=np.zeros(GRID.n), f=affine_terminal(prof, 0.0, 1.0, T))
    t, i, x_idx = 0.5, n_steps // 2, GRID.n // 4  # |phi| = 1 at x_idx
    U = solve_fourier_deterministic(make_data(g=np.zeros(GRID.n), f=lambda s: prof), n_steps)
    U_t = U.u_at(t)[x_idx]
    # per mode the explicit scheme gives u_i = W_i V_i and v_i = V_{i+1}, with
    # V_N = 0 and V_j = (1 - lam dt) V_{j+1} + dt; the exact V is (1 - e^{-lam (T - t)}) / lam
    lam1, dt = XI1**1.5, T / n_steps
    V = np.zeros(n_steps + 1)
    for j in range(n_steps - 1, -1, -1):
        V[j] = (1.0 - lam1 * dt) * V[j + 1] + dt
    exact = (1.0 - np.exp(-lam1 * (T - t))) / lam1
    bias_u, bias_v = abs(V[i] - exact), abs(V[i + 1] - exact)
    # the zero-profile terminal spec makes the closed-form solver report the paths
    w_spec = make_data(g=affine_terminal(np.zeros(GRID.n), 0.0, 1.0, T))
    slopes, v_means = [], []
    for rep in range(n_reps):
        stream = RngStream(29, rep)
        _, w = solve_bspde_linear_gaussian(
            w_spec, n_paths=n_paths, rng=stream, n_steps=n_steps, output_times=[t]
        )
        w_t = w[:, 0]
        reg = solve_bspde_regression(data, n_paths=n_paths, rng=stream, n_steps=n_steps)
        # the coefficient of W_t in u(t) at x, and the path mean of v(t)
        slopes.append(np.mean(reg.u_values(t)[:, x_idx] * w_t) / np.mean(w_t**2))
        v_means.append(np.mean(reg.v_values(t)[:, x_idx]))
    for values, bias in ((slopes, bias_u), (v_means, bias_v)):
        arr = np.asarray(values) - U_t
        se = arr.std(ddof=1) / np.sqrt(n_reps)
        assert abs(arr.mean()) <= 3 * se + bias, (arr.mean(), se, bias)


def test_regression_deterministic_v_below_noise_floor():
    g_term = np.sin(XI1 * GRID.x) + 0.5 * np.cos(2 * XI1 * GRID.x)
    data = make_data(g=g_term)
    sol = solve_bspde_regression(data, n_paths=2000, rng=RngStream(17), n_steps=32)
    for t in (0.0, 0.5):
        v = sol.v_values(t)
        rms = float(np.sqrt(np.mean(v**2)))
        assert rms <= 3.0 * sol.v_noise_floor(t)


def test_regression_v_at_terminal_time_is_last_step_fit():
    # the scheme does not define v at T; it is the fit of step N-1, near the
    # closed form v(T) = c1 times the profile
    data = make_data(g=affine_terminal(np.sin(8 * XI1 * GRID.x), 0.3, 1.0, 1.0))
    n_steps = 64
    reg = solve_bspde_regression(data, n_paths=2000, rng=RngStream(1), n_steps=n_steps)
    np.testing.assert_array_equal(reg.v_values(1.0), reg.v_values(1.0 - 1.0 / n_steps))
    assert reg.v_noise_floor(1.0) == reg.v_noise_floor(1.0 - 1.0 / n_steps)
    # column 8 sits on a crest of the profile; the path mean's SE is about 0.19
    assert abs(reg.v_values(1.0)[:, 8].mean() - 1.0) < 0.2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_feat=st.integers(1, 6),
    cols=st.integers(1, 4),
    complex_targets=st.booleans(),
    per_column_vol=st.booleans(),
    dt=st.floats(1e-3, 1.0),
)
def test_one_projection_per_step_matches_two(
    seed, n_feat, cols, complex_targets, per_column_vol, dt
):
    # regress_backward projects [Y dW/dt, Y + dt drift] once and adds dt vol Z
    # afterwards; Z lies in the design span, so this equals projecting
    # Y + dt (drift + vol Z) after Z
    rng = np.random.default_rng(seed)
    n_paths = int(rng.integers(4 * n_feat, 200))
    design = np.column_stack([np.ones(n_paths), rng.normal(size=(n_paths, n_feat - 1))])

    def draw():
        out = rng.normal(size=(n_paths, cols))
        return out + 1j * rng.normal(size=(n_paths, cols)) if complex_targets else out

    Y, drift, z_target = draw(), draw(), draw()
    vol = rng.normal(size=cols) if per_column_vol else float(rng.normal())
    fitted, _, _ = project_expectation(design, np.hstack([z_target, Y + dt * drift]))
    Z = fitted[:, :cols]
    one = fitted[:, cols:] + dt * vol * Z
    Z_alone, _, _ = project_expectation(design, z_target)
    np.testing.assert_allclose(Z, Z_alone, rtol=0, atol=1e-12 * np.abs(Z_alone).max())
    target = Y + dt * (drift + vol * Z_alone)
    two, _, _ = project_expectation(design, target)
    np.testing.assert_allclose(one, two, rtol=0, atol=1e-12 * np.abs(target).max())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_feat=st.integers(1, 8),
    collinearity=st.floats(1e-6, 1.0),
    cols=st.integers(1, 4),
    complex_targets=st.booleans(),
)
def test_projection_cond_is_the_design_cond(seed, n_feat, collinearity, cols, complex_targets):
    # cond comes from the singular values of the least-squares solve; the
    # reference is a separate SVD of the column-scaled design.  The smallest
    # singular value is accurate to about eps times the largest, so the
    # relative tolerance grows with cond.
    rng = np.random.default_rng(seed)
    n_paths = int(rng.integers(4 * n_feat + 4, 300))
    feats = rng.normal(size=(n_paths, n_feat)) * rng.uniform(0.1, 10.0, n_feat)
    # the last feature leans toward the first: from independent to near-collinear
    near = feats[:, :1] + collinearity * rng.normal(size=(n_paths, 1))
    design = np.column_stack([np.ones(n_paths), feats, near])
    targets = rng.normal(size=(n_paths, cols))
    if complex_targets:
        targets = targets + 1j * rng.normal(size=(n_paths, cols))
    scale = np.linalg.norm(design, axis=0) / np.sqrt(n_paths)
    reference = np.linalg.cond(design / scale)
    with patch.object(regression, "COND_LIMIT", np.inf):
        _, _, cond = project_expectation(design, targets)
    assert abs(cond - reference) <= 1e-12 * reference * reference
    with patch.object(regression, "COND_LIMIT", reference * (1 + 1e-6)):
        project_expectation(design, targets)
    with patch.object(regression, "COND_LIMIT", reference * (1 - 1e-6)), pytest.raises(IllConditioned):
        project_expectation(design, targets)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_feat=st.integers(1, 6),
    cols=st.integers(1, 5),
    extra=st.integers(0, 5),
    complex_targets=st.booleans(),
    zero_feature=st.booleans(),
)
def test_projection_standard_errors_of_leading_columns(
    seed, n_feat, cols, extra, complex_targets, zero_feature
):
    # se_cols computes the standard errors of the leading columns only; every
    # output must equal the all-column computation bit for bit, including a
    # single column and a design with a dropped all-zero feature
    rng = np.random.default_rng(seed)
    n_paths = int(rng.integers(4 * n_feat + 4, 400))
    design = np.column_stack([np.ones(n_paths), rng.normal(size=(n_paths, n_feat))])
    if zero_feature:
        design[:, -1] = 0.0
    targets = rng.normal(size=(n_paths, cols + extra))
    if complex_targets:
        targets = targets + 1j * rng.normal(size=targets.shape)
    fitted_all, se_all, cond_all = project_expectation(design, targets)
    fitted, se, cond = project_expectation(design, targets, se_cols=cols)
    assert se.shape == (cols,)
    assert np.array_equal(fitted, fitted_all)
    assert np.array_equal(se, se_all[:cols])
    assert cond == cond_all


def test_regression_sigma_invariance_for_deterministic_data():
    # with deterministic data the Girsanov factor integrates out: u must not
    # depend on sigma beyond replication noise
    g_term = np.sin(XI1 * GRID.x)
    base = make_data(g=g_term)
    shifted = make_data(g=g_term, sigma=0.5)
    n_paths, n_steps, n_reps = 1000, 32, 8
    x_idx = GRID.n // 4
    diffs = []
    for rep in range(n_reps):
        u0 = solve_bspde_regression(
            base, n_paths=n_paths, rng=RngStream(19, rep), n_steps=n_steps
        )
        u1 = solve_bspde_regression(
            shifted, n_paths=n_paths, rng=RngStream(19, rep), n_steps=n_steps
        )
        diffs.append(
            np.mean(u1.u_values(0.0)[:, x_idx]) - np.mean(u0.u_values(0.0)[:, x_idx])
        )
    arr = np.asarray(diffs)
    se = arr.std(ddof=1) / np.sqrt(n_reps)
    assert abs(arr.mean()) <= 3 * se + 1e-12


def test_regression_quadratic_terminal_functional():
    # g = phi(x) W_T^2 is outside the affine closed form but inside the
    # degree-2 regression basis; at t = 0 the fitted solution is the sample
    # mean, so E[W_T^2] = T gives u(0) ~= T R_0^T phi up to the scheme bias
    prof = np.sin(XI1 * GRID.x)
    T = 1.0
    spec = RandomFieldSpec(
        terms=(RandomTerm(prof, PathFunctional(quadratic=((T, T, 1.0),))),)
    )
    data = make_data(g=spec, T=T)
    n_paths, n_steps = 3000, 64
    reg = solve_bspde_regression(data, n_paths=n_paths, rng=RngStream(59), n_steps=n_steps)
    lam = np.abs(GRID.xi) ** 1.5
    expected = T * np.real(np.fft.ifft(np.exp(-lam * T) * np.fft.fft(prof)))
    got = reg.u_values(0.0).mean(axis=0)
    bias = euler_multiplier_bias(data.a, XI1**1.5, n_steps, T, 0) * T
    se = np.sqrt(2.0) * T / np.sqrt(n_paths)  # sd of mean(W_T^2)
    assert np.max(np.abs(got - expected)) <= 3.0 * se + bias


def test_regression_ill_conditioned_raises():
    data = make_data(g=np.sin(XI1 * GRID.x))
    with patch.object(regression, "COND_LIMIT", 1.0), pytest.raises(IllConditioned):
        solve_bspde_regression(data, n_paths=200, rng=RngStream(29), n_steps=16)


def test_regression_stability_guard():
    # retaining a high mode under a coarse step trips the diffusion number
    g_term = np.sin(60 * XI1 * GRID.x)
    data = make_data(g=g_term)
    with pytest.raises(StabilityError):
        solve_bspde_regression(data, n_paths=50, rng=RngStream(31), n_steps=4)


BOX16 = Grid1D(-8.0, 8.0, 16)  # xi_max = pi; mode 1 peaks at a node


def named_steps(message: str) -> int:
    return int(re.fullmatch(r".*; raise n_steps to at least (\d+)", message).group(1))


def raises_stability(solve, n_steps):
    try:
        solve(n_steps)
    except StabilityError as exc:
        return str(exc)
    return None


# frac of the count c at which a number proportional to dt reaches 1: the
# guards fail on ceil(frac c) steps, save where that count is c itself
FRAC = st.floats(0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    spread_a=st.sampled_from([0.0, 0.3, 0.9]),
    spread_b=st.sampled_from([0.0, 0.5, 7.0, 60.0]),
    T=st.sampled_from([0.25, 1.0, 1.9]),
    frac=FRAC,
)
def test_residual_guard_names_the_least_step_count_that_passes(spread_a, spread_b, T, frac):
    assume(spread_a or spread_b)
    mode1 = np.sin(2 * np.pi * BOX16.x / BOX16.length)  # spread 1 about its mean 0
    data = make_data(
        grid=BOX16, T=T, g=mode1,
        a_xt=(lambda t: 1.0 + spread_a * mode1) if spread_a else None,
        b=(lambda t: spread_b * mode1) if spread_b else None,
    )
    solve = lambda n: solve_pde_variable_coeff(data, n_steps=n, output_times=[0.0])
    message = raises_stability(solve, max(1, math.ceil(frac * max(spread_a * np.pi**1.5, spread_b * np.pi) * T)))
    assume(message is not None)
    assert message.startswith("explicit residual number ")
    named = named_steps(message)
    assert raises_stability(solve, named) is None
    assert named_steps(raises_stability(solve, named - 1)) == named


@settings(max_examples=15, deadline=None)
@given(
    mode=st.integers(2, 7),  # mode 8, the Nyquist sine, vanishes at the nodes
    a=st.sampled_from([3.0, 20.0]),
    T=st.sampled_from([1.0, 1.9]),
    frac=FRAC,
)
def test_diffusion_number_names_the_least_step_count_that_passes(mode, a, T, frac):
    xi = mode * 2 * np.pi / BOX16.length
    data = make_data(grid=BOX16, T=T, a=CoefficientA.constant(a), g=np.sin(xi * BOX16.x))
    solve = lambda n: solve_bspde_regression(data, n_paths=8, rng=RngStream(5), n_steps=n,
                                             output_times=[0.0])
    message = raises_stability(solve, max(1, math.ceil(frac * xi**1.5 * a * T)))
    assume(message is not None)
    assert message.startswith("explicit diffusion number a|xi|^alpha dt = ")
    named = named_steps(message)
    assert raises_stability(solve, named) is None
    assert named_steps(raises_stability(solve, named - 1)) == named


def _guarded_solvers():
    """(id, n_steps -> solve, the count named, the step multiple of its times) of
    both guarded solvers, the least count passing the guard off their time grid."""
    mode1 = np.sin(2 * np.pi * BOX16.x / BOX16.length)
    pde = make_data(grid=BOX16, g=mode1, b=lambda t: 7.0 * mode1)  # 22 steps pass
    quarters = [0.0, 0.25, 0.5, 0.75, 1.0]
    yield "pde-quarters", lambda n: solve_pde_variable_coeff(pde, n, output_times=quarters), 24, 4
    wave = np.sin(np.pi / 4 * BOX16.x)
    reg = make_data(grid=BOX16, a=CoefficientA.constant(20.0), g=wave)  # 14 steps pass
    regression = lambda data, times: lambda n: solve_bspde_regression(
        data, n_paths=8, rng=RngStream(5), n_steps=n, output_times=times)
    yield "regression-quarters", regression(reg, quarters), 16, 4
    third = make_data(grid=BOX16, a=CoefficientA.constant(20.0),
                      g=RandomFieldSpec(terms=(RandomTerm(wave, PathFunctional.affine_in_w(1 / 3, 0.0, 1.0)),)))
    yield "regression-w-at-a-third", regression(third, [0.0]), 15, 3
    yield "regression-both", regression(third, [0.0, 0.25]), 24, 12


@pytest.mark.parametrize("solve, named, multiple", [case[1:] for case in _guarded_solvers()],
                         ids=[case[0] for case in _guarded_solvers()])
def test_named_step_count_holds_the_output_and_functional_times(solve, named, multiple):
    # the guard named the least count that passes it (22 or 14), on whose grid
    # the output times or W's time 1/3 are not nodes: OffGridTime followed
    assert named_steps(raises_stability(solve, 4)) == named
    solve(named)
    assert named_steps(raises_stability(solve, named - multiple)) == named


def analytic_single_mode_norms(alpha, beta, T, n_steps, output_stride):
    """Direct norm computation for u(t,x) = e^{-(T-t) xi1^alpha} sin(xi1 x)."""
    times = np.linspace(0.0, T, n_steps + 1)[::output_stride]
    decay = np.exp(-(T - times) * XI1**alpha)
    u = decay[None, :, None] * np.sin(XI1 * GRID.x)[None, None, :]
    dt_out = times[1] - times[0]
    lhs = space_process_norm(u, GRID, dt_out, alpha + beta, kind="l2")
    lhs += space_process_norm(u, GRID, dt_out, beta, kind="s2")
    g_arr = np.sin(XI1 * GRID.x)[None, None, :]
    rhs = space_process_norm(g_arr, GRID, 1.0, alpha / 2 + beta, kind="s2")
    return lhs / rhs


def test_holder_ratio_single_mode_matches_direct():
    alpha, beta = 1.5, 0.6
    data = make_data(alpha=alpha, g=np.sin(XI1 * GRID.x))
    rep = verify_holder_estimate(data, beta=beta, n_steps=64)
    direct = analytic_single_mode_norms(alpha, beta, 1.0, 64, 4)
    assert rep.ratio == pytest.approx(direct, abs=1e-6)


def test_holder_ratio_scale_invariant():
    rng = np.random.default_rng(37)
    g1 = random_smooth(GRID, rng)
    prof = random_smooth(GRID, rng)
    d1 = make_data(g=g1, f=lambda t: prof * (1 + 0.2 * t))
    d2 = make_data(g=2 * g1, f=lambda t: 2 * prof * (1 + 0.2 * t))
    r1 = verify_holder_estimate(d1, beta=0.6, n_steps=32)
    r2 = verify_holder_estimate(d2, beta=0.6, n_steps=32)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)


def test_holder_ratio_zero_data_undefined():
    data = make_data(g=np.zeros(GRID.n))
    rep = verify_holder_estimate(data, beta=0.6, n_steps=16)
    assert rep.ratio is None


@pytest.mark.parametrize("n_steps", [3, 6, 10])
def test_holder_ratio_needs_a_step_count_its_norm_stride_holds(n_steps):
    # the norms read every fourth step: 3 steps left one time (a bare
    # IndexError), 6 steps read t = 0 and 2/3 and left T out without a word
    data = make_data(g=np.sin(XI1 * GRID.x))
    with pytest.raises(ValueError, match=f"n_steps must be a multiple of 4, .* got {n_steps}"):
        verify_holder_estimate(data, beta=0.6, n_steps=n_steps)


def test_holder_ratio_linear_gaussian_finite():
    prof = np.exp(-GRID.x**2 / 4)
    data = make_data(g=affine_terminal(prof, 0.5, 1.0, 1.0))
    rep = verify_holder_estimate(data, beta=0.6, n_steps=32, n_paths=128, rng=RngStream(41))
    assert rep.ratio is not None and np.isfinite(rep.ratio)


FB_GRID = Grid1D(-16 * np.pi, 16 * np.pi, 2048)


def test_fbsde_crosscheck_odd_mode_vanishes_at_origin():
    data = BSPDEData(
        grid=FB_GRID,
        alpha=1.5,
        T=1.0,
        a=CoefficientA.constant(1.0),
        g=np.sin(FB_GRID.x),
    )
    res = fbsde_crosscheck(data, probes=[(0.0, 0.0)], rng=RngStream(43), n_paths=20000)
    (r,) = res
    assert abs(r.pde_value) < 1e-10
    assert r.passed


def test_fbsde_crosscheck_cosine_mode():
    data = BSPDEData(
        grid=FB_GRID,
        alpha=1.5,
        T=1.0,
        a=CoefficientA.constant(1.0),
        g=np.cos(FB_GRID.x),
    )
    res = fbsde_crosscheck(data, probes=[(0.0, 0.0)], rng=RngStream(47), n_paths=40000)
    (r,) = res
    assert r.pde_value == pytest.approx(np.exp(-1.0), abs=1e-6)
    assert r.passed


def test_fbsde_crosscheck_constant_drift():
    data = BSPDEData(
        grid=FB_GRID,
        alpha=1.5,
        T=1.0,
        a=CoefficientA.constant(1.0),
        g=np.cos(FB_GRID.x),
        b=lambda t: np.ones(FB_GRID.n),
    )
    res = fbsde_crosscheck(
        data, probes=[(0.0, 0.0), (0.5, 1.0)], rng=RngStream(53), n_paths=40000
    )
    # u(t, x) = e^{-(T-t)} cos(x + (T-t))
    assert res[0].pde_value == pytest.approx(np.exp(-1.0) * np.cos(1.0), abs=1e-4)
    for r in res:
        assert r.passed


def test_fbsde_crosscheck_space_dependent_a():
    # the Monte Carlo particles must feel a_xt(x), not the space-invariant a
    grid = Grid1D(-8 * np.pi, 8 * np.pi, 256)
    data = BSPDEData(
        grid=grid,
        alpha=1.5,
        T=1.0,
        a=CoefficientA.constant(1.0),
        g=np.cos(grid.x),
        a_xt=lambda t: 1.0 + 0.6 * np.cos(grid.x),
    )
    res = fbsde_crosscheck(
        data, probes=[(0.0, 0.0), (0.0, np.pi)], rng=RngStream(5), n_paths=20000
    )
    for r in res:
        assert r.passed, (r.x, r.mc.mean, r.pde_value)


# --- the shared periodic stencil and the frozen factors, against the code they replace ---


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


# FB_GRID and (0, 5) have a node at exactly 0.0, so an x just below 0 has
# x % L == L, the last wrap node; the other two have no node that is 0 mod L
STENCIL_GRIDS = [FB_GRID, Grid1D(0.0, 5.0, 16), Grid1D(-1.3, 2.9, 64), Grid1D(0.1, 7.0, 8)]
STENCIL_SPECIALS = [-1e-17, -5e-324, 0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_periodic_stencil_is_np_interp_byte_for_byte(data):
    grid = data.draw(st.sampled_from(STENCIL_GRIDS))
    L = grid.length
    nodes = data.draw(st.lists(st.integers(0, grid.n - 1), max_size=8))
    shifts = data.draw(st.lists(st.integers(-3, 3), min_size=len(nodes), max_size=len(nodes)))
    far = data.draw(st.lists(st.floats(-1e12, 1e12), max_size=8))
    near = data.draw(st.lists(st.floats(-2 * L, 2 * L), max_size=8))
    x = np.array(
        [grid.x[i] + k * L for i, k in zip(nodes, shifts)] + STENCIL_SPECIALS + far + near
    )
    x = x[data.draw(st.permutations(range(x.size)))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fields = [
        rng.normal(size=grid.n),
        rng.normal(scale=1e6, size=grid.n),
        np.where(rng.uniform(size=grid.n) < 0.5, -0.0, 0.0),  # fp[j] = -0.0 at nodes
    ]
    stencil = _PeriodicStencil(grid)
    with np.errstate(invalid="ignore"):  # inf % L, in both
        for field in fields:  # several fields at one located x
            expected = np.interp(x, grid.x, field, period=L)
            assert _bits(stencil(x, stencil.table(field, "f"))) == _bits(expected)


def test_periodic_stencil_relocates_a_new_array():
    stencil = _PeriodicStencil(FB_GRID)
    table = stencil.table(np.cos(FB_GRID.x), "g")
    x = np.linspace(-3.0, 3.0, 11)
    first = stencil(x, table)
    y = x + 0.5
    assert _bits(stencil(y, table)) == _bits(np.interp(y, FB_GRID.x, np.cos(FB_GRID.x), period=FB_GRID.length))
    assert _bits(stencil(x, table)) == _bits(first)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_periodic_stencil_rejects_a_non_finite_field(bad):
    # a non-finite value, or finite values whose slope overflows
    field = np.zeros(GRID.n)
    field[7] = bad
    field[8] = -1e308 if bad == 1e308 else 0.0
    stencil = _PeriodicStencil(GRID)
    with pytest.raises(BlowUp, match="c.*not finite"):
        stencil.table(field, "c")


def _interp_crosscheck(data, probes, rng, n_paths, n_steps_solver, n_steps_mc):
    """fbsde_crosscheck with one np.interp closure per field and a time-only
    a as the field a(t) * ones at the particles, the reference."""
    g = data.grid
    has_var = data.b is not None or data.c is not None or data.a_xt is not None
    solve = solve_pde_variable_coeff if has_var else solve_fourier_deterministic
    fine = solve(data, n_steps=n_steps_solver)
    coarse = solve(data, n_steps=n_steps_solver // 2)

    def at_particles(field_fn):
        return lambda t, x: np.interp(x, g.x, np.asarray(field_fn(t), dtype=float), period=g.length)

    g_arr = data.deterministic_g()
    out = []
    for idx, (t, x) in enumerate(probes):
        xi_idx = int(np.argmin(np.abs(g.x - x)))
        pde_val = float(fine.u_at(t)[xi_idx])
        bound = abs(pde_val - float(coarse.u_at(t)[xi_idx])) + 1e-10
        mc = feynman_kac_estimate(
            g=lambda y: np.interp(y, g.x, g_arr, period=g.length),
            f=None if data.f is None else at_particles(data.f),
            c=None if data.c is None else at_particles(data.c),
            b=None if data.b is None else at_particles(data.b),
            a=(lambda t, x: data.a(np.asarray([t]))[0] * np.ones_like(x))
            if data.a_xt is None else at_particles(data.a_xt),
            alpha=data.alpha, x=float(g.x[xi_idx]), t=t, T=data.T,
            n_steps=n_steps_mc, n_paths=n_paths, rng=rng.child(idx),
        )
        out.append((t, float(g.x[xi_idx]), pde_val, mc.mean, mc.stderr, mc.n_paths, bound))
    return out


def _probe_tuples(results):
    return [(r.t, r.x, r.pde_value, r.mc.mean, r.mc.stderr, r.mc.n_paths, r.grid_bound)
            for r in results]


def test_fbsde_crosscheck_is_the_np_interp_crosscheck():
    # the benchmark's probe data (the feynman-kac check's), and a case with
    # space-time b and a_xt
    fk = BSPDEData(
        grid=FB_GRID, alpha=1.6, T=1.0, a=CoefficientA.constant(1.0),
        g=np.cos(FB_GRID.x) + 0.7 * np.sin(2.0 * FB_GRID.x),
        f=lambda t: 0.3 * np.cos(FB_GRID.x),
        c=lambda t: np.full(FB_GRID.n, -0.2),
    )
    grid = Grid1D(-8 * np.pi, 8 * np.pi, 256)
    var = BSPDEData(
        grid=grid, alpha=1.5, T=1.0, a=CoefficientA.constant(1.0),
        g=np.cos(grid.x), f=lambda t: 0.1 * t * np.sin(grid.x),
        b=lambda t: 0.4 * np.sin(grid.x) * (1.0 - t),
        a_xt=lambda t: 1.0 + 0.3 * np.cos(grid.x) + 0.2 * t,
        c=lambda t: -0.1 * (1.0 + np.cos(grid.x)),
    )
    # a non-round time-only a: the particles power one number, the reference
    # a field of copies of it
    tv = BSPDEData(
        grid=FB_GRID, alpha=1.6, T=1.0,
        a=CoefficientA.from_callable(lambda t: 1.0 + 0.3 * np.cos(t), t_max=1.0),
        g=np.cos(FB_GRID.x), c=lambda t: np.full(FB_GRID.n, -0.2),
    )
    cases = ((fk, [(0.25, -2.3), (0.0, 0.0)]), (var, [(0.0, 1.0), (0.5, -np.pi)]),
             (tv, [(0.0, 0.4), (0.5, -1.0)]))
    for data, probes in cases:
        args = (data, probes, RngStream(11, 800), 3000, 64, 24)
        got = fbsde_crosscheck(*args[:3], n_paths=args[3], n_steps_solver=args[4], n_steps_mc=args[5])
        assert _probe_tuples(got) == _interp_crosscheck(*args)


def test_fbsde_crosscheck_rejects_a_probe_outside_the_box(monkeypatch):
    data = make_data(grid=BOX16, g=np.sin(2 * np.pi * BOX16.x / BOX16.length))
    monkeypatch.setattr(bspde, "solve_fourier_deterministic", None)  # it raises before any solve
    for x in (np.nan, 1e300, -40.0):
        with pytest.raises(OutOfRange):
            fbsde_crosscheck(data, [(0.0, 0.0), (0.0, x)], RngStream(3), n_paths=10)


def test_fbsde_crosscheck_rejects_a_field_non_finite_at_a_particle_time():
    # c is NaN only at t = 1/48, a Monte Carlo time that no solver step reads;
    # np.interp would turn it into a NaN mean
    c = lambda t: np.full(GRID.n, np.nan if abs(t - 1.0 / 48) < 1e-12 else -0.2)
    data = make_data(g=np.cos(XI1 * GRID.x), c=c)
    with pytest.raises(BlowUp, match="c.*not finite"):
        fbsde_crosscheck(data, [(0.0, 0.0)], RngStream(3), n_paths=100,
                         n_steps_solver=128, n_steps_mc=48)


def _per_step_rebuild(data, n_steps, broadcast=False):
    """solve_pde_variable_coeff's march with the frozen factors rebuilt every step.

    broadcast=True is the earlier march for a time-only a (no a_xt): it read a
    as the field a(t) * ones, froze its mean, and stepped the residual
    a - mean(a * ones), which is rounding error only."""
    g = data.grid
    times = np.linspace(0.0, data.T, n_steps + 1)
    dt = data.T / n_steps
    lam = frac_lap_multiplier(g, data.alpha)
    d1 = derivative_multiplier(g, 1)
    a_xt = data.a_xt
    if a_xt is None and broadcast:
        a_xt = lambda t: data.a(np.asarray([t]))[0] * np.ones(g.n)
    b_fn = data.b or (lambda t: np.zeros(g.n))
    c_fn = data.c or (lambda t: np.zeros(g.n))
    u_hat = np.fft.fft(data.deterministic_g()).astype(complex)
    out = [np.real(np.fft.ifft(u_hat))]
    for i in range(n_steps - 1, -1, -1):
        t_hi = times[i + 1]
        quarter = [times[i] + q * dt for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        if a_xt is None:
            a_bars = np.array([data.a.at(t) for t in quarter])
        else:
            a_bars = np.array([float(np.mean(np.asarray(a_xt(t), dtype=float))) for t in quarter])
        b_hi, c_hi = (np.asarray(fn(t_hi), dtype=float) for fn in (b_fn, c_fn))
        bbar, cbar = (float(np.mean(v)) for v in (b_hi, c_hi))
        A_half = dt / 12.0 * (a_bars[0] + 4.0 * a_bars[1] + a_bars[2])
        A_full = A_half + dt / 12.0 * (a_bars[2] + 4.0 * a_bars[3] + a_bars[4])
        exp_half = -A_half * lam + 0.5 * cbar * dt + 0.5 * d1 * bbar * dt
        exp_full = -A_full * lam + cbar * dt + d1 * bbar * dt
        mult = np.exp(exp_full)
        w_load = dt / 6.0 * (1.0 + 4.0 * np.exp(exp_half) + mult)
        u = out[-1]
        expl = (b_hi - bbar) * apply_multiplier(u, d1)
        if a_xt is not None:
            a_hi = np.asarray(a_xt(t_hi), dtype=float)
            expl = -(a_hi - float(np.mean(a_hi))) * np.real(np.fft.ifft(lam * u_hat)) + expl
        expl = expl + (c_hi - cbar) * u
        if data.f is not None:
            expl = expl + np.asarray(data.f(t_hi), dtype=float)
        u_hat = mult * u_hat + w_load * np.fft.fft(expl)
        out.append(np.real(np.fft.ifft(u_hat)))
    return np.stack(out[::-1])


TIME_VARYING_A = CoefficientA.from_callable(lambda t: 1.0 + 0.3 * np.cos(t), t_max=1.0)


@pytest.mark.parametrize("coeffs", ["constant", "varying", "piecewise", "time_only_a", "no_b"])
def test_frozen_factors_built_once_are_the_per_step_rebuild(coeffs):
    x = GRID.x
    kw = {
        # the probe's data: every frozen mean constant in time
        "constant": dict(c=lambda t: np.full(GRID.n, -0.2), b=lambda t: np.full(GRID.n, 0.3),
                         f=lambda t: 0.3 * np.cos(XI1 * x)),
        "varying": dict(a_xt=lambda t: 1.0 + 0.2 * t + 0.1 * np.cos(XI1 * x),
                        b=lambda t: 0.3 * (1.0 - t) + 0.1 * np.sin(XI1 * x),
                        c=lambda t: -0.2 * t * (1.0 + np.cos(XI1 * x))),
        # the means jump at t = 1/2: rebuilt there, reused on either side
        "piecewise": dict(c=lambda t: np.full(GRID.n, -0.2 if t < 0.5 else 0.1),
                          b=lambda t: np.full(GRID.n, 0.0 if t < 0.5 else -0.0)),
        # a read as a number at every quarter point, the means rebuilt every step
        "time_only_a": dict(a=TIME_VARYING_A, c=lambda t: np.full(GRID.n, -0.2),
                            b=lambda t: 0.3 * np.sin(XI1 * x)),
        # no transport: the march skips the b term, the reference steps b = 0
        "no_b": dict(a_xt=lambda t: 1.0 + 0.2 * t + 0.1 * np.cos(XI1 * x),
                     c=lambda t: -0.2 * t * (1.0 + np.cos(XI1 * x)),
                     f=lambda t: 0.3 * np.cos(XI1 * x)),
    }[coeffs]
    data = make_data(g=np.cos(XI1 * x) + 0.5 * np.sin(3 * XI1 * x), **kw)
    got = solve_pde_variable_coeff(data, n_steps=32)
    assert _bits(got.u) == _bits(_per_step_rebuild(data, 32))


@pytest.mark.parametrize("a", [CoefficientA.constant(1.0), CoefficientA.constant(0.7), TIME_VARYING_A])
def test_time_only_a_march_is_the_broadcast_march_up_to_round_off(a):
    # the broadcast march stepped a - mean(a * ones): exactly 0 at a = 1,
    # rounding error otherwise, which moves u by round-off only
    x = GRID.x
    data = make_data(a=a, g=np.cos(XI1 * x) + 0.5 * np.sin(3 * XI1 * x),
                     b=lambda t: 0.3 * np.sin(XI1 * x), c=lambda t: np.full(GRID.n, -0.2),
                     f=lambda t: 0.1 * np.cos(XI1 * x))
    got = solve_pde_variable_coeff(data, n_steps=64).u
    ref = _per_step_rebuild(data, 64, broadcast=True)
    if a.lower == a.upper == 1.0:
        assert _bits(got) == _bits(ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
