import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogi
from scipy.stats import ks_2samp, kstest

from fracbspde import bspde, zakai
from fracbspde.grid import Grid1D
from fracbspde.kernel import CoefficientA, kernel_cdf
from fracbspde.levy import (
    PathGrid,
    RngStream,
    feynman_kac_estimate,
    path_from_increments,
    sample_stable,
    sample_stable_poisson_series,
    simulate_brownian_increments,
    simulate_forward_sde,
)


def ks_crit(n, level=0.01):
    return kolmogi(level) / np.sqrt(n)


def test_alpha2_variance():
    rng = RngStream(101).generator()
    n = 100_000
    s = sample_stable(2.0, 1.0, rng, n)
    # char function e^{-xi^2} means variance 2; sample variance sd ~ var*sqrt(2/n)
    tol = 3.0 * 2.0 * np.sqrt(2.0 / n)
    assert abs(np.var(s) - 2.0) < tol


def test_self_similarity_scaling():
    alpha = 1.5
    rng = RngStream(7).generator()
    n = 20_000
    s4 = sample_stable(alpha, 4.0, rng, n)
    s1 = sample_stable(alpha, 1.0, rng, n)
    stat = ks_2samp(s4, 4.0 ** (1 / alpha) * s1).statistic
    assert stat < kolmogi(0.01) * np.sqrt(2.0 / n)


def test_empirical_characteristic_function():
    alpha, dt = 1.5, 1.0
    rng = RngStream(13).generator()
    n = 200_000
    s = sample_stable(alpha, dt, rng, n)
    for xi in (0.5, 1.0, 2.0):
        re = np.cos(xi * s)
        target = np.exp(-dt * abs(xi) ** alpha)
        assert abs(re.mean() - target) < 3.0 * re.std() / np.sqrt(n)
        im = np.sin(xi * s)
        assert abs(im.mean()) < 3.0 * im.std() / np.sqrt(n)  # symmetry


def test_sign_symmetry():
    # third moments do not exist for alpha < 2, so symmetry is checked through
    # the sign balance (a binomial statistic with finite variance)
    rng = RngStream(17).generator()
    n = 200_000
    s = sample_stable(1.3, 1.0, rng, n)
    p = np.mean(s > 0)
    assert abs(p - 0.5) < 3.0 * 0.5 / np.sqrt(n)


def test_heavy_tail_exponent():
    alpha = 1.5
    rng = RngStream(19).generator()
    s = np.abs(sample_stable(alpha, 1.0, rng, 1_000_000))
    # window deep enough that the x^(-2 alpha) correction no longer biases
    # the fitted exponent
    xs = np.geomspace(8.0, 60.0, 10)
    emp = np.array([(s > x).mean() for x in xs])
    slope = np.polyfit(np.log(xs), np.log(emp), 1)[0]
    assert abs(slope + alpha) < 0.1


def test_poisson_series_cross_check():
    alpha, dt = 1.5, 1.0
    rng = RngStream(23).generator()
    n = 50_000
    s = sample_stable_poisson_series(alpha, dt, rng, n, eps=0.05)
    for xi in (0.5, 1.0):
        re = np.cos(xi * s)
        target = np.exp(-dt * abs(xi) ** alpha)
        assert abs(re.mean() - target) < 4.0 * re.std() / np.sqrt(n) + 1e-3


def test_path_lengths_and_reproducibility():
    grid = PathGrid(1.0, 64)

    def levy_increments(stream):
        return sample_stable(1.5, grid.dt, stream.generator(), grid.N)

    lp = levy_increments(RngStream(3, 9))
    bp = simulate_brownian_increments(grid, RngStream(3, 9), 1)
    assert lp.shape == (64,)
    assert bp.shape == (1, 64)
    assert grid.times.shape == (65,)
    lp2 = levy_increments(RngStream(3, 9))
    assert np.array_equal(lp, lp2)  # bit-identical
    other = levy_increments(RngStream(3, 10))
    assert not np.array_equal(lp, other)


@settings(max_examples=200, deadline=None)
@given(T=st.floats(1e-6, 1e6), N=st.integers(1, 5000))
def test_path_grid_nodes_are_the_solver_grid(T, N):
    times = PathGrid(T, N).times
    assert times.tobytes() == np.linspace(0.0, T, N + 1).tobytes()
    assert times[0] == 0.0 and times[-1] == T


@pytest.mark.parametrize("T, N", [
    (float("nan"), 4),  # NaN <= 0 is False: the grid built and drew NaN increments
    (float("inf"), 4),
    (0.0, 4),
    (-1.0, 4),
    (1.0, 0),
    (1.0, 2.5),  # built, then its times raised TypeError
    (1.0, 4.0),
])
def test_path_grid_rejects_a_horizon_or_count_that_is_not_one(T, N):
    with pytest.raises(ValueError, match="integer N >= 1"):
        PathGrid(T, N)


def test_path_grid_times_are_computed_once_and_read_only():
    grid = PathGrid(1.0, np.int64(8))
    assert grid.times is grid.times
    with pytest.raises(ValueError, match="read-only"):
        grid.times[0] = 1.0


@pytest.mark.parametrize("N, m, steps", [
    (64, 8, [8, 16, 24, 32, 40, 48, 56, 64]),
    (24, 6, [4, 8, 12, 16, 20, 24]),
    (10, 6, [2, 3, 5, 7, 8, 10]),
    (3, 8, [1, 2, 3]),
])
def test_coarse_steps_are_evenly_spaced_and_end_at_n(N, m, steps):
    assert PathGrid(1.0, N).coarse_steps(m).tolist() == steps


def test_path_from_increments_is_the_cumulative_sum_from_zero():
    inc = RngStream(5).generator().normal(size=(3, 17))
    expected = np.concatenate([np.zeros((3, 1)), np.cumsum(inc, axis=1)], axis=1)
    assert path_from_increments(inc).tobytes() == expected.tobytes()


_DATA = bspde.BSPDEData(grid=Grid1D(-8.0, 8.0, 16), alpha=1.5, T=1.0, a=CoefficientA.constant(1.0),
                        g=np.zeros(16))
_RANDOM = bspde.BSPDEData(grid=_DATA.grid, alpha=1.5, T=1.0, a=_DATA.a, g=bspde.RandomFieldSpec(
    (bspde.RandomTerm(np.ones(16), bspde.PathFunctional.affine_in_w(1.0, 0.0, 1.0)),)))
_PROB = zakai.ControlProblem(_DATA.grid, 1.5, 1.0, lambda t: 1.0, lambda t, v: np.zeros(16),
                             lambda t: np.zeros(16), lambda t, v: np.zeros(16), np.zeros(16), (0.0,),
                             np.full(16, 1.0 / 16.0))
_POLICY = zakai.ControlPolicy.constant(0.0, 1.0)
_NO_Y = np.zeros((2, 0))
_ZERO_STEP_RUNS = {
    "solve_fourier_deterministic": lambda: bspde.solve_fourier_deterministic(_DATA, n_steps=0),
    "solve_kernel_deterministic": lambda: bspde.solve_kernel_deterministic(_DATA, n_steps=0),
    "solve_pde_variable_coeff": lambda: bspde.solve_pde_variable_coeff(_DATA, n_steps=0),
    "solve_bspde_linear_gaussian": lambda: bspde.solve_bspde_linear_gaussian(_RANDOM, 2, RngStream(0), 0),
    "solve_bspde_regression": lambda: bspde.solve_bspde_regression(_RANDOM, 2, RngStream(0), 0),
    "check_regression_steps": lambda: bspde.check_regression_steps(_RANDOM, 0, None),
    "verify_holder_estimate": lambda: bspde.verify_holder_estimate(_DATA, 0.75, n_steps=0),
    "fbsde_crosscheck solver": lambda: bspde.fbsde_crosscheck(_DATA, [(0.0, 0.0)], RngStream(0),
                                                              n_steps_solver=0),
    "fbsde_crosscheck mc": lambda: bspde.fbsde_crosscheck(_DATA, [(0.0, 0.0)], RngStream(0), n_paths=2,
                                                          n_steps_solver=4, n_steps_mc=0),
    "feynman_kac_estimate": lambda: feynman_kac_estimate(None, None, None, None, 1.0, 1.5, 0.0, 0.0, 1.0,
                                                         0, 2, RngStream(0)),
    "solve_zakai": lambda: zakai.solve_zakai(_PROB, _POLICY, _NO_Y, n_steps=0),
    "cost_functional": lambda: zakai.cost_functional(_PROB, _POLICY, _NO_Y, n_steps=0),
    "solve_adjoint": lambda: zakai.solve_adjoint(_PROB, _POLICY, _NO_Y, n_steps=0),
    "brute_force_optimal_control": lambda: zakai.brute_force_optimal_control(_PROB, 1, _NO_Y, n_steps=0),
    "check_step_count": lambda: zakai.check_step_count(_PROB, _POLICY, 0),
    "verify_maximum_principle": lambda: zakai.verify_maximum_principle(_PROB, _POLICY, _NO_Y, n_steps=0),
}


@pytest.mark.parametrize("name", sorted(_ZERO_STEP_RUNS))
def test_zero_steps_is_a_value_error_from_every_solver(name):
    # each solver steps on PathGrid(T, n_steps); a bare T / 0 raised ZeroDivisionError
    with pytest.raises(ValueError, match="integer N >= 1"):
        _ZERO_STEP_RUNS[name]()


def test_child_streams_differ():
    base = RngStream(5)
    g0 = base.child(0).generator().standard_normal(8)
    g1 = base.child(1).generator().standard_normal(8)
    assert not np.array_equal(g0, g1)
    again = base.child(0).generator().standard_normal(8)
    assert np.array_equal(g0, again)


def test_brownian_quadratic_variation():
    grid = PathGrid(1.0, 10_000)
    bp = simulate_brownian_increments(grid, RngStream(29), 1)
    qv = np.sum(bp**2)
    # sum of squares is chi^2-like: sd = sqrt(2 T^2 / N)
    assert abs(qv - 1.0) < 3.0 * np.sqrt(2.0 / grid.N)


def test_alpha2_increments_match_scaled_brownian():
    dt, n = 1.0, 50_000
    rng = RngStream(37).generator()
    levy_inc = sample_stable(2.0, dt, rng, n)
    brown_inc = np.sqrt(2.0) * rng.normal(0.0, np.sqrt(dt), n)
    stat = ks_2samp(levy_inc, brown_inc).statistic
    assert stat < kolmogi(0.01) * np.sqrt(2.0 / n)


def test_forward_sde_pure_drift():
    grid = PathGrid(1.0, 32)
    X = simulate_forward_sde(lambda t, x: np.ones_like(x), 0.0, 1.5, 2.0, grid, RngStream(41), 16)
    assert np.allclose(X[:, -1], 3.0, atol=1e-12)


def test_forward_sde_char_function():
    grid = PathGrid(1.0, 16)
    n = 100_000
    X = simulate_forward_sde(None, 1.0, 1.5, 0.0, grid, RngStream(43), n)
    xT = X[:, -1]
    for xi in (0.5, 1.0):
        re = np.cos(xi * xT)
        assert abs(re.mean() - np.exp(-abs(xi) ** 1.5)) < 3 * re.std() / np.sqrt(n)


def test_forward_sde_terminal_law_vs_kernel():
    alpha, T = 1.5, 1.0
    grid = PathGrid(T, 8)
    n = 20_000
    X = simulate_forward_sde(None, 1.0, alpha, 0.0, grid, RngStream(47), n)
    res = kstest(X[:, -1], kernel_cdf(alpha, A=T))
    assert res.statistic < ks_crit(n)


def test_feynman_kac_trivial_cases():
    grid_args = dict(alpha=1.5, x=0.3, t=0.0, T=0.75, n_steps=16, n_paths=500, rng=RngStream(53))
    r1 = feynman_kac_estimate(lambda x: np.ones_like(x), None, None, None, 1.0, **grid_args)
    assert r1.mean == pytest.approx(1.0, abs=1e-14)
    assert r1.stderr == pytest.approx(0.0, abs=1e-14)
    r2 = feynman_kac_estimate(None, lambda t, x: np.ones_like(x), None, None, 1.0, **grid_args)
    assert r2.mean == pytest.approx(0.75, abs=1e-12)


def test_feynman_kac_single_mode_decay():
    # E[sin(x + M_{T-t})] = e^{-(T-t)} sin(x) by the characteristic function
    T, x = 1.0, 0.8
    res = feynman_kac_estimate(
        g=np.sin,
        f=None,
        c=None,
        b=None,
        a=1.0,
        alpha=1.5,
        x=x,
        t=0.0,
        T=T,
        n_steps=8,
        n_paths=200_000,
        rng=RngStream(59),
    )
    target = np.exp(-T) * np.sin(x)
    assert abs(res.mean - target) <= 3.0 * res.stderr


def test_batch_brownian_shape():
    grid = PathGrid(2.0, 10)
    incs = simulate_brownian_increments(grid, RngStream(61), 7)
    assert incs.shape == (7, 10)


def _cms_expression(alpha, dt, rng, size=None):
    """The Chambers-Mallows-Stuck draw as one expression, the reference for
    sample_stable's buffered evaluation."""
    u = rng.uniform(-np.pi / 2, np.pi / 2, size)
    e = rng.exponential(1.0, size)
    s = (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((alpha - 1.0) * u) / e) ** ((1.0 - alpha) / alpha)
    )
    return dt ** (1.0 / alpha) * s


@pytest.mark.parametrize("alpha", [1.05, 1.3, 1.5, 1.8, 1.99])
@pytest.mark.parametrize("size", [None, (), 1, 36_000, (3, 5)])
def test_sample_stable_is_the_cms_expression_byte_for_byte(alpha, size):
    got = sample_stable(alpha, 0.02, RngStream(2024, 5).generator(), size)
    expected = _cms_expression(alpha, 0.02, RngStream(2024, 5).generator(), size)
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
