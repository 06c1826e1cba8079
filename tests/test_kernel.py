import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracbspde.errors import (
    OrderViolation,
    OutOfRange,
    PositivityViolation,
    UnsupportedOrder,
)
from fracbspde.fraclap import apply_spectral
from fracbspde.grid import Grid1D, GridFunction
from fracbspde.kernel import (
    X_SWITCH,
    CoefficientA,
    KernelParams,
    apply_semigroup_A,
    deriv_G,
    deriv_G_ts,
    eval_A,
    eval_G,
    eval_G_ts,
    frac_lap_G,
    kernel_cdf,
    semigroup_apply,
    verify_kernel_bounds,
    _cdf_table,
    _far_rule,
    _graded_rule,
    _kernel_transform,
    _near_rule,
)

INV_TWO_SQRT_PI = 0.28209479177387814  # 1/(2 sqrt(pi)) = Gaussian kernel at x=0
# (1/pi) int_0^inf xi^1.5 exp(-xi^1.5) dxi = (2/3) Gamma(5/3) / pi
FRAC_LAP_G0_15 = 0.19156850096810965


def gaussian_kernel(x, A=1.0):
    return np.exp(-np.asarray(x) ** 2 / (4 * A)) / (2 * np.sqrt(np.pi * A))


def test_eval_G_alpha2_closed_form():
    xs = np.linspace(-20.0, 20.0, 401)
    assert eval_G(0.0, 2.0) == pytest.approx(INV_TWO_SQRT_PI, abs=1e-12)
    assert np.max(np.abs(eval_G(xs, 2.0) - gaussian_kernel(xs))) < 1e-10


def test_eval_G_even():
    xs = np.linspace(0.1, 50.0, 173)
    assert np.allclose(eval_G(xs, 1.5), eval_G(-xs, 1.5), atol=1e-14)


def test_eval_G_positive():
    # heavy-tailed orders stay strictly positive far out; at alpha = 2 the
    # Gaussian underflows the 1e-8-level quadrature floor beyond |x| ~ 12,
    # so positivity is only meaningful where the value exceeds that floor
    xs = np.linspace(0.0, 300.0, 2000)
    for alpha in (1.2, 1.5, 1.8):
        assert eval_G(xs, alpha).min() > 0.0
    xs2 = np.linspace(0.0, 10.0, 500)
    assert eval_G(xs2, 2.0).min() > 0.0


def test_eval_G_matches_adaptive_quadrature():
    # independent oracle: adaptive quadrature of the defining cosine integral
    for alpha in (1.2, 1.7):
        for x in (0.0, 0.5, 3.0, 7.0):
            oracle = quad(
                lambda xi: np.cos(xi * x) * np.exp(-(xi**alpha)), 0, 60, limit=400
            )[0] / np.pi
            assert eval_G(x, alpha) == pytest.approx(oracle, abs=1e-9)


def test_eval_G_ts_scaling():
    xs = np.linspace(-10, 10, 101)
    assert np.allclose(
        eval_G_ts(xs, KernelParams(1.5, 1.0)), eval_G(xs, 1.5), atol=1e-14
    )
    # alpha=2, A=t: Gaussian with variance 2t
    for t in (0.25, 1.0):
        p = KernelParams(2.0, t)
        assert eval_G_ts(0.0, p) == pytest.approx(1.0 / (2 * np.sqrt(np.pi * t)), rel=1e-12)
        assert np.max(np.abs(eval_G_ts(xs, p) - gaussian_kernel(xs, t))) < 1e-10


def test_eval_G_ts_direct_fourier_oracle():
    # scaling law vs direct quadrature of the two-time kernel integral
    for alpha, A in ((1.5, 0.3), (1.3, 2.0)):
        for x in (0.0, 1.0, 4.0):
            oracle = quad(
                lambda xi: np.cos(xi * x) * np.exp(-A * xi**alpha), 0, 80, limit=400
            )[0] / np.pi
            assert eval_G_ts(x, KernelParams(alpha, A)) == pytest.approx(oracle, abs=1e-7)


def test_eval_G_ts_rejects_nonpositive_A():
    with pytest.raises(PositivityViolation):
        KernelParams(1.5, 0.0)
    # A^(-4/alpha) of the third derivative would overflow a float
    with pytest.raises(OutOfRange):
        KernelParams(2.0, 3.3e-215)
    assert np.isfinite(deriv_G_ts(0.0, KernelParams(2.0, 1e-150), 2))


def test_deriv_G_odd_at_zero():
    assert deriv_G(0.0, 1.5, 1) == 0.0
    assert deriv_G(0.0, 1.7, 3) == 0.0


def test_deriv_G_alpha2_first_derivative():
    xs = np.linspace(-6, 6, 41)
    expected = -(xs / 2.0) * gaussian_kernel(xs)
    assert np.max(np.abs(deriv_G(xs, 2.0, 1) - expected)) < 1e-7


def test_deriv_G_second_derivative_fd_oracle():
    h = 1e-4
    for x in (0.0, 0.7, 2.5, 9.0):
        fd = (eval_G(x + h, 1.5) - 2 * eval_G(x, 1.5) + eval_G(x - h, 1.5)) / h**2
        assert deriv_G(x, 1.5, 2) == pytest.approx(fd, abs=1e-5)


def test_deriv_G_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        deriv_G(1.0, 1.5, 4)


def test_frac_lap_G_at_zero():
    assert frac_lap_G(0.0, 1.5, 1.5) == pytest.approx(FRAC_LAP_G0_15, abs=1e-10)
    oracle = quad(lambda xi: xi**1.5 * np.exp(-(xi**1.5)), 0, 80, limit=400)[0] / np.pi
    assert frac_lap_G(0.0, 1.5, 1.5) == pytest.approx(oracle, abs=1e-9)


def test_frac_lap_G_even_and_decay():
    xs = np.linspace(0.5, 50.0, 200)
    gamma = 1.5
    vals = frac_lap_G(xs, 1.5, gamma)
    assert np.allclose(vals, frac_lap_G(-xs, 1.5, gamma), atol=1e-14)
    weighted = np.abs(vals) * (1.0 + xs ** (1.0 + gamma))
    assert weighted.max() < 10.0  # finite constant in the decay bound


def test_eval_A_closed_forms():
    one = CoefficientA.constant(1.0)
    assert eval_A(one, 0.0, 0.7) == pytest.approx(0.7, rel=1e-12)
    ramp = CoefficientA(lambda t: t + 1e-12, 1e-12, 1.0)
    assert eval_A(ramp, 0.0, 1.0) == pytest.approx(0.5, rel=1e-9)


def test_eval_A_quadrature_oracle():
    a = CoefficientA.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), t_max=2.0)
    oracle = quad(lambda t: 1.0 + 0.5 * np.sin(t), 0.3, 1.9)[0]
    assert eval_A(a, 0.3, 1.9) == pytest.approx(oracle, abs=1e-10)


def test_eval_A_errors():
    one = CoefficientA.constant(1.0)
    with pytest.raises(OrderViolation):
        eval_A(one, 0.5, 0.5)
    bad = CoefficientA(lambda t: np.cos(10 * t), 0.1, 1.0)  # dips negative
    with pytest.raises(PositivityViolation):
        eval_A(bad, 0.0, 1.0)


@pytest.fixture
def grid():
    return Grid1D(-32.0, 32.0, 512)


def test_semigroup_identity_limit(grid):
    rng = np.random.default_rng(2)
    phi = GridFunction(grid, rng.standard_normal(grid.n))
    out = apply_semigroup_A(phi, 1e-14, 1.5)
    assert np.max(np.abs(out.values - phi.values)) < 1e-10


def test_semigroup_chapman_kolmogorov(grid):
    a = CoefficientA.from_callable(lambda t: 1.0 + 0.3 * np.cos(t), t_max=1.0)
    rng = np.random.default_rng(4)
    vals = np.zeros(grid.n)
    for k in range(1, 9):
        xi = 2 * np.pi * k / grid.length
        vals += rng.normal() * np.cos(xi * grid.x) + rng.normal() * np.sin(xi * grid.x)
    phi = GridFunction(grid, vals)
    t1, t2, t3 = 0.1, 0.45, 0.9
    composed = semigroup_apply(semigroup_apply(phi, a, t1, t2, 1.5), a, t2, t3, 1.5)
    direct = semigroup_apply(phi, a, t1, t3, 1.5)
    assert np.max(np.abs(composed.values - direct.values)) < 1e-10


def test_semigroup_preserves_constants(grid):
    phi = GridFunction(grid, np.full(grid.n, 3.3))
    out = apply_semigroup_A(phi, 0.8, 1.4)
    assert np.max(np.abs(out.values - 3.3)) < 1e-12


def test_semigroup_order_violation(grid):
    phi = GridFunction(grid, np.zeros(grid.n))
    with pytest.raises(OrderViolation):
        semigroup_apply(phi, CoefficientA.constant(1.0), 0.5, 0.2, 1.5)


def test_semigroup_multiplier_monotone(grid):
    rng = np.random.default_rng(6)
    phi = GridFunction(grid, rng.standard_normal(grid.n))
    c_small = np.abs(np.fft.fft(apply_semigroup_A(phi, 0.2, 1.5).values))
    c_large = np.abs(np.fft.fft(apply_semigroup_A(phi, 0.8, 1.5).values))
    nonzero = np.abs(grid.xi) > 0
    assert np.all(c_large[nonzero] <= c_small[nonzero] + 1e-12)


def test_kernel_solves_dual_heat_equation():
    # d/dt G_{t,s} = -a(t) (-Delta)^(alpha/2) G_{t,s}, probed on a grid
    g = Grid1D(-64.0, 64.0, 1024)
    alpha, s, t, h = 1.5, 0.0, 0.5, 1e-3
    inner = np.abs(g.x) <= 10.0
    up = eval_G_ts(g.x, KernelParams(alpha, t + h - s))
    dn = eval_G_ts(g.x, KernelParams(alpha, t - h - s))
    dGdt = (up - dn) / (2 * h)  # a == 1 so dA/dt = 1
    K = GridFunction(g, eval_G_ts(g.x, KernelParams(alpha, t - s)))
    resid = dGdt + apply_spectral(K, alpha).values
    assert np.max(np.abs(resid[inner])) < 1e-3


def test_kernel_cdf_alpha2_matches_normal():
    from scipy.stats import norm

    cdf = kernel_cdf(2.0, A=1.0)
    xs = np.linspace(-8, 8, 33)
    assert np.max(np.abs(cdf(xs) - norm.cdf(xs, scale=np.sqrt(2.0)))) < 1e-6


def test_kernel_cdf_basic_properties():
    cdf = kernel_cdf(1.5, A=1.0)
    xs = np.linspace(-500, 500, 201)
    vals = cdf(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-9)
    assert vals[0] < 1e-3 and vals[-1] > 1 - 1e-3


def test_kernel_cdf_table_is_built_once_per_alpha():
    first = kernel_cdf(1.5, A=0.4)
    before = _cdf_table.cache_info()
    second = kernel_cdf(1.5, A=0.4)
    rescaled = kernel_cdf(1.5, A=2.0)
    after = _cdf_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    xs = np.linspace(-300.0, 300.0, 601)
    assert np.array_equal(first(xs), second(xs))
    # A only rescales x, so both A read the same table
    assert np.allclose(rescaled(xs), first(xs * (2.0 / 0.4) ** (-1.0 / 1.5)), rtol=0, atol=1e-15)
    assert not any(a.flags.writeable for a in _cdf_table(1.5))


def test_verify_kernel_bounds_stability():
    checks = verify_kernel_bounds(1.5, beta=0.6, base_n=1001)
    by_id = {c.check_id: c for c in checks}
    mass = by_id["weighted-integral-k0-g0"]
    assert mass.constant == pytest.approx(1.0, abs=2e-2)
    for c in checks:
        assert np.isfinite(c.constant)
        assert c.stable, f"{c.check_id} moved {c.rel_change:.3%} under refinement"
    # the k=1, gamma=0 fit is constant across (t-s) values (exact scaling)
    per_tau = np.asarray(by_id["weighted-integral-k1-g0"].extras["per_tau"])
    assert per_tau.max() / per_tau.min() < 1.02


def test_eval_G_is_deriv_G_order_zero():
    xs = np.linspace(-30.0, 30.0, 241)  # both the direct and the rotated-ray rule
    for alpha in (1.2, 1.5, 2.0):
        assert np.array_equal(eval_G(xs, alpha), deriv_G(xs, alpha, 0))
        assert eval_G(3.0, alpha) == deriv_G(3.0, alpha, 0)
        p = KernelParams(alpha, 0.37)
        assert np.array_equal(eval_G_ts(xs, p), deriv_G_ts(xs, p, 0))
        assert eval_G_ts(-2.0, p) == deriv_G_ts(-2.0, p, 0)


def _direct_bound_constants(alpha, beta, n):
    """Every constant of verify_kernel_bounds, evaluated directly on n nodes."""
    taus = np.geomspace(1e-3, 1.0, 9)
    out = {}
    xs = np.linspace(0.0, 60.0, n)
    for k in (0, 1):
        vals = np.abs(deriv_G(xs, alpha, k)) * (1.0 + xs ** (1.0 + alpha + k))
        out[f"pointwise-decay-k{k}"] = vals.max()
    xs, gam = np.linspace(1e-6, 60.0, n), alpha / 2.0
    vals = np.abs(frac_lap_G(xs, alpha, gam)) * (1.0 + xs ** (1.0 + gam))
    out["pointwise-decay-fraclap"] = vals.max()
    xs, gam = np.linspace(0.0, 80.0, n), min(beta, 0.9 * alpha)
    sup = np.max([eval_G_ts(xs, KernelParams(alpha, A)) for A in np.geomspace(1e-3, 1.0, 17)], 0)
    out["sup-kernel-weighted-integral"] = 2.0 * np.trapezoid(sup * xs**gam, xs)

    def fitted(kernel_ts, gam, expo):
        fits = []
        for tau in taus:
            xs = tau ** (1.0 / alpha) * np.linspace(0.0, 400.0, n)
            vals = np.abs(kernel_ts(xs, KernelParams(alpha, tau))) * xs**gam
            fits.append(2.0 * np.trapezoid(vals, xs) / tau**expo)
        return max(fits)

    for k, gam in ((0, 0.0), (1, 0.0), (2, beta)):
        kernel_ts = lambda x, p: deriv_G_ts(x, p, k)  # noqa: E731
        out[f"weighted-integral-k{k}-g{gam:g}"] = fitted(kernel_ts, gam, (gam - k) / alpha)
    gam = min(beta, 0.9 * alpha)

    def frac_lap_ts(x, p):
        scale = p.A_ts ** (-1.0 / alpha)
        return scale ** (1.0 + gam) * frac_lap_G(scale * x, alpha, gam)

    out["weighted-integral-fraclap"] = fitted(frac_lap_ts, gam, gam / alpha - 1.0)
    return out


@pytest.mark.parametrize("alpha", [1.2, 2.0])
def test_verify_kernel_bounds_reads_base_grid_off_refined_grid(alpha):
    base_n = 41
    checks = verify_kernel_bounds(alpha, beta=0.6, base_n=base_n)
    base = _direct_bound_constants(alpha, 0.6, base_n)
    refined = _direct_bound_constants(alpha, 0.6, 2 * base_n - 1)
    assert [c.check_id for c in checks] == list(base)
    for c in checks:
        assert c.constant == pytest.approx(base[c.check_id], rel=1e-12), c.check_id
        assert c.refined_constant == pytest.approx(refined[c.check_id], rel=1e-12), c.check_id


def _complex_half_line_transform(x, alpha, power):
    """The complex-arithmetic form of H_p(x), x >= 0, that the real rules replaced."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    near = x <= X_SWITCH
    if np.any(near):
        xi_max = (-np.log(1e-15)) ** (1.0 / alpha)
        nodes, weights = _graded_rule(min(0.25, 2.0 / X_SWITCH), xi_max)
        w = weights * nodes**power * np.exp(-(nodes**alpha))
        out[near] = np.exp(-1j * np.outer(x[near], nodes)) @ w
    if np.any(~near):
        s_nodes, s_weights = _graded_rule(0.35, 45.0)
        theta = (alpha - 1.0) * np.pi / (2.0 * alpha)
        pref = np.exp(-1j * (power + 1.0) * np.pi / (2.0 * alpha))
        xv = x[~near][:, None]
        cos_t = np.cos(theta)
        lam = s_nodes[None, :] / (xv * cos_t)
        integ = lam**power * np.exp(-lam * xv * np.exp(1j * theta) + 1j * lam**alpha)
        out[~near] = pref * (integ * s_weights[None, :]).sum(axis=1) / (xv[:, 0] * cos_t)
    return out


def _complex_kernel_transform(x, alpha, power, k):
    xv = np.asarray(x, dtype=float)
    h = _complex_half_line_transform(np.abs(xv), alpha, power)
    vals = np.real((-1j) ** k * h if k else h) / np.pi
    return np.where(xv < 0, -vals, vals) if k % 2 == 1 else vals


# every (power, k) the kernel evaluates: D^k G has (k, k), (-Delta)^(gamma/2) G has (gamma, 0)
_ORDERS = st.one_of(
    st.sampled_from([(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]),
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True).map(lambda g: (g, 0)),
)


@settings(max_examples=60, deadline=None)
@example(alpha=1.5, order=(3.0, 3), near=[1.0], far=[-20.0])
@example(alpha=2.0, order=(1.0, 1), near=[-X_SWITCH], far=[400.0])
@given(
    alpha=st.floats(1.0, 2.0, exclude_min=True),
    order=_ORDERS,
    near=st.lists(st.floats(-X_SWITCH, X_SWITCH), min_size=1, max_size=16),
    far=st.lists(
        st.floats(X_SWITCH, 400.0, exclude_min=True).flatmap(
            lambda x: st.sampled_from([x, -x])
        ),
        min_size=1,
        max_size=16,
    ),
)
def test_real_kernel_transform_matches_complex_form(alpha, order, near, far):
    # the kernel's own scale (its values around the origin) is part of every
    # draw, so the bound is relative to max |G| and not to a far-field tail
    # that is all round-off at alpha = 2
    power, k = order
    xs = np.concatenate([near, far, np.linspace(-2 * X_SWITCH, 2 * X_SWITCH, 33)])
    old = _complex_kernel_transform(xs, alpha, power, k)
    new = _kernel_transform(xs, alpha, power, k)
    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.9])
def test_near_and_far_rules_agree_on_the_overlap(alpha):
    # measured largest gap on [6, 10]: 1.28e-12 at alpha = 1.05, p = 3, below
    # 5e-14 for alpha >= 1.5; it is the near rule's cut at exp(-xi^alpha) = 1e-15,
    # where xi^3 is 2.4e4 (a cut at 1e-22 closes it to 3.4e-16)
    xs = np.linspace(6.0, 10.0, 401)
    for p in range(4):
        gap = np.abs(_near_rule(xs, alpha, float(p), p) - _far_rule(xs, alpha, float(p), p))
        assert gap.max() < 2e-12, (alpha, p, gap.max())
