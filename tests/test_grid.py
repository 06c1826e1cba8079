import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbspde import grid as grid_module
from fracbspde.errors import (
    EmptyEnsemble,
    GridMismatch,
    InvalidExponent,
    MalformedInput,
    OffGridTime,
    OutOfRange,
)
from fracbspde.fraclap import frac_lap_multiplier
from fracbspde.grid import (
    Grid1D,
    GridFunction,
    apply_multiplier,
    derivative_multiplier,
    ensemble_process_norms,
    holder_seminorm,
    pair_offsets,
    read_field_csv,
    time_grid_multiple,
    time_indices,
    write_field_csv,
)


@pytest.fixture
def grid():
    return Grid1D(-32.0, 32.0, 256)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 8)
    g = Grid1D(0.0, 1.0, 8)
    assert g.dx == pytest.approx(0.125)
    assert g.xi[1] == pytest.approx(2 * np.pi)


def test_nearest_node_snaps_in_the_box_and_rejects_the_rest():
    g = Grid1D(-32.0, 32.0, 32)  # nodes -32, -30, ..., 30
    assert [g.nearest_node(x) for x in (-32.0, 0.9, 1.1, 32.0)] == [0, 16, 17, 31]
    for x in (np.nan, np.inf, -np.inf, 1e300, -40.0, 32.5):
        with pytest.raises(OutOfRange):
            g.nearest_node(x)


def test_spectral_derivative_on_sine(grid):
    xi2 = 2 * np.pi * 2 / grid.length
    f = GridFunction.from_callable(grid, lambda x: np.sin(xi2 * x))
    df = apply_multiplier(f.values, derivative_multiplier(grid, 1))
    assert np.allclose(df, xi2 * np.cos(xi2 * grid.x), atol=1e-10)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("shape", [(256,), (5, 256), (3, 4, 256)])
def test_apply_multiplier_matches_inline_round_trip(grid, shape):
    vals = np.random.default_rng(41).standard_normal(shape)
    lam = np.abs(grid.xi) ** 1.5
    inline = np.real(np.fft.ifft(lam * np.fft.fft(vals, axis=-1), axis=-1))
    assert _same_bits(apply_multiplier(vals, frac_lap_multiplier(grid, 1.5)), inline)
    deriv = 1j * grid.xi
    deriv[grid.n // 2] = 0.0
    inline = np.real(np.fft.ifft(deriv * np.fft.fft(vals, axis=-1), axis=-1))
    assert _same_bits(apply_multiplier(vals, derivative_multiplier(grid, 1)), inline)


def test_apply_multiplier_matches_dealiased_flux_form(grid):
    rng = np.random.default_rng(43)
    k_field, vals = rng.standard_normal(grid.n), rng.standard_normal((6, grid.n))
    k = np.fft.fftfreq(grid.n) * grid.n
    mask = (np.abs(k) <= grid.n // 3).astype(float)
    deriv = 1j * grid.xi
    deriv[grid.n // 2] = 0.0
    inline = np.real(np.fft.ifft(deriv * (np.fft.fft(k_field * vals, axis=-1) * mask), axis=-1))
    flux = apply_multiplier(k_field * vals, derivative_multiplier(grid, 1) * mask)
    assert _same_bits(flux, inline)


def _direct_multiplier_sums(values, mult):
    """(1/n) sum_k mult_k V_k e^{+2 pi i j k / n}, V_k = sum_j v_j e^{-2 pi i j k / n},
    as O(n^2) sums with exactly reduced phases; complex, so a multiplier that
    is not Hermitian shows as an imaginary part."""
    n = values.shape[-1]
    phase = np.exp(-2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
    return (mult * (values @ phase)) @ phase.conj() / n


def _library_multipliers(n, rng):
    grid = Grid1D(-rng.uniform(1.0, 40.0), rng.uniform(1.0, 40.0), n)
    k = np.fft.fftfreq(n) * n
    lam = frac_lap_multiplier(grid, rng.uniform(1.01, 2.0))
    return [
        derivative_multiplier(grid, 1),
        derivative_multiplier(grid, 2),
        derivative_multiplier(grid, 3),
        lam,
        np.exp(-rng.uniform(0.0, 2.0) * lam),
        derivative_multiplier(grid, 1) * (np.abs(k) <= n // 3),  # the filter's dealiased flux
    ]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 64),
    batch=st.lists(st.integers(1, 3), max_size=2),
    batched_mult=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_multiplier_is_the_direct_dft(n, batch, batched_mult, scale, seed):
    # random Hermitian multipliers, m_k = conj(m_{-k}), of any n and batch shape,
    # and every multiplier the library builds on power-of-two grids
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((*batch, n))
    raw = rng.standard_normal((*(batch if batched_mult else ()), n, 2)) @ [1.0, 1j]
    mults = [0.5 * (raw + np.conj(raw[..., -np.arange(n) % n]))]
    if n >= 2 and n & (n - 1) == 0:
        mults += _library_multipliers(n, rng)
    eps = np.finfo(float).eps
    for mult in mults:
        direct = _direct_multiplier_sums(values, mult)
        # round-off of the two n-term sums: 8 n eps max|m| sum_j |v_j|
        bound = 8 * n * eps * np.max(np.abs(mult)) * np.sum(np.abs(values), axis=-1, keepdims=True)
        assert np.all(np.abs(direct.imag) <= bound)
        assert np.all(np.abs(apply_multiplier(values, mult) - direct.real) <= bound)


def test_derivative_multiplier_nyquist_rule(grid):
    nyq = grid.n // 2
    assert derivative_multiplier(grid, 1)[nyq] == 0.0
    assert derivative_multiplier(grid, 3)[nyq] == 0.0
    assert derivative_multiplier(grid, 2)[nyq] == -grid.xi[nyq] ** 2


def test_cached_multipliers_are_read_only(grid):
    for mult in (derivative_multiplier(grid, 1), frac_lap_multiplier(grid, 1.5)):
        with pytest.raises(ValueError):
            mult[0] = 1.0
    assert derivative_multiplier(grid, 1) is derivative_multiplier(grid, 1)


@settings(max_examples=60, deadline=None)
@given(
    T=st.floats(1e-3, 1e3),
    steps=st.integers(1, 512),
    picks=st.lists(st.integers(0, 512), min_size=1, max_size=8),
    frac=st.floats(0.01, 0.99),
)
def test_time_indices_on_and_off_grid(T, steps, picks, frac):
    times = np.linspace(0.0, T, steps + 1)
    assert time_indices(times, None).tolist() == list(range(steps + 1))
    picks = [i % (steps + 1) for i in picks]
    assert time_indices(times, times[picks]).tolist() == sorted(set(picks))
    # the same times recomputed as i T / steps still land on their nodes
    assert time_indices(times, [i * T / steps for i in picks]).tolist() == sorted(set(picks))
    off = (picks[0] % steps + frac) * T / steps
    with pytest.raises(OffGridTime):
        time_indices(times, [times[picks[0]], off])


@pytest.mark.parametrize("ts", [[0.0, np.inf], [-np.inf], [np.nan]])
def test_time_indices_rejects_a_non_finite_time(ts):
    # |t_0 - inf| <= 1e-9 * max(1, inf) read inf <= inf, so +-inf matched node 0
    with pytest.raises(OffGridTime):
        time_indices(np.linspace(0.0, 1.0, 5), ts)


def _holds(T, steps, ts):
    try:
        time_indices(np.linspace(0.0, T, steps + 1), ts)
    except OffGridTime:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    T=st.sampled_from([0.3, 1.0, 1.7, 1e3]),
    nodes=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)), max_size=4),
    steps=st.integers(1, 100),
)
def test_time_grid_multiple_is_the_least_step_count_that_holds_the_times(T, nodes, steps):
    # the times j / q of [0, T], each on the grid of q steps
    ts = [T * min(j, q) / q for j, q in nodes]
    m = time_grid_multiple(T, ts)
    assert _holds(T, m, ts) and _holds(T, steps * m, ts)
    assert not any(_holds(T, n, ts) for n in range(1, m))
    assert _holds(T, steps, ts) == (steps % m == 0)


def test_time_grid_multiple_is_1_without_a_common_grid():
    assert time_grid_multiple(1.0, None) == 1
    assert time_grid_multiple(1.0, []) == 1
    for ts in ([0.123456789], [0.5, 1 / 65521], [2.0], [-0.5], [np.nan], [0.0, np.inf]):
        assert time_grid_multiple(1.0, ts) == 1


def test_holder_seminorm_constant_is_zero(grid):
    f = GridFunction(grid, np.full(grid.n, 2.0))
    assert holder_seminorm(f, 0.5) == 0.0


def brute_force_seminorm(vals, dx, beta):
    n = len(vals)
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, abs(vals[j] - vals[i]) / ((j - i) * dx) ** beta)
    return best


def test_holder_seminorm_linear_field():
    g = Grid1D(0.0, 1.0, 128)
    f = GridFunction(g, g.x.copy())
    got = holder_seminorm(f, 0.5)
    oracle = brute_force_seminorm(f.values, g.dx, 0.5)
    assert got == pytest.approx(oracle, rel=1e-12)
    # sup over the continuum is 1, attained at the endpoints; the grid stops
    # one cell short of x = 1
    assert got == pytest.approx((1.0 - g.dx) ** 0.5, rel=1e-12)
    assert abs(got - 1.0) < 2 * g.dx


def test_holder_seminorm_cusp_profile():
    g = Grid1D(-1.0, 1.0, 256)
    beta = 0.5
    f = GridFunction(g, np.abs(g.x) ** beta)
    got = holder_seminorm(f, beta)
    oracle = brute_force_seminorm(f.values, g.dx, beta)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.0, abs=0.05)


def test_holder_seminorm_invalid_beta(grid):
    f = GridFunction(grid, np.zeros(grid.n))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidExponent):
            holder_seminorm(f, bad)


@given(c=st.floats(min_value=-8, max_value=8, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_holder_seminorm_absolutely_homogeneous(c):
    g = Grid1D(-2.0, 2.0, 64)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(g.n)
    base = holder_seminorm(GridFunction(g, vals), 0.4)
    scaled = holder_seminorm(GridFunction(g, c * vals), 0.4)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


def test_holder_embedding_monotone():
    # beta2 < beta1 on a bounded grid: [f]_{beta2} <= C [f]_{beta1} with
    # C = max(1, diam^{beta1 - beta2})
    g = Grid1D(-8.0, 8.0, 128)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.standard_normal(g.n))
    b1, b2 = 0.8, 0.3
    c = max(1.0, g.length ** (b1 - b2))
    assert holder_seminorm(f, b2) <= c * holder_seminorm(f, b1) + 1e-12


def test_ensemble_norms_deterministic_replication():
    g = Grid1D(-4.0, 4.0, 64)
    prof = np.cos(2 * np.pi * g.x / g.length)
    times, paths = 5, 7
    vals = np.broadcast_to(prof, (paths, times, g.n)).copy()
    rep = ensemble_process_norms(vals, g, dt=0.1, beta=0.5, kind="s2")
    f = GridFunction(g, prof)
    assert rep.sup_norm == pytest.approx(np.abs(prof).max(), rel=1e-12)
    assert rep.holder_seminorm == pytest.approx(holder_seminorm(f, 0.5), rel=1e-12)


def test_ensemble_norms_brownian_factor():
    # u(t,x,w) = W_t(w) phi(x): the S2 sup norm factorizes into
    # sup|phi| * E[sup_t W_t^2]^(1/2); compare against direct MC on W alone
    g = Grid1D(-4.0, 4.0, 32)
    phi = np.exp(-g.x**2)
    rng = np.random.default_rng(23)
    paths, steps, T = 4000, 32, 1.0
    dt = T / steps
    w = np.cumsum(rng.normal(0, np.sqrt(dt), (paths, steps)), axis=1)
    w = np.concatenate([np.zeros((paths, 1)), w], axis=1)
    vals = w[:, :, None] * phi[None, None, :]
    rep = ensemble_process_norms(vals, g, dt=dt, beta=0.5, kind="s2")
    oracle = np.abs(phi).max() * np.sqrt(np.mean(np.max(w**2, axis=1)))
    assert rep.sup_norm == pytest.approx(oracle, rel=1e-12)


def test_ensemble_norms_single_path_matches_pathwise():
    g = Grid1D(-4.0, 4.0, 64)
    rng = np.random.default_rng(29)
    vals = rng.standard_normal((1, 3, g.n))
    rep = ensemble_process_norms(vals, g, dt=0.5, beta=0.4, kind="s2")
    sup_path = np.sqrt((vals[0] ** 2).max(axis=0)).max()
    assert rep.sup_norm == pytest.approx(sup_path, rel=1e-12)


def test_ensemble_norms_empty_raises():
    g = Grid1D(-4.0, 4.0, 64)
    with pytest.raises(EmptyEnsemble):
        ensemble_process_norms(np.zeros((0, 3, g.n)), g, dt=0.1, beta=0.5)


def test_ensemble_norms_l2_kind():
    g = Grid1D(-4.0, 4.0, 32)
    prof = np.sin(2 * np.pi * g.x / g.length)
    times = 9
    dt = 0.125
    vals = np.broadcast_to(prof, (3, times, g.n)).copy()
    rep = ensemble_process_norms(vals, g, dt=dt, beta=0.5, kind="l2")
    # constant-in-time field: trapezoid time integral = T * phi(x)^2, T = (times-1) dt
    T = (times - 1) * dt
    assert rep.sup_norm == pytest.approx(np.sqrt(T) * np.abs(prof).max(), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["s2", "l2"])
def test_ensemble_norms_reject_non_finite_values(bad, kind):
    # max(0.0, nan) is 0.0: without the check a NaN would vanish from the seminorm
    g = Grid1D(-4.0, 4.0, 32)
    vals = np.random.default_rng(5).standard_normal((3, 4, g.n))
    vals[1, 2, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        ensemble_process_norms(vals, g, dt=0.1, beta=0.5, kind=kind)


@pytest.mark.parametrize("dt", [-0.1, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("kind", ["s2", "l2"])
def test_ensemble_norms_reject_bad_time_step(dt, kind):
    # a negative or NaN trapezoid weight gave sup_norm = nan, holder_seminorm = 0.0
    g = Grid1D(-4.0, 4.0, 32)
    vals = np.random.default_rng(6).standard_normal((3, 4, g.n))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        ensemble_process_norms(vals, g, dt=dt, beta=0.5, kind=kind)


def _exhaustive_norms(values, g, dt, beta, kind, exact_limit):
    """The ensemble norms with every pair offset evaluated: the reference
    that the screened search must reproduce bit for bit."""
    arr = np.asarray(values, dtype=float)
    reduce = grid_module._ensemble_time_reduce
    per_x = reduce(arr**2, dt, kind).mean(axis=0)
    sup = float(np.sqrt(per_x.max()))
    semi = 0.0
    for m in pair_offsets(g.n, exact_limit=exact_limit):
        diff_sq = (arr[:, :, m:] - arr[:, :, :-m]) ** 2
        per_pair = reduce(diff_sq, dt, kind).mean(axis=0)
        semi = max(semi, float(np.sqrt(per_pair.max())) / (m * g.dx) ** beta)
    return sup, semi


def _ensemble_of_class(cls, shape, g, beta, rng):
    paths, times, n = shape
    x = g.x
    row = rng.standard_normal((paths, times, 1))
    if cls == "constant":
        return np.broadcast_to(row, shape).copy()
    if cls == "near-constant":
        return row + 1e-12 * rng.standard_normal(shape)
    if cls == "large-offset":
        return 1e8 + np.cumsum(rng.standard_normal(shape), axis=2)
    if cls == "rough":
        return rng.standard_normal(shape)
    if cls == "smooth":
        return row * np.sin(2 * np.pi * x / g.length + rng.uniform(0, 2 * np.pi))
    if cls == "bump":
        # two narrow bumps of opposite sign far apart: the argmax pair spans them
        i, j = rng.choice(n, 2, replace=False)
        width = 0.6 * g.dx
        bumps = np.exp(-(((x - x[i]) / width) ** 2)) - np.exp(-(((x - x[j]) / width) ** 2))
        return (1.0 + 0.01 * row) * bumps
    if cls == "cusp":
        # |x - x0|^beta: every pair with x0 has the same quotient, up to rounding
        x0 = x[rng.integers(n)]
        return row + np.abs(x - x0) ** beta
    if cls == "tiny":
        # differences whose squares underflow to subnormals
        return 10.0 ** rng.uniform(-170, -150) * rng.standard_normal(shape)
    raise ValueError(cls)


@settings(max_examples=1000, deadline=None)
@given(
    cls=st.sampled_from(
        ["constant", "near-constant", "large-offset", "rough", "smooth", "bump", "cusp", "tiny"]
    ),
    paths=st.integers(1, 4),
    times=st.integers(1, 5),
    n=st.sampled_from([8, 16, 32, 64, 128]),
    half_length=st.floats(0.5, 50.0),
    beta=st.floats(0.01, 0.99),
    kind=st.sampled_from(["s2", "l2"]),
    dt=st.floats(1e-3, 10.0),
    limit_below_n=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ensemble_norms_bit_identical_to_every_offset(
    cls, paths, times, n, half_length, beta, kind, dt, limit_below_n, seed
):
    g = Grid1D(-half_length, half_length, n)
    vals = _ensemble_of_class(cls, (paths, times, n), g, beta, np.random.default_rng(seed))
    exact_limit = n // 2 if limit_below_n else 512
    rep = ensemble_process_norms(vals, g, dt=dt, beta=beta, kind=kind, exact_limit=exact_limit)
    sup, semi = _exhaustive_norms(vals, g, dt, beta, kind, exact_limit)
    assert rep.sup_norm == sup
    assert rep.holder_seminorm == semi


def test_ensemble_norms_screen_prunes_smooth_ensembles(monkeypatch):
    # a smooth (32, 25, 512) ensemble, built as the random-terminal holder
    # instances are: a few low Fourier modes times an affine factor of W_t
    g = Grid1D(-32.0, 32.0, 512)
    rng = np.random.default_rng(0)
    k = np.arange(1, 5)
    coefs = rng.standard_normal((2, 4)) / (1.0 + k)
    xi = 2 * np.pi * k[:, None] / g.length
    prof = coefs[0] @ np.cos(xi * g.x) + coefs[1] @ np.sin(xi * g.x)
    w = np.cumsum(rng.normal(0.0, 0.2, (32, 25)), axis=1)
    smooth = (1.0 + w)[:, :, None] * prof

    reduce = grid_module._ensemble_time_reduce
    evaluated = []

    def counting(sq, dt, kind):
        if sq.shape[-1] < g.n:  # a pair-offset difference array
            evaluated.append(g.n - sq.shape[-1])
        return reduce(sq, dt, kind)

    monkeypatch.setattr(grid_module, "_ensemble_time_reduce", counting)
    # a large constant offset must not widen the bounds: the screen centres each row
    for vals in (smooth, 1e8 + smooth):
        ensemble_process_norms(vals, g, dt=1 / 24, beta=0.6, kind="l2")
        assert len(evaluated) <= 3
        evaluated.clear()
        ensemble_process_norms(vals, g, dt=1 / 24, beta=0.6, kind="s2")
        assert len(evaluated) <= 0.25 * (g.n - 1)
        evaluated.clear()


def test_field_arithmetic_and_grid_mismatch():
    g1 = Grid1D(-1.0, 1.0, 32)
    f1 = GridFunction(g1, np.ones(32, dtype=int))
    assert f1.values.dtype == float and np.all(f1.values == 1.0)
    with pytest.raises(GridMismatch):
        GridFunction(g1, np.ones(64))


def test_csv_round_trip(tmp_path):
    g = Grid1D(-2.0, 2.0, 32)
    f = GridFunction.from_callable(g, lambda x: np.sin(x))
    csv_path = tmp_path / "field.csv"
    write_field_csv(f, str(csv_path))
    back = read_field_csv(str(csv_path))
    assert back.grid == g
    assert np.allclose(back.values, f.values, atol=0)


@pytest.mark.parametrize(
    "text",
    [
        "x,value\n0,1\n1,2\n3,3\n4,4\n",  # uneven spacing
        "x,value\n0,1\n1,2\n2,3\n",  # row count not a power of two
        "x,val\n0,1\n1,2\n",  # bad header
        "",  # no header
        "x,value\n0,1\n1\n",  # short row
        "x,value\n0,1\n1,2,3\n",  # long row
        "x,value,extra\n0,1,5\n1,2,6\n",  # a third column
        "x,value,\n0,1\n1,2\n",  # a third, empty header field
        "x,value\n0,1\n1,nan\n",  # non-finite value
        "x,value\n1,1\n0,2\n",  # decreasing x
    ],
)
def test_read_field_csv_rejects_malformed_input(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MalformedInput):
        read_field_csv(str(path))
