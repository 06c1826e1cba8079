import numpy as np
import pytest

from fracbspde.errors import OutOfRange, ResolutionError
from fracbspde.fraclap import (
    SingularIntegralConfig,
    apply_singular_integral,
    apply_spectral,
    c_alpha,
)
from fracbspde.grid import Grid1D, GridFunction

# |2^a Gamma((1+a)/2) / (sqrt(pi) Gamma(-a/2))| evaluated independently
C_ALPHA_TABLE = {
    1.2: 0.3335494299122482,
    1.5: 0.29920671030107465,
    1.8: 0.1649049388183027,
}


@pytest.fixture
def grid():
    return Grid1D(-32.0, 32.0, 512)


def test_c_alpha_values():
    for a, c in C_ALPHA_TABLE.items():
        assert c_alpha(a) == pytest.approx(c, rel=1e-12)
    assert c_alpha(1.5) == pytest.approx(0.2992, abs=5e-5)


def test_c_alpha_vanishes_at_two():
    # Gamma(-1 + d/2) ~ -2/d makes |C| ~ d near alpha = 2 - d
    for d in (1e-3, 1e-5):
        assert c_alpha(2.0 - d) == pytest.approx(d, rel=0.01)
    with pytest.raises(OutOfRange):
        c_alpha(2.0)
    with pytest.raises(OutOfRange):
        c_alpha(1.0)


def test_spectral_eigenmode(grid):
    xi3 = 2 * np.pi * 3 / grid.length
    f = GridFunction.from_callable(grid, lambda x: np.sin(xi3 * x))
    for alpha in (1.2, 1.5, 2.0):
        out = apply_spectral(f, alpha)
        assert np.allclose(out.values, xi3**alpha * f.values, atol=1e-12)


def test_spectral_constant_is_zero(grid):
    f = GridFunction(grid, np.full(grid.n, 4.2))
    assert np.max(np.abs(apply_spectral(f, 1.5).values)) < 1e-12


def test_spectral_alpha2_matches_second_derivative(grid):
    # compare against -f'' from a 4th-order finite-difference oracle
    f = GridFunction.from_callable(grid, lambda x: np.exp(-(x**2)))
    out = apply_spectral(f, 2.0)
    v = f.values
    dx = grid.dx
    fd2 = (
        -np.roll(v, -2) + 16 * np.roll(v, -1) - 30 * v + 16 * np.roll(v, 1) - np.roll(v, 2)
    ) / (12 * dx**2)
    assert np.max(np.abs(out.values + fd2)) < 50 * dx**4


def test_singular_integral_constant(grid):
    f = GridFunction(grid, np.full(grid.n, 1.7))
    out = apply_singular_integral(f, 1.5)
    assert np.max(np.abs(out.values)) < 1e-10


def test_singular_integral_sine_eigenmode():
    # grid commensurate with sin(x): multiplier must be |1|^alpha = 1
    g = Grid1D(-16 * np.pi, 16 * np.pi, 2048)
    f = GridFunction.from_callable(g, lambda x: np.sin(x))
    out = apply_singular_integral(f, 1.5)
    assert np.max(np.abs(out.values - f.values)) < 1e-3


def test_singular_integral_matches_spectral_on_gaussian():
    g = Grid1D(-32.0, 32.0, 2048)
    f = GridFunction.from_callable(g, lambda x: np.exp(-(x**2)))
    for alpha in (1.2, 1.5, 1.8):
        spec = apply_spectral(f, alpha)
        integ = apply_singular_integral(f, alpha)
        assert np.max(np.abs(spec.values - integ.values)) < 5e-3


def test_singular_integral_refinement_shrinks_error():
    g = Grid1D(-32.0, 32.0, 2048)
    f = GridFunction.from_callable(g, lambda x: np.exp(-(x**2)))
    spec = apply_spectral(f, 1.5)
    coarse = apply_singular_integral(f, 1.5, SingularIntegralConfig(quadrature_points=64))
    fine = apply_singular_integral(f, 1.5, SingularIntegralConfig(quadrature_points=256))
    e_coarse = np.max(np.abs(spec.values - coarse.values))
    e_fine = np.max(np.abs(spec.values - fine.values))
    assert e_coarse >= 4.0 * e_fine


def test_singular_integral_rejects_bad_inputs(grid):
    f = GridFunction(grid, np.zeros(grid.n))
    with pytest.raises(OutOfRange):
        apply_singular_integral(f, 2.0)
    with pytest.raises(ResolutionError):
        apply_singular_integral(f, 1.5, SingularIntegralConfig(inner_cutoff=0.5))
    with pytest.raises(ResolutionError):
        SingularIntegralConfig(inner_cutoff=-1.0)


def test_linearity(grid):
    rng = np.random.default_rng(41)
    # smooth random fields from a few low modes
    def smooth():
        vals = np.zeros(grid.n)
        for k in range(1, 5):
            xi = 2 * np.pi * k / grid.length
            vals += rng.normal() * np.cos(xi * grid.x) + rng.normal() * np.sin(xi * grid.x)
        return GridFunction(grid, vals)

    f1, f2 = smooth(), smooth()
    a_, b_ = 1.7, -0.6
    for op in (
        lambda h: apply_spectral(h, 1.5),
        lambda h: apply_singular_integral(h, 1.5),
    ):
        combo = op(GridFunction(grid, a_ * f1.values + b_ * f2.values))
        split = a_ * op(f1).values + b_ * op(f2).values
        assert np.max(np.abs(combo.values - split)) < 1e-10


def test_translation_equivariance(grid):
    f = GridFunction.from_callable(grid, lambda x: np.exp(-((x + 3.0) ** 2)))
    shift = 37
    shifted = GridFunction(grid, np.roll(f.values, shift))
    spec_roll = np.roll(apply_spectral(f, 1.5).values, shift)
    assert np.allclose(apply_spectral(shifted, 1.5).values, spec_roll, atol=1e-12)
    integ_roll = np.roll(apply_singular_integral(f, 1.5).values, shift)
    got = apply_singular_integral(shifted, 1.5).values
    assert np.max(np.abs(got - integ_roll)) < 1e-8


def test_reflection_symmetry(grid):
    f = GridFunction.from_callable(grid, lambda x: np.exp(-((x - 2.0) ** 2)))
    # x -> -x on the periodic grid: index j -> -j mod n
    refl = GridFunction(grid, f.values[(-np.arange(grid.n)) % grid.n])
    for op, tol in (
        (lambda h: apply_spectral(h, 1.4), 1e-12),
        (lambda h: apply_singular_integral(h, 1.4), 1e-8),
    ):
        direct = op(refl).values
        mirrored = op(f).values[(-np.arange(grid.n)) % grid.n]
        assert np.max(np.abs(direct - mirrored)) < tol
