import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracbspde.bspde import BSPDEData, solve_pde_variable_coeff
from fracbspde import zakai
from fracbspde.errors import (
    BlowUp,
    BudgetExceeded,
    OffGridTime,
    PositivityViolation,
    StabilityError,
)
from fracbspde.fraclap import frac_lap_multiplier
from fracbspde.grid import Grid1D
from fracbspde.kernel import CoefficientA, apply_semigroup_A
from fracbspde.grid import GridFunction, apply_multiplier, derivative_multiplier, time_indices
from fracbspde.levy import PathGrid, RngStream, sample_stable, simulate_brownian_increments
from fracbspde.zakai import (
    ControlPolicy,
    ControlProblem,
    apply_L,
    apply_L_star,
    brute_force_optimal_control,
    check_step_count,
    cost_functional,
    duality_defect,
    hamiltonian,
    solve_adjoint,
    solve_zakai,
    verify_maximum_principle,
)

GRID = Grid1D(-32.0, 32.0, 128)
XI1 = 2 * np.pi / GRID.length


def gaussian_density(grid, var=1.0):
    p = np.exp(-grid.x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    return p / (p.sum() * grid.dx)  # unit mass on the truncated box


def make_problem(
    grid=GRID,
    alpha=1.5,
    T=0.5,
    k=None,
    h=None,
    f=None,
    g=None,
    U=(0.0,),
    p0=None,
    mu=lambda t: 1.0,
):
    zeros = np.zeros(grid.n)
    return ControlProblem(
        grid=grid,
        alpha=alpha,
        T=T,
        mu=mu,
        k=k or (lambda t, v: zeros),
        h=h or (lambda t: zeros),
        f=f or (lambda t, v: zeros),
        g=zeros if g is None else g,
        U=U,
        p0=gaussian_density(grid) if p0 is None else p0,
    )


def smooth_field(grid, seed, modes=5):
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.n)
    for k in range(1, modes + 1):
        xi = 2 * np.pi * k / grid.length
        vals += rng.normal() * np.cos(xi * grid.x) + rng.normal() * np.sin(xi * grid.x)
    return vals


def test_operator_self_adjoint_without_transport():
    prob = make_problem()
    phi, psi = smooth_field(GRID, 1), smooth_field(GRID, 2)
    assert duality_defect(phi, psi, 0.1, 0.0, prob) < 1e-10
    out_l = apply_L(phi, 0.1, 0.0, prob)
    out_ls = apply_L_star(phi, 0.1, 0.0, prob)
    assert np.max(np.abs(out_l - out_ls)) < 1e-12


def test_operator_kills_constants_with_constant_k():
    prob = make_problem(k=lambda t, v: np.full(GRID.n, 0.7))
    phi = np.full(GRID.n, 2.0)
    assert np.max(np.abs(apply_L(phi, 0.0, 0.0, prob))) < 1e-12


def test_duality_with_varying_k():
    prob = make_problem(k=lambda t, v: np.sin(XI1 * GRID.x))
    phi, psi = smooth_field(GRID, 3), smooth_field(GRID, 4)
    scale = np.linalg.norm(phi) * np.linalg.norm(psi) * GRID.dx
    assert duality_defect(phi, psi, 0.2, 0.0, prob) < 1e-8 * scale


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([16, 32, 64, 128, 256, 512]),
    alpha=st.floats(1.0, 2.0, exclude_min=True),
    v=st.floats(-1.0, 1.0),
)
def test_duality_defect_is_round_off(seed, n, alpha, v):
    # the spectral derivative with its Nyquist mode zeroed is skew and the
    # fractional Laplacian symmetric, so <L phi, psi> = <phi, L* psi> holds for
    # any k, phi and psi up to round-off: eps times the operator norm bound
    # (a max lam + max|k| pi / dx) ||phi|| ||psi||.  Measured up to 0.46 of it
    # on 400 draws; a dropped or sign-flipped transport term is O(1) of it.
    rng = np.random.default_rng(seed)
    half = rng.uniform(1.0, 20.0)
    grid = Grid1D(-half, half, n)
    k = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    mu = rng.uniform(0.2, 3.0)
    prob = make_problem(grid=grid, alpha=alpha, k=lambda t, v: k * (1 + v), mu=lambda t: mu)
    phi = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    psi = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    op = prob.a.at(0.1) * frac_lap_multiplier(grid, alpha).max()
    op += np.abs(k * (1 + v)).max() * np.pi / grid.dx
    norms = np.sqrt(np.sum(phi**2) * np.sum(psi**2)) * grid.dx
    bound = 4 * np.finfo(float).eps * op * norms
    assert duality_defect(phi, psi, 0.1, v, prob) <= bound


def test_zakai_pure_diffusion_matches_semigroup():
    prob = make_problem()
    n_steps = 32
    y_inc = np.zeros((1, n_steps))
    state = solve_zakai(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    ref = apply_semigroup_A(GridFunction(GRID, prob.p0), prob.T, prob.alpha)
    assert np.max(np.abs(state.p_at(prob.T)[0] - ref.values)) < 1e-6


def test_zakai_mass_conservation_with_transport():
    prob = make_problem(k=lambda t, v: 0.5 * np.sin(XI1 * GRID.x))
    n_steps = 64
    y_inc = np.zeros((1, n_steps))
    state = solve_zakai(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    masses = state.mass()[0]
    assert np.max(np.abs(masses - 1.0)) < 1e-8 * prob.T


def test_zakai_constant_observation_closed_form():
    h0 = 0.8
    prob = make_problem(h=lambda t: np.full(GRID.n, h0))
    n_steps = 32
    rng = RngStream(61)
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), rng, 4)
    state = solve_zakai(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    y_T = y_inc.sum(axis=1)
    base = apply_semigroup_A(GridFunction(GRID, prob.p0), prob.T, prob.alpha).values
    expected = base[None, :] * np.exp(h0 * y_T - 0.5 * h0**2 * prob.T)[:, None]
    assert np.max(np.abs(state.p_at(prob.T) - expected)) < 1e-6


def test_zakai_positivity_for_smooth_density():
    prob = make_problem(
        k=lambda t, v: 0.4 * np.sin(XI1 * GRID.x),
        h=lambda t: 0.5 * np.cos(XI1 * GRID.x),
    )
    n_steps = 64
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(67), 4)
    state = solve_zakai(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    floor = -1e-6 * np.abs(state.p).max()
    assert state.p.min() > floor


def test_zakai_first_order_self_convergence():
    # noncommuting generator pieces: halving dt should roughly halve the error
    prob = make_problem(
        k=lambda t, v: 0.4 * np.sin(XI1 * GRID.x),
        h=lambda t: 0.6 * np.cos(XI1 * GRID.x),
    )
    policy = ControlPolicy.constant(0.0, prob.T)
    fine_steps = 256
    y_fine = simulate_brownian_increments(PathGrid(prob.T, fine_steps), RngStream(71), 2)

    def coarsen(inc, factor):
        return inc.reshape(inc.shape[0], -1, factor).sum(axis=2)

    ref = solve_zakai(prob, policy, y_fine, n_steps=fine_steps).p_at(prob.T)
    e = {}
    for factor in (8, 4):
        steps = fine_steps // factor
        sol = solve_zakai(prob, policy, coarsen(y_fine, factor), n_steps=steps).p_at(prob.T)
        e[factor] = np.max(np.abs(sol - ref))
    ratio = e[8] / e[4]
    assert 1.5 < ratio < 3.0


def test_zakai_blowup_guard():
    prob = make_problem(h=lambda t: np.full(GRID.n, 3.0))
    n_steps = 4
    y_inc = np.full((1, n_steps), 10.0)  # absurd observation increments
    with pytest.raises(BlowUp):
        solve_zakai(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e3])
def test_zakai_step_guard_trips_on_nan_inf_and_values_over_it(bad):
    # one path's row set to NaN, +inf or 1e3 times the guard level; with no
    # transport and no observation the step keeps that row constant
    prob = make_problem()
    steps = zakai._ZakaiSteps(prob, np.zeros((2, 4)), 4)
    p = steps.p0.copy()
    p[1] = bad * steps.guard_level
    msg = "density norm exceeded the blow-up guard at step 1/4; reduce the step size"
    with pytest.raises(BlowUp, match=re.escape(msg)):
        steps.step(0, p, 0.0)
    assert np.all(np.isfinite(steps.step(0, steps.p0, 0.0)))


def split_step(steps, i, p, v):
    """The filter step with a new array for every transform and product, as
    written before the step's work arrays: the bit-level reference."""
    dt = steps.dt
    p = np.real(np.fft.ifft(steps.diffusion[i] * np.fft.fft(p, axis=-1), axis=-1))
    k_field = np.asarray(steps.problem.k(steps.times[i], v), dtype=float)
    flux = lambda q: np.real(np.fft.ifft(steps.flux_mult * np.fft.fft(k_field * q, axis=-1), axis=-1))
    f1 = -flux(p)
    p_stage = p + dt * f1
    f2 = -flux(p_stage)
    p = p + 0.5 * dt * (f1 + f2)
    p = p * np.exp(steps.h[i] * steps.y_inc[:, i][:, None] - steps.h_drift[i])
    if not float(np.abs(p).max()) <= steps.guard_level:
        raise BlowUp(f"density norm exceeded the blow-up guard at step {i + 1}/{steps.n_steps}; "
                     "reduce the step size")
    return p


def observed_problem(k):
    return make_problem(k=k, h=lambda t: 0.4 * np.tanh(GRID.x / 4) + t, U=(-0.5, 0.0, 0.5))


STEP_FIELDS = {
    "k = 0.5": lambda t, v: np.full(GRID.n, 0.5),
    "k = v": lambda t, v: np.full(GRID.n, v),
    "k = 0": lambda t, v: np.zeros(GRID.n),
    "k = -0.0": lambda t, v: np.full(GRID.n, -0.0),
    "k varies in x": lambda t, v: 0.5 * np.sin(XI1 * GRID.x) + v * t,
}


@pytest.mark.parametrize("name", sorted(STEP_FIELDS))
def test_filter_step_has_the_bits_of_the_split_step(name):
    n_steps = 12
    y_inc = np.random.default_rng(3).normal(0.0, np.sqrt(0.5 / n_steps), (5, n_steps))
    steps = zakai._ZakaiSteps(observed_problem(STEP_FIELDS[name]), y_inc, n_steps)
    p = ref = steps.p0
    for i in range(n_steps):
        v = (-0.5, 0.0, 0.5)[i % 3]
        p, ref = steps.step(i, p, v), split_step(steps, i, ref, v)
        assert p.tobytes() == ref.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_filter_step_with_a_nan_k_blows_up_where_the_split_step_does():
    # k.any() holds for NaN, so a NaN k takes the transport and meets the guard
    def k(t, v):
        return np.full(GRID.n, np.nan if t >= 0.2 else 0.0)

    n_steps = 10
    steps = zakai._ZakaiSteps(observed_problem(k), np.zeros((3, n_steps)), n_steps)
    raised = []
    for step in (steps.step, lambda i, p, v: split_step(steps, i, p, v)):
        p = steps.p0
        with pytest.raises(BlowUp) as exc:
            for i in range(n_steps):
                p = step(i, p, 0.0)
        raised.append(str(exc.value))
    assert raised[0] == raised[1] == (
        "density norm exceeded the blow-up guard at step 5/10; reduce the step size"
    )


def test_filter_step_returns_states_that_share_no_memory():
    # the prefix tree keeps a parent state while its children step from it
    steps = zakai._ZakaiSteps(observed_problem(STEP_FIELDS["k = v"]), np.ones((4, 6)) * 0.1, 6)
    parent = steps.step(0, steps.p0, 0.5)
    kept = parent.copy()
    children = [steps.step(1, parent, v) for v in (-0.5, 0.0, 0.5)]
    grandchild = steps.step(2, children[0], 0.5)
    assert parent.tobytes() == kept.tobytes()
    states = [steps.p0, parent, *children, grandchild]
    for a, b in itertools.combinations(states, 2):
        assert not np.shares_memory(a, b)
    for state, work in itertools.product(states, [steps.spec, *steps.work]):
        assert not np.shares_memory(state, work)
    assert children[0].tobytes() == split_step(steps, 1, kept, -0.5).tobytes()


@pytest.mark.parametrize("name, calls", [("k = 0", 2), ("k = -0.0", 2), ("k = 0.5", 6), ("k varies in x", 6)])
def test_filter_step_takes_two_transforms_at_zero_velocity_and_six_otherwise(monkeypatch, name, calls):
    steps = zakai._ZakaiSteps(observed_problem(STEP_FIELDS[name]), np.zeros((2, 4)), 4)
    counted = Counter()
    for fn in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, fn)
        monkeypatch.setattr(np.fft, fn, lambda *a, _f=original, _n=fn, **kw: counted.update([_n]) or _f(*a, **kw))
    steps.step(1, steps.p0, 0.5)
    assert counted == Counter({"fft": calls // 2, "ifft": calls // 2})


def test_problem_validation():
    with pytest.raises(PositivityViolation):
        make_problem(p0=np.ones(GRID.n))  # mass is not 1
    bad = -gaussian_density(GRID)
    with pytest.raises(PositivityViolation):
        make_problem(p0=bad)
    # NaN passes both the sign and the mass comparison
    with pytest.raises(PositivityViolation):
        make_problem(p0=np.full(GRID.n, np.nan))


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
def test_problem_rejects_a_horizon_not_above_zero(T):
    # T = -1 built, then solve_zakai failed with "OrderViolation: need s < t"
    with pytest.raises(ValueError, match="horizon T must be > 0"):
        make_problem(T=T)


def test_cost_trivial_mass():
    prob = make_problem(g=np.ones(GRID.n))
    y_inc = np.zeros((3, 16))
    est = cost_functional(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=16)
    assert est.mean == pytest.approx(1.0, abs=1e-10)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_cost_running_time():
    prob = make_problem(f=lambda t, v: np.ones(GRID.n))
    y_inc = np.zeros((2, 16))
    est = cost_functional(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=16)
    assert est.mean == pytest.approx(prob.T, abs=1e-10)


def test_cost_second_moment_vs_sde_oracle():
    # alpha = 2, k = 0, h = 0: J = <x^2, p(T)> = Var(p0) + 2 A_{T,0}
    T = 0.5
    prob = make_problem(alpha=2.0, T=T, g=GRID.x**2)
    y_inc = np.zeros((1, 32))
    est = cost_functional(prob, ControlPolicy.constant(0.0, T), y_inc, n_steps=32)
    assert est.mean == pytest.approx(1.0 + 2.0 * T, rel=1e-4)
    # Monte Carlo of the state SDE: X_T = X_0 + M_T with Var(M_T) = 2T
    rng = RngStream(73).generator()
    n = 200_000
    x0 = rng.normal(0.0, 1.0, n)
    xT = x0 + sample_stable(2.0, T, rng, n)
    mc = xT**2
    assert abs(est.mean - mc.mean()) < 3.0 * mc.std() / np.sqrt(n)


def test_adjoint_terminal_and_constant_cases():
    c0 = 1.3
    prob = make_problem(g=np.full(GRID.n, c0))
    y_inc = np.zeros((2, 32))
    adj = solve_adjoint(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=32)
    assert np.max(np.abs(adj.q_at(prob.T) - c0)) < 1e-12
    assert np.max(np.abs(adj.q_at(0.0) - c0)) < 1e-10


def test_adjoint_matches_pde_solver_when_unobserved():
    k_field = 0.3 * np.sin(XI1 * GRID.x)
    f_prof = 0.5 * np.cos(XI1 * GRID.x)
    g_term = np.sin(XI1 * GRID.x)
    prob = make_problem(
        k=lambda t, v: k_field,
        f=lambda t, v: f_prof,
        g=g_term,
    )
    n_steps = 256
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(79), 64)
    adj = solve_adjoint(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    data = BSPDEData(
        grid=GRID,
        alpha=prob.alpha,
        T=prob.T,
        a=CoefficientA.constant(1.0),
        g=g_term,
        f=lambda t: f_prof,
        b=lambda t: k_field,
    )
    pde = solve_pde_variable_coeff(data, n_steps=n_steps)
    for t in (0.0, 0.25):
        diff = adj.q_at(t) - pde.u_at(t)[None, :]
        assert np.max(np.abs(diff)) < 1e-5
        # l is pure regression noise here: stay below 3x its own error bar
        l_rms = float(np.sqrt(np.mean(adj.l_at(t) ** 2)))
        assert l_rms <= 3.0 * adj.l_se[time_indices(adj.times, [t])[0]] + 1e-12


def test_adjoint_l_at_terminal_time_is_last_step_fit():
    # the scheme does not define l at T; it is the fit of step N-1
    prob = make_problem(g=np.sin(XI1 * GRID.x), h=lambda t: np.full(GRID.n, 0.5))
    n_steps = 64
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(83), 64)
    adj = solve_adjoint(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    last = prob.T * (1.0 - 1.0 / n_steps)
    np.testing.assert_array_equal(adj.l_at(prob.T), adj.l_at(last))
    assert adj.l_se[-1] == adj.l_se[-2] > 0.0
    assert np.any(adj.l_at(prob.T) != 0.0)


def test_hamiltonian_identities():
    phi = np.exp(-GRID.x**2 / 4)
    prob = make_problem(
        k=lambda t, v: 0.2 * np.sin(XI1 * GRID.x),
        f=lambda t, v: (1.0 + v**2) * phi,
        U=(-1.0, 0.0, 1.0),
    )
    p = gaussian_density(GRID)
    q = smooth_field(GRID, 6)
    h1 = hamiltonian(0.1, 1.0, p, q, prob)
    h0 = hamiltonian(0.1, 0.0, p, q, prob)
    exact = float(np.sum(phi * p) * GRID.dx)  # <f(1) - f(0), p> = <phi, p>
    assert h1 - h0 == pytest.approx(exact, rel=1e-12)
    assert hamiltonian(0.1, 1.0, np.zeros(GRID.n), q, prob) == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_integration_by_parts():
    prob = make_problem(k=lambda t, v: np.sin(XI1 * GRID.x))
    p = gaussian_density(GRID)
    q = smooth_field(GRID, 7)
    k_field = np.sin(XI1 * GRID.x)

    def deriv(vals):
        return apply_multiplier(vals, derivative_multiplier(GRID, 1))

    lhs = np.sum(deriv(k_field * p) * q) * GRID.dx
    rhs = -np.sum(k_field * p * deriv(q)) * GRID.dx
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_off_grid_output_times_raise():
    prob = make_problem()
    policy = ControlPolicy.constant(0.0, prob.T)
    y_inc = np.zeros((4, 16))
    state = solve_zakai(prob, policy, y_inc, n_steps=16, output_times=[0.0, 0.25])
    with pytest.raises(OffGridTime):
        state.p_at(0.125)  # on the step grid, not among the output times
    # 0.26 lies between the nodes 0.25 and 0.28125 of the 16-step grid on [0, 0.5]
    for solve in (solve_zakai, solve_adjoint):
        with pytest.raises(OffGridTime):
            solve(prob, policy, y_inc, n_steps=16, output_times=[0.25, 0.26])


def test_brute_force_separable_cost_prefers_zero():
    phi = np.exp(-GRID.x**2 / 4)
    prob = make_problem(
        f=lambda t, v: (v**2) * phi,
        U=(-1.0, 0.0, 1.0),
    )
    y_inc = np.zeros((8, 24))
    res = brute_force_optimal_control(prob, n_intervals=2, y_inc=y_inc, n_steps=24)
    assert res.policy.values == (0.0, 0.0)


def test_brute_force_single_policy_and_budget():
    prob = make_problem(U=(0.5,))
    y_inc = np.zeros((2, 8))
    res = brute_force_optimal_control(prob, n_intervals=2, y_inc=y_inc, n_steps=8)
    assert res.policy.values == (0.5, 0.5)
    prob2 = make_problem(U=(0.0, 1.0))  # 2^9 = 512 policies, over the budget of 256
    with pytest.raises(BudgetExceeded):
        brute_force_optimal_control(prob2, n_intervals=9, y_inc=np.zeros((2, 9)), n_steps=9)


def per_policy_search(prob, n_intervals, y_inc, n_steps):
    """cost_functional on each policy in turn: the search the prefix tree
    must reproduce bit for bit."""
    table, best = [], None
    for values in itertools.product(sorted(prob.U), repeat=n_intervals):
        policy = ControlPolicy.uniform(values, prob.T)
        est = cost_functional(prob, policy, y_inc, n_steps=n_steps)
        table.append((values, est.mean, est.stderr))
        if best is None or est.mean < best[1] - 1e-15:
            best = (policy, est.mean, est.stderr)
    return table, best


SMALL = Grid1D(-8.0, 8.0, 32)


def time_dependent_problem(U, c, k=None, T=0.5):
    # every coefficient depends on time; c holds random amplitudes and phases
    weight = np.minimum((SMALL.x - c[0]) ** 2, 9.0)
    return ControlProblem(
        grid=SMALL,
        alpha=1.2 + 0.7 * c[1],
        T=T,
        mu=lambda t: 1.0 + 0.4 * np.sin(7.0 * t + c[2]),
        k=k or (lambda t, v: v * (1.0 + c[3] * np.sin(5.0 * t)) * np.cos(SMALL.x / 3.0 + c[4])),
        h=lambda t: (0.2 + c[5] + t) * np.tanh(SMALL.x / 4.0),
        f=lambda t, v: (1.0 + t * v) * weight + c[6] * np.sin(SMALL.x) * v,
        g=weight,
        U=U,
        p0=gaussian_density(SMALL),
    )


@settings(max_examples=60, deadline=None)
@given(
    n_intervals=st.integers(1, 3),
    U=st.lists(st.sampled_from([-0.6, -0.25, 0.0, 0.3, 0.6]), min_size=1, max_size=3),
    n_steps=st.sampled_from([7, 10, 12]),
    T=st.sampled_from([0.5, 0.9]),
    n_paths=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_brute_force_tree_equals_per_policy_search(n_intervals, U, n_steps, T, n_paths, seed):
    # U unsorted and with repeats; step counts 7 and 10 put interval
    # boundaries between steps for some m, and at T = 0.9 the nodes 5 of 10
    # and 6 of 12 round to just below the middle edge, so value_at puts them
    # in the first of two intervals
    rng = np.random.default_rng(seed)
    prob = time_dependent_problem(tuple(U), rng.uniform(0.0, 1.0, 7), T=T)
    y_inc = rng.normal(0.0, np.sqrt(prob.T / n_steps), (n_paths, n_steps))
    res = brute_force_optimal_control(prob, n_intervals, y_inc, n_steps=n_steps)
    table, (policy, cost, stderr) = per_policy_search(prob, n_intervals, y_inc, n_steps)
    assert res.table == table
    assert res.policy == policy
    assert res.cost == cost
    assert res.stderr == stderr


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.sampled_from([-0.6, 0.0, 0.3, 0.6]), min_size=1, max_size=3),
    n_steps=st.sampled_from([7, 10, 12]),
    T=st.sampled_from([0.5, 0.9]),
    n_paths=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=[0.6, -0.6], n_steps=10, T=0.9, n_paths=3, seed=1)  # node 5 rounds into interval 0
def test_cost_functional_is_the_filter_running_cost(values, n_steps, T, n_paths, seed):
    # an independent reference: the left-rectangle cost read off solve_zakai,
    # which takes each step's control from policy.value_at(t_i)
    rng = np.random.default_rng(seed)
    prob = time_dependent_problem((0.0,), rng.uniform(0.0, 1.0, 7), T=T)
    y_inc = rng.normal(0.0, np.sqrt(T / n_steps), (n_paths, n_steps))
    policy = ControlPolicy.uniform(values, T)
    p = solve_zakai(prob, policy, y_inc, n_steps=n_steps).p
    times = np.linspace(0.0, T, n_steps + 1)
    running = np.zeros(n_paths)
    for i, t in enumerate(times[:-1]):
        f_field = prob.f(t, policy.value_at(t))
        running += T / n_steps * (np.ascontiguousarray(p[:, i]) @ f_field) * SMALL.dx
    per_path = running + (np.ascontiguousarray(p[:, -1]) @ prob.g) * SMALL.dx
    est = cost_functional(prob, policy, y_inc, n_steps=n_steps)
    assert est.mean == float(per_path.mean())
    assert est.stderr == float(per_path.std(ddof=1) / np.sqrt(n_paths))


@pytest.mark.parametrize("n_intervals", [1, 2, 3])
@pytest.mark.parametrize("nan_value, cfl_value", [(0.3, 0.6), (0.6, 0.3), (0.3, None), (None, 0.3)])
def test_brute_force_raises_what_the_per_policy_search_raises(n_intervals, nan_value, cfl_value):
    # only later policies fail: one control value turns the transport field
    # NaN after t = 0.15 (a blow-up at a policy-dependent step; the CFL
    # check skips NaN); another breaks the CFL rule from t = 0.15 on and
    # turns NaN after t = 0.3.  The search checks the CFL number of every
    # (interval, value) pair before any step, so a policy that breaks it
    # raises the worst policy's StabilityError ahead of any BlowUp; without
    # one, the search raises the per-policy search's BlowUp
    def k(t, v):
        if v == nan_value and t > 0.15 or v == cfl_value and t > 0.3:
            return np.full(SMALL.n, np.nan)
        return np.full(SMALL.n, 40.0 if v == cfl_value and t > 0.15 else v)

    prob = time_dependent_problem((0.6, 0.0, 0.3), np.full(7, 0.5), k=k)
    n_steps = 12
    y_inc = np.random.default_rng(7).normal(0.0, 0.2, (3, n_steps))
    cost_functional(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    policies = [ControlPolicy.uniform(values, prob.T)
                for values in itertools.product(sorted(prob.U), repeat=n_intervals)]
    worst = max(policies, key=lambda p: zakai._policy_cfl(prob, p, n_steps).number(n_steps))
    if zakai._policy_cfl(prob, worst, n_steps).number(n_steps) > 1.0:
        with pytest.raises(StabilityError) as ref:
            cost_functional(prob, worst, y_inc, n_steps=n_steps)
    else:
        with pytest.raises(BlowUp) as ref:
            per_policy_search(prob, n_intervals, y_inc, n_steps)
    with pytest.raises(ref.type, match=f"^{re.escape(str(ref.value))}$"):
        brute_force_optimal_control(prob, n_intervals, y_inc, n_steps=n_steps)


@pytest.mark.parametrize("n_paths, runs", [(64, 2), (600, 3)])
def test_maximum_principle_reuses_the_full_run_as_fine_probe(monkeypatch, n_paths, runs):
    prob = drift_target_problem()
    n_steps = 16  # a 4-step probe is outside the explicit adjoint's stability region
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(103), n_paths)
    policy = ControlPolicy.uniform((0.0, 0.5), prob.T)
    calls = Counter()
    for name in ("solve_zakai", "solve_adjoint"):
        def counted(*args, _fn=getattr(zakai, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(zakai, name, counted)
    rep = verify_maximum_principle(prob, policy, y_inc, n_steps=n_steps)
    assert calls == {"solve_zakai": runs, "solve_adjoint": runs}
    monkeypatch.undo()
    # forced recomputation: the fine and the coarse probe on the first 512 paths
    sub = y_inc[:512]
    fine = verify_maximum_principle(prob, policy, sub, n_steps, discretization_estimate=0.0)
    coarse = verify_maximum_principle(
        prob, policy, sub.reshape(len(sub), n_steps // 2, 2).sum(axis=2), n_steps // 2,
        discretization_estimate=0.0,
    )
    assert [(e.t, e.v) for e in fine.entries] == [(e.t, e.v) for e in coarse.entries]
    estimate = max(abs(a.margin - b.margin) for a, b in zip(fine.entries, coarse.entries))
    assert rep == verify_maximum_principle(
        prob, policy, y_inc, n_steps, discretization_estimate=estimate
    )


def drift_target_problem(U=(-0.5, 0.0, 0.5), T=0.5):
    # drift control toward a target: k = v, running cost (x - 1)^2 clipped
    weight = np.minimum((GRID.x - 1.0) ** 2, 25.0)
    return make_problem(
        T=T,
        k=lambda t, v: np.full(GRID.n, v),
        f=lambda t, v: 0.5 * weight,
        g=weight,
        h=lambda t: 0.4 * np.tanh(GRID.x / 4),
        U=U,
    )


def test_brute_force_argmin_stable_under_fresh_seed():
    prob = drift_target_problem()
    n_steps = 24
    grid_t = PathGrid(prob.T, n_steps)
    y_a = simulate_brownian_increments(grid_t, RngStream(83, 0), 1500)
    y_b = simulate_brownian_increments(grid_t, RngStream(83, 1), 1500)
    res_a = brute_force_optimal_control(prob, n_intervals=2, y_inc=y_a, n_steps=n_steps)
    res_b = brute_force_optimal_control(prob, n_intervals=2, y_inc=y_b, n_steps=n_steps)
    cost_b = {vals: (m, se) for vals, m, se in res_b.table}
    m_a, se_a = cost_b[res_a.policy.values]
    # the seed-A argmin re-evaluated under seed B is optimal within ties
    assert m_a <= res_b.cost + 3.0 * (se_a + res_b.stderr)


def test_maximum_principle_vacuous_single_control():
    prob = drift_target_problem(U=(0.3,))
    n_steps = 16
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(89), 256)
    policy = ControlPolicy.constant(0.3, prob.T)
    rep = verify_maximum_principle(prob, policy, y_inc, n_steps=n_steps)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-14)


def test_maximum_principle_separable_cost_exact():
    phi = np.exp(-GRID.x**2 / 4)
    cost_of = {-1.0: 2.0, 0.0: 0.5, 1.0: 1.0}
    prob = make_problem(
        f=lambda t, v: cost_of[v] * phi,
        U=(-1.0, 0.0, 1.0),
    )
    n_steps = 16
    y_inc = np.zeros((64, n_steps))
    policy = ControlPolicy.constant(0.0, prob.T)  # argmin of cost_of
    rep = verify_maximum_principle(
        prob, policy, y_inc, n_steps=n_steps, discretization_estimate=0.0
    )
    assert rep.passed
    # margins equal <(c(v) - c(0)) phi, p> >= 0 exactly
    for e in rep.entries:
        assert e.margin >= -1e-14


def test_maximum_principle_full_toy():
    prob = drift_target_problem()
    n_steps = 24
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(97), 2000)
    res = brute_force_optimal_control(prob, n_intervals=2, y_inc=y_inc, n_steps=n_steps)
    rep = verify_maximum_principle(prob, res.policy, y_inc, n_steps=n_steps)
    assert rep.passed, [(e.t, e.v, e.margin, e.tolerance) for e in rep.entries if not e.passed]


def test_girsanov_unit_mean_mass():
    prob = make_problem(h=lambda t: 0.5 * np.cos(XI1 * GRID.x), g=np.ones(GRID.n))
    n_steps = 32
    y_inc = simulate_brownian_increments(PathGrid(prob.T, n_steps), RngStream(101), 4000)
    est = cost_functional(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    assert abs(est.mean - 1.0) <= 3.0 * est.stderr + 1e-3


def spike_problem(T=0.5, n_steps=24):
    # k is large only at the step time t_1 = T / n_steps, between two of
    # the 17 times linspace(0, T, 17): that one step runs at CFL 12.5
    def k(t, v):
        if abs(t - T / n_steps) < 1e-12:
            return 300.0 * np.sin(16 * np.pi * GRID.x / GRID.length)
        return np.full(GRID.n, v)

    return make_problem(T=T, k=k, U=(0.0, 0.1))


def test_transport_cfl_check_reads_every_step_time():
    prob, n_steps = spike_problem(), 24
    y_inc = np.zeros((2, n_steps))
    # 299 steps still run at CFL 1.003 with the spike's max |k|; 300 pass
    match = r"^transport CFL number 12\.5 > 1; raise n_steps to at least 300$"
    with pytest.raises(StabilityError, match=match):
        solve_zakai(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    with pytest.raises(StabilityError, match=match):
        cost_functional(prob, ControlPolicy.constant(0.0, prob.T), y_inc, n_steps=n_steps)
    with pytest.raises(StabilityError, match=match):
        brute_force_optimal_control(prob, 2, y_inc, n_steps=n_steps)
    # the terminal time T is no step time: a k spike there constrains nothing
    late = make_problem(k=lambda t, v: np.full(GRID.n, 1e6 if t == 0.5 else 0.0))
    solve_zakai(late, ControlPolicy.constant(0.0, 0.5), y_inc, n_steps=n_steps)


def test_policy_search_evaluates_k_once_per_step_time_and_value(monkeypatch):
    prob = drift_target_problem()
    calls = Counter()
    k = prob.k

    def counted(t, v):
        calls[t, v] += 1
        return k(t, v)

    prob.k = counted
    stepped = Counter()
    step = zakai._ZakaiSteps.step

    def counted_step(self, i, p, v):
        stepped[self.times[i], v] += 1
        return step(self, i, p, v)

    monkeypatch.setattr(zakai._ZakaiSteps, "step", counted_step)
    n_steps = 24
    brute_force_optimal_control(prob, 3, np.zeros((2, n_steps)), n_steps=n_steps)
    # one CFL read per (step time, control value) on top of the 312 Zakai
    # steps of the prefix tree, each of which reads k once
    assert sum(stepped.values()) == 312
    assert calls - stepped == Counter(
        {(t, v): 1 for t in np.linspace(0.0, prob.T, n_steps + 1)[:-1] for v in prob.U}
    )


def test_refinement_probe_cfl_names_the_steps_to_pass(monkeypatch):
    # k = 20 runs at CFL 0.83 on 24 steps but at 1.67 on the probe's 12; the
    # probe's CFL count alone is 40, where the adjoint symbol is still 1.74,
    # and 506 passes all four guards
    prob = drift_target_problem(U=(-20.0, 20.0))
    policy = ControlPolicy.constant(20.0, prob.T)
    y_inc = np.zeros((4, 24))
    monkeypatch.setattr(zakai, "solve_zakai", None)  # the check comes before any run
    with pytest.raises(
        StabilityError,
        match=r"^transport CFL number 1\.67 > 1 in the refinement probe at n_steps / 2 = 12 "
        r"steps; raise n_steps to at least 506$",
    ):
        verify_maximum_principle(prob, policy, y_inc, n_steps=24)
    cfl = [zakai._policy_cfl(prob, policy, n).number(n) for n in (20, 19)]
    assert cfl[0] <= 1.0 < cfl[1]
    with pytest.raises(StabilityError, match=r"^explicit adjoint symbol 1\.7445 > 1; .* 506$"):
        check_step_count(prob, policy, 40)
    with pytest.raises(StabilityError, match="refinement probe at n_steps / 2 = 252 steps"):
        check_step_count(prob, policy, 504)
    check_step_count(prob, policy, 506)


def test_refinement_probe_adjoint_symbol_names_the_steps_to_pass(monkeypatch):
    # the 4-step probe of an 8-step run breaks the adjoint symbol by 4e-4; the
    # count to pass is the caller's, twice the probe's 5, not the probe's own
    prob = drift_target_problem()
    policy = ControlPolicy.constant(0.5, prob.T)
    monkeypatch.setattr(zakai, "solve_zakai", None)  # the check comes before any run
    with pytest.raises(
        StabilityError,
        match=r"^explicit adjoint symbol 1\.0004 > 1 in the refinement probe at "
        r"n_steps / 2 = 4 steps; raise n_steps to at least 10$",
    ):
        verify_maximum_principle(prob, policy, np.zeros((4, 8)), n_steps=8)
    assert zakai._adjoint_symbol(prob, policy, 5)[0] <= zakai._SYMBOL_LIMIT
    assert zakai._adjoint_symbol(prob, policy, 4)[0] > zakai._SYMBOL_LIMIT


BOX32 = Grid1D(-32.0, 32.0, 32)


def constant_k_problem(K, T):
    # k(t, v) = v at the one control value K: every guard's coefficients are constant in t
    prob = make_problem(grid=BOX32, T=T, k=lambda t, v: np.full(BOX32.n, v), U=(K,))
    return prob, ControlPolicy.constant(K, T)


def named_steps(message: str) -> int:
    return int(re.fullmatch(r".*; raise n_steps to at least (\d+)", message).group(1))


def printed_number(message: str) -> float:
    return float(re.search(r" (\S+) > 1", message).group(1))


# steps_k = K T / dx, the real count at which the CFL number is exactly 1;
# the runs take ceil(frac steps_k) steps, and fail save at steps_k itself
STEPS_K = st.one_of(st.integers(1, 600).map(float), st.floats(1.0, 600.0))
FRAC = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(steps_k=STEPS_K, T=st.sampled_from([0.3, 0.5, 1.7]), frac=FRAC)
@example(steps_k=275.0, T=0.3, frac=274 / 275)
@example(steps_k=275.0, T=0.3, frac=1.0)  # CFL 1 + 2e-16: "above 276" named a count one too many
def test_transport_cfl_names_the_least_step_count_that_passes(steps_k, T, frac):
    n_steps = max(1, math.ceil(frac * steps_k))
    prob, policy = constant_k_problem(steps_k * BOX32.dx / T, T)
    assume(zakai._policy_cfl(prob, policy, n_steps).number(n_steps) > 1.0)
    y_inc = np.zeros((1, n_steps))
    with pytest.raises(StabilityError) as ref:
        solve_zakai(prob, policy, y_inc, n_steps=n_steps)
    message = str(ref.value)
    assert message.startswith("transport CFL number ") and printed_number(message) > 1.0
    for run in (lambda: cost_functional(prob, policy, y_inc, n_steps=n_steps),
                lambda: brute_force_optimal_control(prob, 1, y_inc, n_steps=n_steps)):
        with pytest.raises(StabilityError, match=f"^{re.escape(message)}$"):
            run()
    named = named_steps(message)
    assert zakai._policy_cfl(prob, policy, named).number(named) <= 1.0
    assert zakai._policy_cfl(prob, policy, named - 1).number(named - 1) > 1.0


def symbol_steps(K, T):
    # the count at which the adjoint symbol reaches 1 at a = 1: per mode
    # dt <= 2 lam / (lam^2 + K^2 xi^2)
    xi = np.abs(BOX32.xi[1:])
    return T * float(np.max((xi**3 + K**2 * xi**2) / (2 * xi**1.5)))


@settings(max_examples=40, deadline=None)
@given(K=st.floats(0.5, 20.0), T=st.sampled_from([0.3, 0.5, 1.7]), frac=FRAC)
def test_adjoint_symbol_names_the_least_step_count_that_passes(K, T, frac):
    n_steps = max(1, math.ceil(frac * symbol_steps(K, T)))
    prob, policy = constant_k_problem(K, T)
    assume(zakai._adjoint_symbol(prob, policy, n_steps)[0] > zakai._SYMBOL_LIMIT)
    with pytest.raises(StabilityError) as ref:
        solve_adjoint(prob, policy, np.zeros((2, n_steps)), n_steps=n_steps)
    message = str(ref.value)
    assert message.startswith("explicit adjoint symbol ") and printed_number(message) > 1.0
    named = named_steps(message)
    assert zakai._adjoint_symbol(prob, policy, named)[0] <= zakai._SYMBOL_LIMIT
    assert zakai._adjoint_symbol(prob, policy, named - 1)[0] > zakai._SYMBOL_LIMIT


@pytest.mark.parametrize("solver, K, least, named", [
    (solve_zakai, 21.5 * BOX32.dx, 22, 24),
    (solve_adjoint, 5.0, 17, 20),
])
def test_named_step_count_holds_the_output_times(solver, K, least, named):
    # the guard named the least count that passes it, on whose grid the
    # quarters of [0, 1] are not nodes: OffGridTime followed
    prob, policy = constant_k_problem(K, 1.0)

    def message(n, output_times):
        with pytest.raises(StabilityError) as exc:
            solver(prob, policy, np.zeros((2, n)), n_steps=n, output_times=output_times)
        return str(exc.value)

    quarters = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert named_steps(message(4, None)) == least
    assert named_steps(message(4, quarters)) == named
    assert named_steps(message(named - 4, quarters)) == named
    solver(prob, policy, np.zeros((2, named)), n_steps=named, output_times=quarters)


@settings(max_examples=40, deadline=None)
@given(K=st.floats(0.5, 20.0), T=st.sampled_from([0.3, 0.5, 1.7]),
       multiple=st.sampled_from([2, 4, 8, 12]), frac=FRAC)
def test_step_count_check_names_the_least_multiple_that_passes(K, T, multiple, frac):
    # the probe at n_steps / 2 needs twice the symbol's count
    j = max(1, math.ceil(frac * 2 * symbol_steps(K, T) / multiple))
    prob, policy = constant_k_problem(K, T)
    try:
        check_step_count(prob, policy, multiple * j, multiple)
    except StabilityError as exc:
        message = str(exc)
    else:
        assume(False)
    assert printed_number(message) > 1.0
    named = named_steps(message)
    assert named % multiple == 0
    check_step_count(prob, policy, named, multiple)
    with pytest.raises(StabilityError, match=f"; raise n_steps to at least {named}$"):
        check_step_count(prob, policy, named - multiple, multiple)


def test_step_count_check_survives_a_k_whose_square_overflows():
    # K^2 overflows in the adjoint's step count: a clean StabilityError, no
    # OverflowError from int(inf) and no RuntimeWarning
    prob = drift_target_problem(U=(1e200,))
    with pytest.raises(StabilityError, match=r"^transport CFL number .* > 1; the n_steps that passes overflows$"):
        check_step_count(prob, ControlPolicy.constant(1e200, prob.T), 24)


def test_adjoint_symbol_check_names_the_steps_that_pass():
    # k at 0.95 of the filter's CFL limit on 64 steps of T = 4: the filter's
    # check passes, and the explicit adjoint grew max |q(0)| to 9e24 from a
    # terminal of size 1, every value finite
    n_steps = 64
    K = 0.95 * GRID.dx / (4.0 / n_steps)
    prob = make_problem(T=4.0, k=lambda t, v: np.full(GRID.n, v), U=(K,), g=np.exp(-GRID.x**2))
    policy = ControlPolicy.constant(K, prob.T)
    assert zakai._policy_cfl(prob, policy, n_steps).number(n_steps) <= 1.0
    match = r"^explicit adjoint symbol 2\.9381 > 1; raise n_steps to at least 319$"
    with pytest.raises(StabilityError, match=match):
        solve_adjoint(prob, policy, np.zeros((2, n_steps)), n_steps=n_steps)
    # per mode dt <= 2 a lam / (a^2 lam^2 + K^2 xi^2): 319 is the least count that passes
    with pytest.raises(StabilityError, match="at least 319$"):
        solve_adjoint(prob, policy, np.zeros((2, 318)), n_steps=318)
    adj = solve_adjoint(prob, policy, np.zeros((2, 319)), n_steps=319)
    assert np.abs(adj.q).max() <= 1.0 + 1e-9


def test_adjoint_symbol_check_reads_the_drift_times():
    # the adjoint's drift reads k at t_{i+1}, so at T, which no filter step reads
    late = make_problem(k=lambda t, v: np.full(GRID.n, 1e3 if t == 0.5 else 0.0))
    policy, y_inc = ControlPolicy.constant(0.0, 0.5), np.zeros((2, 24))
    solve_zakai(late, policy, y_inc, n_steps=24)
    with pytest.raises(StabilityError, match="explicit adjoint symbol"):
        solve_adjoint(late, policy, y_inc, n_steps=24)


def test_maximum_principle_needs_two_paths(monkeypatch):
    # one path gave NaN tolerances and RuntimeWarnings
    prob = drift_target_problem()
    monkeypatch.setattr(zakai, "solve_zakai", None)  # raised before any run
    with pytest.raises(ValueError, match="at least 2 observation paths, got 1"):
        verify_maximum_principle(prob, ControlPolicy.constant(0.0, prob.T), np.zeros((1, 24)), 24)


def test_control_problem_samples_mu_as_a_coefficient():
    # mu vanishes at the second of CoefficientA.from_callable's 2049 sample
    # times, which is none of linspace(0, T, 257)
    t_zero = np.linspace(0.0, 0.5, 2049)[1]
    assert not np.any(np.linspace(0.0, 0.5, 257) == t_zero)
    with pytest.raises(PositivityViolation, match="dips to 0.0"):
        make_problem(mu=lambda t: 0.0 if t == t_zero else 1.0)
    prob = make_problem(mu=lambda t: 1.0 + t)
    assert (prob.a.lower, prob.a.upper) == (1.0, 1.5**1.5)
    assert prob.a.at(0.25) == 1.25**1.5
