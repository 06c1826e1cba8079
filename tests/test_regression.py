from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbspde import regression
from fracbspde.bspde import regress_backward
from fracbspde.errors import IllConditioned
from fracbspde.regression import design_matrix, factor_coarse_block, project_expectation

EPS = np.finfo(float).eps


def lstsq_projection(design, targets):
    """The reference projection: lstsq on the RMS-scaled design without its
    all-zero columns, the condition number from the same SVD.  One step of
    refinement on the residual brings the fit to within about
    0.5 eps (1 + cond) max|targets| of the exact projection (checked against
    one in extended precision); lstsq alone was off by up to 200 eps on
    designs with cond < 2."""
    scale = np.linalg.norm(design, axis=0) / np.sqrt(design.shape[0])
    X = design[:, scale > 0] / scale[scale > 0]
    coef, _, _, sv = np.linalg.lstsq(X, targets, rcond=None)
    fit = X @ coef
    fit += X @ np.linalg.lstsq(X, targets - fit, rcond=None)[0]
    return fit, (sv[0] / sv[-1] if sv[-1] > 0 else np.inf)


def brownian(rng, n_paths, n_steps):
    inc = rng.normal(0.0, np.sqrt(1.0 / n_steps), (n_paths, n_steps))
    return np.concatenate([np.zeros((n_paths, 1)), np.cumsum(inc, axis=1)], axis=1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(["any", "step 0", "coarse boundary", "few paths", "zero column",
                          "near-collinear"]),
    complex_targets=st.booleans(),
    noise=st.sampled_from([1e-3, 1.0]),
)
def test_projection_matches_lstsq(seed, case, complex_targets, noise):
    # the QR projection against lstsq on designs that regress_backward builds.
    # Targets lean on the coarse columns, as Y does: a single Gram-Schmidt pass
    # leaves the current columns' Q off orthogonal to the coarse Q by about
    # eps cond, which shows in such a fit; the second pass removes it.
    rng = np.random.default_rng(seed)
    n_steps = int(rng.integers(2, 33))
    low = 0 if case == "zero column" else 1  # W(0) = 0 makes all-zero columns
    coarse = np.unique(np.concatenate([rng.integers(low, n_steps + 1, int(rng.integers(1, 6))),
                                       [0] if case == "zero column" else []])).astype(int)
    if case == "step 0":
        step = 0
    elif case == "coarse boundary":  # the last step before a coarse step leaves, or the first after
        step = int(min(rng.choice(coarse) + rng.integers(0, 2), n_steps - 1))
    else:
        step = int(rng.integers(1, n_steps))
    k = int(np.count_nonzero(coarse < step))
    width = (k + 1) * (k + 2) // 2 + (k + 2 if step > 0 else 0)
    n_paths = int(rng.integers(2, width + 1) if case == "few paths" else rng.integers(width + 1, 400))
    w_cum = brownian(rng, n_paths, n_steps)
    if case == "near-collinear" and k > 0:
        # W_step lies within 10^-6..10^-2 of the last coarse value before it
        last = coarse[coarse < step][-1]
        w_cum[:, step] = w_cum[:, last] + 10.0 ** rng.uniform(-6, -2) * rng.normal(size=n_paths)
    design = design_matrix(w_cum, step, coarse)
    assert design.shape[1] == width
    lead = factor_coarse_block(design, step, coarse)
    cols = int(rng.integers(1, 4))
    targets = design[:, : lead.width] @ rng.normal(size=(lead.width, cols))
    targets += noise * rng.normal(size=(n_paths, cols))
    if complex_targets:
        targets = targets + 1j * (design[:, : lead.width] @ rng.normal(size=(lead.width, cols)))

    ref_fit, ref_cond = lstsq_projection(design, targets)
    if ref_cond <= 1e8:
        with patch.object(regression, "COND_LIMIT", np.inf):
            fit, _, cond = project_expectation(design, targets, leading=lead)
        assert fit.dtype == targets.dtype
        # eps cond max|T| from the span, 8 sqrt(n) ulps from sums over the paths
        bound = 0.5 * EPS * (ref_cond + 16.0 * np.sqrt(n_paths)) * np.abs(targets).max()
        assert np.abs(fit - ref_fit).max() <= bound
        assert abs(cond - ref_cond) <= 1e-12 * ref_cond**2
    for threshold in (1e8, ref_cond * 10.0 ** rng.uniform(-1, 1)):
        if abs(np.log(ref_cond / threshold)) < 1e-6:
            continue
        with patch.object(regression, "COND_LIMIT", threshold):
            if ref_cond > threshold:
                with pytest.raises(IllConditioned):
                    project_expectation(design, targets, leading=lead)
            else:
                project_expectation(design, targets, leading=lead)


def test_coarse_columns_lead_and_stay_within_a_segment():
    rng = np.random.default_rng(5)
    w_cum = brownian(rng, 50, 16)
    coarse = np.array([4, 8, 16])
    # steps 5..8 see the coarse values at 4 only: 1, W4, W4^2, then W_i, W_i W4, W_i^2
    blocks = [design_matrix(w_cum, i, coarse) for i in range(5, 9)]
    for i, d in zip(range(5, 9), blocks):
        w4, wi = w_cum[:, 4], w_cum[:, i]
        np.testing.assert_array_equal(d, np.column_stack([np.ones(50), w4, w4 * w4, wi, w4 * wi, wi * wi]))
    assert factor_coarse_block(blocks[0], 5, coarse).width == 3
    np.testing.assert_array_equal(design_matrix(w_cum, 0, coarse), np.ones((50, 1)))


def test_backward_regression_factors_each_coarse_segment_once(monkeypatch):
    # coarse steps 8, 16, ..., 64: steps 57..63 share W at 8..56, ..., steps
    # 0..8 share none; each segment's leading QR is taken once, and every step
    # still projects the full design once
    factored, projected = [], []

    def factor(design, step, coarse_steps):
        factored.append(step)
        return factor_coarse_block(design, step, coarse_steps)

    def project(design, targets, leading=None, **kw):
        projected.append(design.shape[1] - leading.width)
        return project_expectation(design, targets, leading=leading, **kw)

    monkeypatch.setattr("fracbspde.bspde.factor_coarse_block", factor)
    monkeypatch.setattr("fracbspde.bspde.project_expectation", project)
    rng = np.random.default_rng(11)
    n_steps = 64
    inc = rng.normal(0.0, np.sqrt(1.0 / n_steps), (600, n_steps))
    regress_backward(
        inc, np.ones((600, 1)), lambda i, y: -y, lambda i: 0.0,
        np.arange(8, 65, 8), np.array([0]), 1.0 / n_steps,
    )
    assert factored == [63, 56, 48, 40, 32, 24, 16, 8]
    # a step's own columns: W_i, W_i W(s) for its k coarse values, W_i^2; none at 0
    assert projected == [k + 2 for k in range(7, -1, -1) for _ in range(7 if k == 7 else 8)] + [0]

