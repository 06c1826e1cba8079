"""Least-squares conditional expectations on Brownian path functionals."""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned

__all__ = ["design_matrix", "project_expectation"]


def design_matrix(
    w_cum: np.ndarray,
    step: int,
    coarse_steps: np.ndarray,
) -> np.ndarray:
    """Monomials (degree <= 2) in W at past coarse times and the current time.

    w_cum has shape (paths, steps+1); only values with index <= step enter,
    which keeps every feature measurable at the conditioning time.
    """
    cols = [w_cum[:, s] for s in coarse_steps if s < step]
    if step > 0:
        cols.append(w_cum[:, step])
    n_paths = w_cum.shape[0]
    feats = [np.ones(n_paths)] + cols
    for i in range(len(cols)):
        for j in range(i, len(cols)):
            feats.append(cols[i] * cols[j])
    return np.column_stack(feats)


def project_expectation(
    design: np.ndarray,
    targets: np.ndarray,
    cond_threshold: float = 1e8,
    se_cols: int | None = None,
):
    """Projection of targets onto the design span: fitted values, the
    fitted-value standard error of the first se_cols target columns (all when
    None), and the design condition number."""
    scale = np.linalg.norm(design, axis=0) / np.sqrt(design.shape[0])
    keep = scale > 0.0  # all-zero features carry no information
    X = design[:, keep] / scale[keep]
    # the singular values of the solve give the condition number: one SVD
    coef, _, _, sv = np.linalg.lstsq(X, targets, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond > cond_threshold:
        raise IllConditioned(
            f"normal-matrix condition ~{cond**2:.2e} exceeds threshold; "
            "raise the path count or lower the basis degree"
        )
    fitted = X @ coef
    if se_cols is None:
        resid_var = np.mean(np.abs(targets - fitted) ** 2, axis=0)
    else:
        # numpy sums one column pairwise but several row by row: reading at
        # least two keeps each mean bit-identical to the all-column one
        read = min(max(se_cols, 2), targets.shape[1])
        resid_var = np.mean(np.abs(targets[:, :read] - fitted[:, :read]) ** 2, axis=0)[:se_cols]
    se_fit = np.sqrt(resid_var * X.shape[1] / X.shape[0])
    return fitted, se_fit, cond
