"""Least-squares conditional expectations on Brownian path functionals."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import IllConditioned

__all__ = ["CoarseQR", "design_matrix", "factor_coarse_block", "project_expectation"]

# the largest design condition number a projection accepts (IllConditioned above it)
COND_LIMIT = 1e8


def _coarse_width(k: int) -> int:
    """Columns in the coarse values alone: 1, k values, k (k + 1) / 2 products."""
    return (k + 1) * (k + 2) // 2


def design_matrix(
    w_cum: np.ndarray,
    step: int,
    coarse_steps: np.ndarray,
) -> np.ndarray:
    """Monomials (degree <= 2) in W at past coarse times and the current time.

    w_cum has shape (paths, steps+1); only values with index <= step enter,
    which keeps every feature measurable at the conditioning time.  The
    monomials in the coarse values W(s), s < step, come first (1, W(s),
    W(s) W(s')): they are the same for every step between two coarse times.
    Those with the current value follow (W_step, W_step W(s), W_step^2), none
    at step 0.
    """
    coarse = np.ascontiguousarray(w_cum[:, [s for s in coarse_steps if s < step]].T)
    k = coarse.shape[0]
    width = _coarse_width(k) + (k + 2 if step > 0 else 0)
    # one row per feature, so each is written contiguously; the design is its transpose
    feats = np.empty((width, w_cum.shape[0]))
    feats[0] = 1.0
    feats[1 : k + 1] = coarse
    row = k + 1
    for i in range(k):
        np.multiply(coarse[i], coarse[i:], out=feats[row : row + k - i])
        row += k - i
    if step > 0:
        current = w_cum[:, step]
        feats[row] = current
        np.multiply(coarse, current, out=feats[row + 1 : row + 1 + k])
        np.multiply(current, current, out=feats[-1])
    return feats.T


class CoarseQR(NamedTuple):
    """Thin QR of a design's leading, coarse-only columns after
    project_expectation's scaling (all-zero columns dropped)."""

    width: int  # leading design columns, dropped ones included
    q: np.ndarray
    r: np.ndarray


def _scaled(block: np.ndarray) -> np.ndarray:
    """Columns divided by their RMS; all-zero ones carry no information and go."""
    scale = np.linalg.norm(block, axis=0) / np.sqrt(block.shape[0])
    keep = scale > 0.0
    return block[:, keep] / scale[keep]


def factor_coarse_block(design: np.ndarray, step: int, coarse_steps: np.ndarray) -> CoarseQR:
    """The QR of design_matrix(w_cum, step, coarse_steps)'s coarse-only
    columns, shared by every step with the same coarse times before it."""
    k = int(np.count_nonzero(np.asarray(coarse_steps) < step))
    width = _coarse_width(k)
    q, r = np.linalg.qr(_scaled(design[:, :width]))
    return CoarseQR(width, q, r)


def project_expectation(
    design: np.ndarray,
    targets: np.ndarray,
    se_cols: int | None = None,
    leading: CoarseQR | None = None,
):
    """Projection of targets onto the design span: fitted values, the
    fitted-value standard error of the first se_cols target columns (all when
    None), and the design condition number.

    The design's columns are scaled to unit RMS and its all-zero columns
    dropped.  With leading, the factored first leading.width columns, only
    the rest are orthogonalised against leading.q, by classical Gram-Schmidt
    run twice (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005), and
    then factored.  Without it, or with no more paths than columns, the whole
    design is factored.  The condition number is that of the assembled R, and
    the fit Q (Q^T targets) is taken in real arithmetic.  A condition number
    above COND_LIMIT raises IllConditioned.
    """
    n_paths, width = design.shape
    if leading is None or n_paths <= width:
        leading = CoarseQR(0, np.zeros((n_paths, 0)), np.zeros((0, 0)))
    rest = _scaled(design[:, leading.width:])
    coef = leading.q.T @ rest
    rest = rest - leading.q @ coef
    again = leading.q.T @ rest
    rest -= leading.q @ again
    q_rest, r_rest = np.linalg.qr(rest)
    lower_left = np.zeros((r_rest.shape[0], leading.r.shape[1]))
    r = np.block([[leading.r, coef + again], [lower_left, r_rest]])
    sv = np.linalg.svd(r, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond > COND_LIMIT:
        raise IllConditioned(
            f"normal-matrix condition ~{cond**2:.2e} exceeds threshold; "
            "raise the path count or lower the basis degree"
        )
    # a complex column is two real ones, so q stays real
    kind = complex if np.iscomplexobj(targets) else float
    flat = np.ascontiguousarray(targets.reshape(n_paths, -1), dtype=kind).view(float)
    fitted = leading.q @ (leading.q.T @ flat) + q_rest @ (q_rest.T @ flat)
    fitted = fitted.view(kind).reshape(targets.shape)
    if se_cols is None:
        resid_var = np.mean(np.abs(targets - fitted) ** 2, axis=0)
    else:
        # numpy sums one column pairwise but several row by row: reading at
        # least two keeps each mean bit-identical to the all-column one
        read = min(max(se_cols, 2), targets.shape[1])
        resid_var = np.mean(np.abs(targets[:, :read] - fitted[:, :read]) ** 2, axis=0)[:se_cols]
    se_fit = np.sqrt(resid_var * r.shape[1] / n_paths)
    return fitted, se_fit, cond
