"""Special functions and exponential-family estimation primitives.

Everything here is a pure function; all of the variational update
equations are built on top of these. The normalizations take any axis;
along a leading one they add in index order (``sum_in_order``), so the
E-step, which keeps its topic axes first, gets the same bits for a
document whatever else its batch holds. ``scale0`` broadcasts its scale
against the scores as any ufunc does.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateInputError, EstimationError

logger = logging.getLogger(__name__)

ALPHA_FLOOR = 1e-8
ALPHA_CAP = 1e6


def digamma(x):
    """Digamma function psi(x) = d/dx log Gamma(x), for x > 0.

    Accepts scalars or arrays; raises ValueError on any x <= 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("digamma domain error: requires x > 0")
    out = special.digamma(x)
    return float(out) if out.ndim == 0 else out


def log_gamma(x):
    """log Gamma(x) for x > 0. Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma domain error: requires x > 0")
    out = special.gammaln(x)
    return float(out) if out.ndim == 0 else out


def sum_in_order(a, axis, keepdims=False):
    """``a.sum(axis=axis, keepdims=keepdims)``; along any axis but the
    last it adds in index order, whatever the later axes hold.

    NumPy adds along such an axis in index order while a later axis has
    two or more entries. When each has one (an E-step batch of one
    document, say), the summed axis becomes NumPy's inner loop, which
    adds pairwise from 8 entries on. ``np.cumsum`` adds in index order
    always, and adding 0.0 gives its last entry the sign of zero of a
    sum started from 0.0, as NumPy's is.
    """
    a = np.asarray(a)
    axis = range(a.ndim)[axis]
    if axis == a.ndim - 1 or math.prod(a.shape[axis + 1 :]) != 1:
        return a.sum(axis=axis, keepdims=keepdims)
    total = np.cumsum(a, axis=axis).take([-1], axis=axis) + 0.0
    return total if keepdims else np.squeeze(total, axis=axis)


def log_normalize(log_weights, axis=-1):
    """Exponentiate and normalize log weights into a simplex vector.

    Uses max-subtraction, so the result is invariant under adding a
    constant to every input. Entries of -inf are allowed and map to
    exact zeros; if an entire slice along ``axis`` is -inf there is
    nothing to normalize and DegenerateInputError is raised.
    """
    p, _, _ = _normalized_exp(log_weights, axis)
    return p


def log_normalize_with_norm(log_weights, axis=-1):
    """log_normalize that also returns the log normalizer.

    Returns (p, log_norm): p is exactly log_normalize's result, and
    log_norm is the log-sum-exp along ``axis`` (that axis removed), taken
    from the same max-shifted exponentials.
    """
    p, shift, total = _normalized_exp(log_weights, axis)
    return p, shift + np.log(total)


def _normalized_exp(log_weights, axis):
    # (exp(lw - max) / sum, max, sum of the exponentials), max and sum
    # with ``axis`` removed
    lw = np.asarray(log_weights, dtype=float)
    m = lw.max(axis=axis, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise DegenerateInputError("log_normalize: no finite entry to normalize")
    p = lw - m
    np.exp(p, out=p)
    total = sum_in_order(p, axis, keepdims=True)
    p /= total
    return p, np.squeeze(m, axis=axis), np.squeeze(total, axis=axis)


def scale0(c, x):
    """c * x under the convention 0 * (-inf) = 0, for c >= 0.

    ``c`` broadcasts against ``x``. Same bits as c * np.where(c > 0, x,
    0.0), without a full-size temporary: where c > 0 fails the product
    is redone as c * 0.0.
    """
    with np.errstate(invalid="ignore"):
        out = c * x
    redo = np.logical_not(c > 0)
    if redo.any():
        np.multiply(c, 0.0, out=out, where=redo)
    return out


@dataclass
class DirichletStats:
    """Sufficient statistics for Dirichlet maximum likelihood.

    mean_log holds E[log p_k] averaged over the (possibly fractionally
    weighted) observations; num_obs is the effective observation count.
    """

    mean_log: np.ndarray
    num_obs: float

    def __post_init__(self):
        self.mean_log = np.asarray(self.mean_log, dtype=float)
        if not np.all(np.isfinite(self.mean_log)):
            raise ValueError("mean_log must be finite")


def dirichlet_objective(alpha, stats):
    """Expected log-likelihood of a Dirichlet, up to observation terms.

    num_obs * [log G(sum a) - sum log G(a_k) + sum (a_k - 1) mean_log_k]
    """
    alpha = np.asarray(alpha, dtype=float)
    return stats.num_obs * (
        special.gammaln(alpha.sum())
        - special.gammaln(alpha).sum()
        + ((alpha - 1.0) * stats.mean_log).sum()
    )


def _dirichlet_gradient(alpha, stats):
    return stats.num_obs * (
        special.digamma(alpha.sum()) - special.digamma(alpha) + stats.mean_log
    )


def dirichlet_mle(stats, init, max_iters=200, tol=1e-10):
    """Maximum-likelihood Dirichlet parameters from expected-log statistics.

    Newton iteration exploiting the diagonal-plus-rank-one Hessian, which
    can be inverted in linear time. Each Newton step is halved until the
    objective does not decrease, so accepted iterates form an ascending
    sequence even when the full step would overshoot into alpha <= 0.
    Components are clipped to [1e-8, 1e6] to keep digamma arguments sane.
    """
    if stats.num_obs <= 0:
        raise ValueError("dirichlet_mle requires num_obs > 0")
    alpha = np.array(init, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("dirichlet_mle requires a strictly positive init")
    alpha = np.clip(alpha, ALPHA_FLOOR, ALPHA_CAP)

    obj = dirichlet_objective(alpha, stats)
    if not np.isfinite(obj):
        raise EstimationError("non-finite objective at init", last_iterate=alpha)

    converged = False
    for _ in range(max_iters):
        grad = _dirichlet_gradient(alpha, stats)
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        # Hessian is n*psi'(sum a) * 11^T - diag(n*psi'(a_k)); solve by
        # Sherman-Morrison.
        q = -stats.num_obs * special.polygamma(1, alpha)
        c = stats.num_obs * special.polygamma(1, alpha.sum())
        b = (grad / q).sum() / (1.0 / c + (1.0 / q).sum())
        step = (grad - b) / q

        accepted = False
        scale = 1.0
        for _ in range(60):
            cand = np.clip(alpha - scale * step, ALPHA_FLOOR, ALPHA_CAP)
            cand_obj = dirichlet_objective(cand, stats)
            # The objective is concave, so grad(cand) . (cand - alpha) >= 0
            # implies cand_obj >= obj; unlike comparing objective values,
            # this still resolves gains below their float resolution.
            if np.isfinite(cand_obj) and (
                cand_obj >= obj
                or _dirichlet_gradient(cand, stats) @ (cand - alpha) >= 0.0
            ):
                if np.array_equal(cand, alpha):
                    # Clipping pinned us in place; no progress possible.
                    converged = True
                alpha, obj = cand, cand_obj
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise EstimationError(
                "dirichlet_mle: step halving failed to make progress",
                last_iterate=alpha,
            )
        if converged:
            break
    else:
        logger.warning(
            "dirichlet_mle hit max_iters=%d with gradient norm %.3g",
            max_iters,
            float(np.linalg.norm(_dirichlet_gradient(alpha, stats))),
        )
    return alpha
