"""Reference baselines: flat LDA and k-means clustering.

The LDA here is the plain single-grain topic model fitted by the same
kind of variational EM as the main model, with one twist: topic rows get
a fixed pseudocount in the M-step, and the reported objective includes
the matching log-prior term so the trace stays monotone. Clustering
baselines derive labels from it two ways (argmax of the document's topic
proportions, or k-means on the proportion vectors) and k-means can also
run directly on tf-idf vectors.

LDA shares the main model's flat layout: the documents' distinct terms
sit end to end, one row per (document, term) pair, and the E-step and
the bound run over the same fixed batches of documents, with segment
sums collecting row quantities per document. Results therefore depend
on nothing but the inputs and the seed. Within a batch, every document
sweeps until its bound stalls, and the sweeps go on over the documents
still running.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .corpus import flat_docs
from .errors import ConfigError, DegenerateInputError, NumericalError
from .inference import (
    DECREASE_SLACK,
    DOC_SWEEP_REL_TOL,
    _batch_slices,
    _dir_ep,
    _elog_dir,
    _gdot,
    _safe_log,
    _segsum,
)
from .model import FitReport, perturbed_uniform_rows
from .numerics import log_normalize_with_norm

logger = logging.getLogger(__name__)


@dataclass
class LdaModel:
    """Fitted LDA baseline.

    topics: (T, V) word distributions.
    doc_theta: (D, T) variational Dirichlet parameters over each
        document's topic proportions.
    alpha: symmetric document prior (held fixed during fitting).
    """

    topics: np.ndarray
    doc_theta: np.ndarray
    alpha: float


def _lda_doc_terms(alpha, gamma, elog):
    # per-document bound terms of the proportions: the expected log prior
    # minus the expected log variational Dirichlet
    num_topics = gamma.shape[-1]
    return (
        gammaln(num_topics * alpha)
        - num_topics * gammaln(alpha)
        + (alpha - 1.0) * elog.sum(axis=-1)
        - _dir_ep(gamma, elog)
    )


def _lda_bound(alpha, gamma, phi, lb, c, bounds):
    """Per-document bounds of a block of documents at a given phi.

    gamma is (n, T); phi, the log topic probabilities lb and the counts c
    hold one row per (document, term) pair, the rows of document i being
    bounds[i]:bounds[i + 1].
    """
    elog = _elog_dir(gamma)
    seg = np.repeat(np.arange(gamma.shape[0]), np.diff(bounds))
    x = elog[seg] + lb
    words = c * (_gdot(phi, x) - xlogy(phi, phi).sum(axis=-1))
    return _lda_doc_terms(alpha, gamma, elog) + _segsum(words, bounds)


def _lda_sweep(alpha, elog, lb, c, bounds):
    """One coordinate sweep on a block of documents (layout as _lda_bound).

    elog is E[log theta] at the current gamma. phi = softmax(elog[seg] +
    lb) row by row, then gamma = alpha + per-document sums of c * phi.
    Returns (gamma, its E[log theta], phi, bound), the bound taken at the
    new gamma and phi in collapsed form: log phi is
    x_old - logsumexp(x_old) with x_old = E[log theta]_old[seg] + lb, so
    the word and phi-entropy terms sum to
    (E[log theta]_new - E[log theta]_old) . (gamma_new - alpha)
    + sum over rows of c * logsumexp(x_old), and no second pass over the
    rows is needed.
    """
    seg = np.repeat(np.arange(elog.shape[0]), np.diff(bounds))
    phi, log_norm = log_normalize_with_norm(elog[seg] + lb, axis=-1)
    expected = _segsum(c[:, None] * phi, bounds)
    gamma = alpha + expected
    new_elog = _elog_dir(gamma)
    bound = (
        _lda_doc_terms(alpha, gamma, new_elog)
        + ((new_elog - elog) * expected).sum(axis=-1)
        + _segsum(c * log_norm, bounds)
    )
    return gamma, new_elog, phi, bound


def _lda_e_step(alpha, gamma, phi, lb, c, bounds, prev, sweeps):
    """Up to ``sweeps`` sweeps on a block of documents, in place.

    Layout as _lda_bound; prev holds each document's bound at the start.
    A document stops once a sweep gains less than DOC_SWEEP_REL_TOL
    relative: its gamma and phi are written back and the sweeps go on
    over the documents still running. Returns per-document sweep counts.
    """
    docs = np.arange(gamma.shape[0])
    rows = np.arange(c.size)
    ran = np.zeros(docs.size, dtype=np.int64)
    cur, elog = gamma, _elog_dir(gamma)
    for sweep in range(sweeps):
        cur, elog, cur_phi, val = _lda_sweep(alpha, elog, lb, c, bounds)
        ran[docs] += 1
        done = (val - prev < DOC_SWEEP_REL_TOL * np.maximum(1.0, np.abs(prev))) | (
            sweep + 1 == sweeps
        )
        if not done.any():
            prev = val
            continue
        sizes = np.diff(bounds)
        row_done = np.repeat(done, sizes)
        gamma[docs[done]] = cur[done]
        phi[rows[row_done]] = cur_phi[row_done]
        keep, row_keep = ~done, ~row_done
        docs, rows, lb, c = docs[keep], rows[row_keep], lb[row_keep], c[row_keep]
        cur, elog, prev = cur[keep], elog[keep], val[keep]
        bounds = np.concatenate([[0], np.cumsum(sizes[keep])])
        if not docs.size:
            break
    return ran


def fit_lda(
    corpus,
    num_topics,
    seed=0,
    alpha=0.1,
    eta=0.01,
    max_em_iters=100,
    e_step_iters=20,
    elbo_rel_tol=1e-5,
):
    """Fit LDA by variational EM.

    The trace records, per iteration, the sum of the per-document bounds
    plus eta * sum(log topics); the M-step's pseudocount eta is the exact
    maximizer of that term, so the trace never decreases beyond float
    slack. elbo_rel_tol = 0 disables early stopping.

    Returns (LdaModel, FitReport).
    """
    if num_topics < 1:
        raise ConfigError("num_topics must be >= 1")
    if corpus.num_docs < 1:
        raise DegenerateInputError("cannot fit an empty corpus")
    if alpha <= 0 or eta <= 0:
        raise ConfigError("alpha and eta must be > 0")

    start = time.perf_counter()
    num_docs, v_dim = corpus.num_docs, corpus.vocab_size
    rng = np.random.default_rng(seed)
    topics = perturbed_uniform_rows((num_topics, v_dim), rng)
    starts, words, counts = flat_docs(corpus.docs)
    gammas = np.full((num_docs, num_topics), alpha)
    gammas += _segsum(counts, starts)[:, None] / num_topics
    phi = np.full((words.size, num_topics), 1.0 / num_topics)
    # per batch: its documents, their rows, and row bounds within the batch
    batches = []
    for docs in _batch_slices(num_docs):
        b = starts[docs.start : docs.stop + 1]
        batches.append((docs, slice(b[0], b[-1]), b - b[0]))
    # each document's bound under the current topics, gamma and phi: the
    # objective's terms and the next E-step's starting point
    doc_bounds = np.empty(num_docs)

    def objective(log_beta):
        for docs, rows, bounds in batches:
            doc_bounds[docs] = _lda_bound(
                alpha, gammas[docs], phi[rows], log_beta[words[rows]], counts[rows], bounds
            )
        return eta * log_beta.sum() + doc_bounds.sum()

    # log topics term-major, so that a row gather by word id is contiguous
    log_beta = _safe_log(topics).T.copy()
    trace = [objective(log_beta)]
    converged = False
    iterations = 0
    for _ in range(max_em_iters):
        for docs, rows, bounds in batches:
            _lda_e_step(
                alpha,
                gammas[docs],
                phi[rows],
                log_beta[words[rows]],
                counts[rows],
                bounds,
                doc_bounds[docs],
                e_step_iters,
            )

        weights = np.zeros((v_dim, num_topics))
        np.add.at(weights, words, counts[:, None] * phi)
        topics = np.ascontiguousarray(weights.T) + eta
        topics /= topics.sum(axis=-1, keepdims=True)
        log_beta = _safe_log(topics).T.copy()
        iterations += 1

        value = objective(log_beta)
        prev = trace[-1]
        trace.append(value)
        if value < prev - DECREASE_SLACK * max(1.0, abs(prev)):
            raise NumericalError(
                f"objective decreased from {prev:.10g} to {value:.10g} "
                f"at iteration {iterations}",
                details={"previous": prev, "current": value, "trace": list(trace)},
            )
        if elbo_rel_tol > 0 and value - prev < elbo_rel_tol * max(1.0, abs(prev)):
            converged = True
            break

    report = FitReport(
        elbo_trace=trace,
        iterations_run=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )
    return LdaModel(topics=topics, doc_theta=gammas, alpha=alpha), report


def lda_naive_cluster(model):
    """Cluster by each document's highest-proportion topic (ties: lowest id)."""
    return np.argmax(model.doc_theta, axis=1).astype(np.int64)


def _squared_distances(points, point_norms, centers):
    # point_norms: (points * points).sum(axis=1), computed once per kmeans call
    d2 = (
        point_norms[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_seed(points, point_norms, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _squared_distances(points, point_norms, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(
            d2, _squared_distances(points, point_norms, centers[j : j + 1])[:, 0]
        )
    return centers


def _lloyd(points, point_norms, k, rng, max_iters, cost_trace=None):
    n = points.shape[0]
    centers = _kmeans_pp_seed(points, point_norms, k, rng)
    labels = None
    for _ in range(max_iters):
        d2 = _squared_distances(points, point_norms, centers)
        new_labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                # revive an empty cluster from the worst-placed point
                idx = int(assigned.argmax())
                new_labels[idx] = j
                assigned[idx] = -1.0
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
        if cost_trace is not None:
            d2 = _squared_distances(points, point_norms, centers)
            cost_trace.append(float(d2[np.arange(n), labels].sum()))
    d2 = _squared_distances(points, point_norms, centers)
    wcss = float(d2[np.arange(n), labels].sum())
    return labels.astype(np.int64), centers, wcss


def kmeans(points, num_clusters, seed=0, restarts=10, max_iters=100):
    """Plain k-means with greedy seeding and restarts.

    Centers are seeded by sampling points proportionally to squared
    distance from those already chosen; the best of ``restarts``
    independent runs by within-cluster sum of squares wins. Each restart
    seeds its own generator from (seed, restart index), so results are
    reproducible and restarts are independent.

    Returns (labels, centers, wcss).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ConfigError("points must be a 2-d array")
    if num_clusters < 1:
        raise ConfigError("num_clusters must be >= 1")
    if points.shape[0] < num_clusters:
        raise DegenerateInputError("fewer points than clusters")
    if restarts < 1 or max_iters < 1:
        raise ConfigError("restarts and max_iters must be >= 1")

    point_norms = (points * points).sum(axis=1)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, centers, wcss = _lloyd(points, point_norms, num_clusters, rng, max_iters)
        if best is None or wcss < best[2]:
            best = (labels, centers, wcss)
    return best


def theta_kmeans(model, num_clusters, seed=0, restarts=10, max_iters=100):
    """Cluster a fitted LDA model's documents by k-means on their
    normalized topic proportions."""
    theta = model.doc_theta / model.doc_theta.sum(axis=1, keepdims=True)
    labels, _, _ = kmeans(
        theta, num_clusters, seed=seed, restarts=restarts, max_iters=max_iters
    )
    return labels


def lda_kmeans(corpus, num_clusters, num_topics=60, seed=0, restarts=10, **lda_opts):
    """Fit LDA, then k-means on the normalized topic proportions.

    num_topics defaults to 60 and is independent of the cluster count.
    Extra keyword arguments go to fit_lda.
    """
    model, _ = fit_lda(corpus, num_topics, seed=seed, **lda_opts)
    return theta_kmeans(model, num_clusters, seed=seed, restarts=restarts)
