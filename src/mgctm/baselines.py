"""Reference baselines: flat LDA and k-means clustering.

The LDA here is the plain single-grain topic model fitted by the same
kind of variational EM as the main model, with one twist: topic rows get
a fixed pseudocount in the M-step, and the reported objective includes
the matching log-prior term so the trace stays monotone. Clustering
baselines derive labels from it two ways (argmax of the document's topic
proportions, or k-means on the proportion vectors) and k-means can also
run directly on tf-idf vectors.

``kmeans`` takes dense or ``scipy.sparse`` points and works on one CSR
view of them, so its cost scales with the points' nonzeros: on tf-idf
vectors, well under 1% of the cells. The CLI clusters the CSR tf-idf of
``corpus.tfidf_csr``; ``corpus.tfidf_vectors`` is its dense form, for
API users and the benchmark, whose checks index its rows. A dense
array's view is built from one scan for its nonzero cells, which
``theta_kmeans`` and the benchmark still need.

LDA shares the main model's flat layout and machinery: the documents'
distinct terms sit end to end, one row per (document, term) pair, and
``fit_lda`` runs on the EM driver ``fit`` runs on (``inference._run_em``).
Its state is a store like the main model's: the corpus in CSR form
beside ``gamma`` (D, T) and ``phi`` (rows, T), documents and rows first,
which at T = 2 to 60 measured faster than T first. Its E-step is the
same early-exit loop (``inference._coordinate_ascent``) over batches cut
the same way (``inference._batch_slices``, T cells a row), on an LDA
working set (``_LdaBatch``) whose state is views of that store and which
compacts and writes back through ``inference._WorkingSet`` as the main
model's does, so results depend on nothing but the inputs and the seed.

The LDA sweep works in scaled form, as lda-c does and as Hoffman, Blei
& Bach (2010), "Online learning for latent Dirichlet allocation", write
it: phi for a (document, term) row is proportional to
exp(E[log theta]) * beta_w. It takes one exp per document and topic, a
row's normalizer is a dot product with the word's topic row, and the
per-document sums of c * phi are one sparse (documents x rows) product
with the topics, term-major, which ``fit_lda`` refreshes once per
M-step. phi itself is formed only when a document is written back; the
store, the M-step and the bound read it as a plain (rows, T) array. A
row whose normalizer falls below ``_NORM_FLOOR`` (underflow) is
normalized in log space, by a max-shifted softmax of its own scores, so
it never yields inf or NaN.
"""

import logging
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np
from scipy.special import gammaln, xlogy

from . import corpus as corpus_mod
from .corpus import _segsum, flat_docs
from .errors import ConfigError, DegenerateInputError, DimensionError
from .inference import (
    _batch_slices,
    _dir_ep,
    _elog_dir,
    _run_e_step,
    _run_em,
    _safe_log,
    _WorkingSet,
)
from .model import _check_positive, _check_rows_stochastic, perturbed_uniform_rows
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

    def validate(self):
        _check_rows_stochastic(self.topics, "topics")
        if self.doc_theta.shape[1:] != self.topics.shape[:1]:
            raise DimensionError("doc_theta must have one column per topic")
        _check_positive(self.doc_theta, "doc_theta")
        _check_positive(self.alpha, "alpha")


# Below this a row's normalizer may have lost to underflow more than a
# rounding error of phi (an underflowed term is at most the smallest
# normal float), so the row is normalized in log space instead.
_NORM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


class _LdaBatch(_WorkingSet):
    """LDA's E-step working set: documents ``docs`` (a slice) of ``store``.

    ``store`` holds the corpus in CSR form (``doc_ptr``, ``words``,
    ``counts``) beside the corpus-wide state: ``gamma`` (D, T) and
    ``phi`` (rows, T). ``beta`` is the topics, term-major, and
    ``log_beta`` their log.

    A sweep keeps phi in scaled form, the E[log theta] it was drawn from
    and each row's normalizer; ``phi`` forms it from them on first read,
    which for a sweeping document is when it is written back. Before the
    first sweep ``phi`` is a view of the store's. The first sweep gathers
    each row's topic row ``b``, so a set that only takes its bound never
    does.
    """

    DOC_FIELDS = ("gamma", "elog", "_phi_elog")
    ROW_FIELDS = ("words", "b", "counts", "_norm", "_phi")
    STATE = ("gamma", "phi")
    _phi_elog = _norm = b = None  # set by a sweep

    def __init__(self, alpha, beta, log_beta, store, docs):
        super().__init__(store, docs)
        self.alpha = alpha
        self.beta = beta
        self.log_beta = log_beta
        self.words = store.words[self.rows]
        self.elog = _elog_dir(self.gamma)

    def _set_bounds(self, bounds):
        super()._set_bounds(bounds)
        # W of ``sweep``: its structure holds until the documents change
        self._weights = None

    @property
    def phi(self):
        if self._phi is None:
            self._phi = self._form_phi()
        return self._phi

    @phi.setter
    def phi(self, value):
        self._phi = value

    def _softmax_rows(self, rows, elog):
        # (phi, log normalizer) of ``rows`` by a max-shifted softmax of
        # E[log theta][seg] + log beta
        x = elog[self.seg[rows]] + self.log_beta[self.words[rows]]
        return log_normalize_with_norm(x, axis=-1)

    def _form_phi(self):
        # phi = e[seg] * b / normalizer from the last sweep's scaled form;
        # rows whose normalizer underflowed (stored as inf) by a softmax
        elog = self._phi_elog
        e = np.exp(elog - elog.max(axis=-1)[:, None])
        phi = np.take(e, self.seg, axis=0)
        phi *= self.b
        phi /= self._norm[:, None]
        under = np.flatnonzero(np.isinf(self._norm))
        if under.size:
            phi[under] = self._softmax_rows(under, elog)[0]
        return phi

    def _doc_terms(self, gamma, elog):
        # per-document bound terms of the proportions: the expected log
        # prior minus the expected log variational Dirichlet
        alpha, num_topics = self.alpha, gamma.shape[-1]
        return (
            gammaln(num_topics * alpha)
            - num_topics * gammaln(alpha)
            + (alpha - 1.0) * elog.sum(axis=-1)
            - _dir_ep(gamma, elog)
        )

    def bound(self):
        """Each document's bound at the current gamma and phi, term by term."""
        c, phi = self.counts, self.phi
        # the two (rows, T) temporaries: x ends as phi * x, y as phi log phi
        x = np.take(self.elog, self.seg, axis=0)
        y = np.take(self.log_beta, self.words, axis=0)
        x += y
        # phi * x with 0 * (-inf) = 0, as numerics.scale0 forms it, in place
        with np.errstate(invalid="ignore"):
            np.multiply(phi, x, out=x)
        np.multiply(phi, 0.0, out=x, where=~(phi > 0))
        entropy = xlogy(phi, phi, out=y).sum(axis=-1)
        words = c * (x.sum(axis=-1) - entropy)
        return self._doc_terms(self.gamma, self.elog) + _segsum(words, self.bounds)

    def sweep(self, bound=True):
        """phi = softmax(E[log theta][seg] + log beta) row by row, then
        gamma = alpha + per-document sums of c * phi; returns the new
        bounds, or None without ``bound``.

        phi is kept in scaled form: with e = exp(E[log theta] - m) per
        document (m its largest entry) and b the word's topic row, a row's
        phi is e[seg] * b / n, n = e[seg] . b. So gamma = alpha + e * (W @ b),
        W the (documents x rows) sparse matrix of weights c / n, and the
        row's log normalizer is log n + m. A row with n below _NORM_FLOOR
        is normalized by a softmax of its own scores instead.

        The bound comes in collapsed form: log phi is x_old -
        logsumexp(x_old) with x_old = E[log theta]_old[seg] + log beta, so
        the word and phi-entropy terms sum to (E[log theta]_new -
        E[log theta]_old) . (gamma_new - alpha) + sum over rows of c *
        logsumexp(x_old), and no second pass over the rows is needed.
        """
        # imported here: scipy.sparse adds ~18 ms to every process start
        from scipy.sparse import csr_array

        c, seg, bounds, elog = self.counts, self.seg, self.bounds, self.elog
        if self.b is None:
            # np.take: a row gather ~10x faster than fancy indexing at few topics
            self.b = np.take(self.beta, self.words, axis=0)
        shift = elog.max(axis=-1)
        e = np.exp(elog - shift[:, None])
        norm = np.einsum("rt,rt->r", np.take(e, seg, axis=0), self.b)
        ok = norm >= _NORM_FLOOR
        # an underflowed row drops out of the product (c / inf = 0)
        norm = np.where(ok, norm, np.inf)
        if self._weights is None:
            self._weights = csr_array(
                (c, np.arange(c.size), bounds), shape=(self.num_docs, c.size)
            )
        self._weights.data = c / norm
        expected = e * (self._weights @ self.b)
        under = np.flatnonzero(~ok)
        if under.size:
            phi, under_lse = self._softmax_rows(under, elog)
            np.add.at(expected, seg[under], c[under, None] * phi)
        gamma = self.alpha + expected
        new_elog = _elog_dir(gamma)
        self.gamma, self.elog = gamma, new_elog
        self._phi_elog, self._norm, self._phi = elog, norm, None
        if not bound:
            return None
        log_norm = np.log(norm) + shift[seg]
        if under.size:
            log_norm[under] = under_lse
        return (
            self._doc_terms(gamma, new_elog)
            + ((new_elog - elog) * expected).sum(axis=-1)
            + _segsum(c * log_norm, bounds)
        )


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
    slack. elbo_rel_tol = 0 disables early stopping; alpha, eta and
    elbo_rel_tol must be finite, and a negative seed raises ConfigError.

    The E-step works in scaled form (``_LdaBatch.sweep``): one exp per
    document and topic, a dot product per (document, term) row for its
    normalizer, and the per-document sums as one sparse product with the
    topics term-major, which the M-step refreshes once. phi is formed
    only when a document's sweeps end, for the M-step and the bound to
    read; a row whose normalizer underflows takes the softmax of its own
    scores instead.

    Returns (LdaModel, FitReport).
    """
    # imported here: scipy.sparse adds ~18 ms to every process start
    from scipy.sparse import csr_array

    if num_topics < 1:
        raise ConfigError("num_topics must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if corpus.num_docs < 1:
        raise DegenerateInputError("cannot fit an empty corpus")
    if not (0 < alpha < np.inf and 0 < eta < np.inf):
        raise ConfigError("alpha and eta must be finite and > 0")
    if min(max_em_iters, e_step_iters, elbo_rel_tol) < 0:
        raise ConfigError("iteration counts and elbo_rel_tol must be >= 0")
    if not np.isfinite(elbo_rel_tol):
        raise ConfigError("elbo_rel_tol must be finite")

    num_docs, v_dim = corpus.num_docs, corpus.vocab_size
    rng = np.random.default_rng(seed)
    topics = perturbed_uniform_rows((num_topics, v_dim), rng)
    doc_ptr, words, counts = flat_docs(corpus.docs)
    gammas = np.full((num_docs, num_topics), alpha)
    gammas += _segsum(counts, doc_ptr)[:, None] / num_topics
    phi = np.full((words.size, num_topics), 1.0 / num_topics)
    store = SimpleNamespace(
        doc_ptr=doc_ptr, words=words, counts=counts, gamma=gammas, phi=phi
    )
    # (rows x V) counts, one per row at its word: the M-step's word sums
    term_counts = csr_array(
        (counts, words, np.arange(words.size + 1)), shape=(words.size, v_dim)
    )
    # topics and log topics term-major, so that a row gather by word id is
    # contiguous; the M-step rewrites topics, beta and log_beta in place
    beta = topics.T.copy()
    log_beta = _safe_log(beta)
    batch = partial(_LdaBatch, alpha, beta, log_beta, store)
    slices = _batch_slices(doc_ptr, num_topics)

    def bound():
        doc_bounds = np.concatenate([batch(docs).bound() for docs in slices])
        terms = {"topic_prior": eta * log_beta.sum(), "documents": doc_bounds.sum()}
        return terms, doc_bounds

    def m_step():
        np.add((term_counts.T @ phi).T, eta, out=topics)
        np.divide(topics, topics.sum(axis=-1, keepdims=True), out=topics)
        beta[...] = topics.T
        log_beta[...] = _safe_log(beta)

    e_step = partial(_run_e_step, batch, slices, sweeps=e_step_iters)
    report = _run_em(bound, e_step, m_step, max_em_iters, elbo_rel_tol)
    return LdaModel(topics=topics, doc_theta=gammas, alpha=alpha), report


def lda_naive_cluster(model):
    """Cluster by each document's highest-proportion topic (ties: lowest id)."""
    return np.argmax(model.doc_theta, axis=1).astype(np.int64)


def _kmeans_pp_seed(points, sq_dist, k, rng):
    n = points.shape[0]
    centers = np.zeros((k, points.shape[1]))
    d2 = np.inf
    for j in range(k):
        total = d2.sum() if j else 0.0  # so the first draw is uniform
        idx = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
        row = slice(points.indptr[idx], points.indptr[idx + 1])
        centers[j, points.indices[row]] = points.data[row]
        d2 = np.minimum(d2, sq_dist(centers[j : j + 1])[:, 0])
    return centers


def _lloyd(points, rows, norms, k, rng, max_iters, cost_trace=None):
    # points: canonical CSR; rows: each stored value's row; norms: row norms squared
    n, v = points.shape

    def sq_dist(centers):
        d2 = norms[:, None] + (centers * centers).sum(axis=1) - 2.0 * (points @ centers.T)
        return np.maximum(d2, 0.0)

    centers = _kmeans_pp_seed(points, sq_dist, k, rng)
    labels = None
    for _ in range(max_iters):
        d2 = sq_dist(centers)
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
        # each cluster's column sums in one pass over the stored values
        key = labels[rows] * v + points.indices
        sums = np.bincount(key, weights=points.data, minlength=k * v).reshape(k, v)
        centers = sums / np.bincount(labels, minlength=k)[:, None]
        if cost_trace is not None:
            cost_trace.append(float(sq_dist(centers)[np.arange(n), labels].sum()))
    wcss = float(sq_dist(centers)[np.arange(n), labels].sum())
    return labels.astype(np.int64), centers, wcss


def _dense_csr(points):
    """``csr_array(points)`` of a dense 2-d array: the same data bits,
    indices and indptr (as int64).

    Both keep the cells that compare unequal to 0 (so -0.0 is dropped and
    NaN kept) in row-major order; a scan of ``points != 0`` finds them,
    where ``ndarray.nonzero`` on a float array is several times slower.
    """
    from scipy.sparse import csr_array

    n, v = points.shape
    # by blocks of rows, so that the bool temporary stays small: freeing a
    # large one raises malloc's mmap threshold for the rest of the process
    # (one 6 MB scan of heavy-tail's tf-idf cost later held-out inference
    # calls ~1,000 more page faults each)
    step = max(1, corpus_mod.CHUNK_CELLS // max(v, 1))
    flat = np.concatenate(
        [np.flatnonzero(points[i : i + step] != 0) + i * v for i in range(0, n, step)]
    )
    rows, cols = np.divmod(flat, v)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return csr_array((np.ravel(points)[flat], cols, indptr), shape=(n, v))


def kmeans(points, num_clusters, seed=0, restarts=10, max_iters=100):
    """Plain k-means with greedy seeding and restarts.

    Centers are seeded by sampling points proportionally to squared
    distance from those already chosen; the best of ``restarts``
    independent runs by within-cluster sum of squares wins. Each restart
    seeds its own generator from (seed, restart index), so results are
    reproducible and restarts are independent.

    ``points`` may be dense or ``scipy.sparse``: one CSR view is built per
    call, so a Lloyd step costs O(nnz * num_clusters) in the points'
    nonzeros. Non-finite points raise ``DegenerateInputError``, a
    negative seed ``ConfigError``.

    Returns (labels, centers, wcss); centers is a dense array.
    """
    # imported here: scipy.sparse adds ~18 ms to every process start
    from scipy.sparse import csr_array, issparse

    if np.ndim(points) != 2:
        raise ConfigError("points must be a 2-d array")
    if num_clusters < 1:
        raise ConfigError("num_clusters must be >= 1")
    if np.shape(points)[0] < num_clusters:
        raise DegenerateInputError("fewer points than clusters")
    if restarts < 1 or max_iters < 1:
        raise ConfigError("restarts and max_iters must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if issparse(points):
        # a copy, so that summing duplicates never touches the caller's arrays
        points = csr_array(points, dtype=float, copy=True)
        points.sum_duplicates()
    else:
        points = _dense_csr(np.asarray(points, dtype=float))
    if not np.isfinite(points.data).all():
        raise DegenerateInputError("points must be finite")

    # The runs see only the columns the points use, numbered in order, so
    # their dense k-wide passes scale with those, not with V; every other
    # column of a center is 0.
    n, v = points.shape
    used = np.zeros(v, dtype=bool)
    used[points.indices] = True
    narrow = csr_array(
        (points.data, (np.cumsum(used) - 1)[points.indices], points.indptr),
        shape=(n, np.count_nonzero(used)),
    )
    rows = np.repeat(np.arange(n), np.diff(points.indptr))
    norms = np.bincount(rows, weights=points.data * points.data, minlength=n)
    runs = (
        _lloyd(narrow, rows, norms, num_clusters, np.random.default_rng([seed, r]), max_iters)
        for r in range(restarts)
    )
    labels, centers, wcss = min(runs, key=lambda run: run[2])  # the first run of least wcss
    wide = np.zeros((num_clusters, v))
    wide[:, used] = centers
    return labels, wide, wcss


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
