"""Model containers, configuration, and the generative sampler.

The model clusters documents while extracting two grains of topics:
each cluster owns a set of local topics describing its specific
semantics, and a single set of global topics captures corpus-wide
background content. A document picks a cluster, draws mixing
proportions over that cluster's local topics and over the global
topics, and each word flips a Bernoulli coin to decide which of the
two pathways emits it.
"""

import bisect
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Document, flat_docs
from .errors import ConfigError, DegenerateInputError, DimensionError

logger = logging.getLogger(__name__)

SIMPLEX_ATOL = 1e-9
TOPIC_SMOOTHING = 1e-8
# Tolerance of ``rng.choice`` on the sum of ``p``.
CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)
# Tokens ``sample_corpus`` gathers before its bulk lookups: enough that
# the per-block NumPy calls cost little per token, few enough that the
# block's temporaries stay small beside the sampled corpus.
SAMPLE_BLOCK_TOKENS = 1 << 16


@dataclass
class HyperConfig:
    """Shape and schedule knobs for fitting.

    num_clusters, local_topics_per_cluster and num_global_topics fix the
    model shape. prior_update is "every_iter" or "fixed". elbo_rel_tol is
    finite; 0 disables early stopping so exactly max_em_iters iterations
    run. The starting point is not set here: ``init_model`` and ``fit``
    start from cluster labels whenever they are given, and at random
    otherwise.
    """

    num_clusters: int
    local_topics_per_cluster: int
    num_global_topics: int
    max_em_iters: int = 100
    e_step_iters: int = 20
    elbo_rel_tol: float = 1e-5
    seed: int = 0
    prior_update: str = "every_iter"

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ConfigError("num_clusters must be >= 1")
        if self.local_topics_per_cluster < 1:
            raise ConfigError("local_topics_per_cluster must be >= 1")
        if self.num_global_topics < 1:
            # The word-level Bernoulli can always route words to the
            # global pathway, so there must be at least one global topic.
            raise ConfigError("num_global_topics must be >= 1")
        if self.max_em_iters < 0 or self.e_step_iters < 1:
            raise ConfigError("iteration counts out of range")
        if not 0 <= self.elbo_rel_tol < np.inf:  # NaN fails too
            raise ConfigError("elbo_rel_tol must be finite and >= 0")
        if self.prior_update not in ("every_iter", "fixed"):
            raise ConfigError(f"unknown prior_update {self.prior_update!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _check_rows_stochastic(mat, name):
    arr = np.asarray(mat)
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0, atol=SIMPLEX_ATOL):
        raise ValueError(f"{name} rows must sum to 1 (max err {np.abs(sums - 1).max():.2e})")


def _check_positive(arr, name):
    # NaN fails both comparisons, +inf the second
    arr = np.asarray(arr)
    if not np.all((arr > 0) & (arr < np.inf)):
        raise ValueError(f"{name} must be finite and > 0")


@dataclass
class ModelParams:
    """Global parameters of the fitted model.

    pi: (J,) cluster mixture weights.
    gamma: (2,) Beta prior on the per-document local/global coin.
    local_priors: (J, K) Dirichlet prior over each cluster's local topics.
    global_prior: (R,) Dirichlet prior over global topic proportions.
    local_topics: (J, K, V) word distributions, one row per local topic.
    global_topics: (R, V) word distributions shared across clusters.
    """

    pi: np.ndarray
    gamma: np.ndarray
    local_priors: np.ndarray
    global_prior: np.ndarray
    local_topics: np.ndarray
    global_topics: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.local_priors = np.asarray(self.local_priors, dtype=float)
        self.global_prior = np.asarray(self.global_prior, dtype=float)
        self.local_topics = np.asarray(self.local_topics, dtype=float)
        self.global_topics = np.asarray(self.global_topics, dtype=float)

    @property
    def num_clusters(self):
        return self.pi.shape[0]

    @property
    def local_topics_per_cluster(self):
        return self.local_priors.shape[1]

    @property
    def num_global_topics(self):
        return self.global_prior.shape[0]

    @property
    def vocab_size(self):
        return self.local_topics.shape[2]

    def validate(self):
        j, k, r, v = (
            self.num_clusters,
            self.local_topics_per_cluster,
            self.num_global_topics,
            self.vocab_size,
        )
        if self.local_priors.shape != (j, k):
            raise DimensionError("local_priors shape mismatch")
        if self.local_topics.shape != (j, k, v):
            raise DimensionError("local_topics shape mismatch")
        if self.global_topics.shape != (r, v):
            raise DimensionError("global_topics shape mismatch")
        if self.gamma.shape != (2,):
            raise DimensionError("gamma must have two components")
        if not np.isclose(self.pi.sum(), 1.0, rtol=0, atol=SIMPLEX_ATOL) or np.any(
            self.pi < 0
        ):
            raise ValueError("pi must be a probability vector")
        for name in ("gamma", "local_priors", "global_prior"):
            _check_positive(getattr(self, name), name)
        _check_rows_stochastic(self.local_topics, "local_topics")
        _check_rows_stochastic(self.global_topics, "global_topics")

    def permute_clusters(self, perm):
        """Return a copy with cluster indices rearranged by ``perm``."""
        perm = np.asarray(perm)
        return ModelParams(
            pi=self.pi[perm],
            gamma=self.gamma.copy(),
            local_priors=self.local_priors[perm],
            global_prior=self.global_prior.copy(),
            local_topics=self.local_topics[perm],
            global_topics=self.global_topics.copy(),
        )


@dataclass
class DocVariational:
    """Per-document variational state.

    Documents are stored sparsely, so the per-word factors are kept per
    distinct term: every occurrence of the same term receives the same
    update, which is exact because the updates depend on a word position
    only through its vocabulary id.

    zeta: (J,) cluster responsibilities.
    lam: (2,) Beta parameters of the pathway-coin posterior.
    mu_local: (J, K) Dirichlet parameters, one candidate row per cluster.
    mu_global: (R,) Dirichlet parameters over global topics.
    tau: (M,) per-term probability that the word came from the local pathway.
    phi_local: (M, J, K) per-term local topic responsibilities per cluster.
    phi_global: (M, R) per-term global topic responsibilities.
    """

    zeta: np.ndarray
    lam: np.ndarray
    mu_local: np.ndarray
    mu_global: np.ndarray
    tau: np.ndarray
    phi_local: np.ndarray
    phi_global: np.ndarray

    def validate(self):
        if not np.isclose(self.zeta.sum(), 1.0, rtol=0, atol=SIMPLEX_ATOL) or np.any(
            self.zeta < 0
        ):
            raise ValueError("zeta must be a probability vector")
        if np.any(self.lam <= 0) or np.any(self.mu_local <= 0) or np.any(
            self.mu_global <= 0
        ):
            raise ValueError("lam and mu entries must be > 0")
        if np.any(self.tau < 0) or np.any(self.tau > 1):
            raise ValueError("tau entries must lie in [0, 1]")
        if self.phi_local.size:
            _check_rows_stochastic(self.phi_local, "phi_local")
        if self.phi_global.size:
            _check_rows_stochastic(self.phi_global, "phi_global")

    def copy(self):
        return DocVariational(
            zeta=self.zeta.copy(),
            lam=self.lam.copy(),
            mu_local=self.mu_local.copy(),
            mu_global=self.mu_global.copy(),
            tau=self.tau.copy(),
            phi_local=self.phi_local.copy(),
            phi_global=self.phi_global.copy(),
        )

    def permute_clusters(self, perm):
        perm = np.asarray(perm)
        out = self.copy()
        out.zeta = self.zeta[perm]
        out.mu_local = self.mu_local[perm]
        out.phi_local = self.phi_local[:, perm, :]
        return out


def validate_flat(flat):
    """DocVariational.validate on every document of flat states, vectorized.

    ``flat`` has a VariationalStore's seven state arrays (``zeta``,
    ``lam``, ``mu_l``, ``mu_g``, ``tau``, ``phi_l``, ``phi_g``), in its
    layout, and ``seg`` (the document of each row): a VariationalStore or
    an E-step working set. The conditions are validate's; ``|s - 1| <=
    SIMPLEX_ATOL`` is ``np.isclose(s, 1, rtol=0, atol=SIMPLEX_ATOL)``,
    NaN and infinities included. The sums run over a leading axis, which
    NumPy adds in index order: validate's bits below 8 entries, and from
    8 on a sum that may differ from validate's in the last bits, so that
    only a sum within a few ulps of the tolerance could be judged
    otherwise. Each condition is checked on its whole array first and
    traced to its documents only when it fails somewhere. Should any
    document fail, validate itself runs on the first one, so the error
    raised, text included, is validate's.
    """
    doc_checks = (
        ~(np.abs(flat.zeta.sum(axis=0) - 1.0) <= SIMPLEX_ATOL),
        flat.zeta < 0,
        flat.lam <= 0,
        flat.mu_l <= 0,
        flat.mu_g <= 0,
    )
    row_checks = (
        (flat.tau < 0) | (flat.tau > 1),
        flat.phi_l < 0,
        ~(np.abs(flat.phi_l.sum(axis=1) - 1.0) <= SIMPLEX_ATOL),
        flat.phi_g < 0,
        ~(np.abs(flat.phi_g.sum(axis=0) - 1.0) <= SIMPLEX_ATOL),
    )
    bad = np.zeros(flat.zeta.shape[-1], dtype=bool)
    for checks, rows in ((doc_checks, False), (row_checks, True)):
        for failed in checks:
            if failed.any():
                hit = failed.reshape(-1, failed.shape[-1]).any(axis=0)
                bad[flat.seg[hit] if rows else hit] = True
    for i in np.flatnonzero(bad):
        _doc_state(flat, i, flat.seg == i).validate()


def _doc_state(flat, i, rows):
    # document i of flat states, its rows picked by ``rows``, in DocVariational's layout
    return DocVariational(
        flat.zeta[:, i], flat.lam[:, i], flat.mu_l[..., i], flat.mu_g[:, i],
        flat.tau[rows], np.moveaxis(flat.phi_l[..., rows], -1, 0), flat.phi_g[:, rows].T,
    )


@dataclass
class VariationalStore:
    """The variational states of a whole corpus, in flat arrays.

    Documents sit in CSR form: document i's distinct terms are rows
    doc_ptr[i]:doc_ptr[i + 1] of ``words`` and ``counts`` (floats). The
    state arrays keep topic axes first and rows or documents last, as an
    E-step working set does, so a set is views of them: ``tau`` (N,),
    ``phi_l`` (J, K, N) and ``phi_g`` (R, N); ``zeta`` (J, D), ``lam``
    (2, D), ``mu_l`` (J, K, D) and ``mu_g`` (R, D). ``state(i)`` is
    document i's DocVariational as views of these arrays, axes moved.
    """

    doc_ptr: np.ndarray
    words: np.ndarray
    counts: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    mu_l: np.ndarray
    mu_g: np.ndarray
    tau: np.ndarray
    phi_l: np.ndarray
    phi_g: np.ndarray

    @classmethod
    def symmetric(cls, docs, zeta, num_local, num_global):
        """Store with the given (J, D) responsibilities, other fields flat."""
        doc_ptr, words, counts = flat_docs(docs)
        (num_clusters, num_docs), rows = zeta.shape, words.size
        return cls(
            doc_ptr,
            words,
            counts,
            zeta=zeta,
            lam=np.ones((2, num_docs)),
            mu_l=np.ones((num_clusters, num_local, num_docs)),
            mu_g=np.ones((num_global, num_docs)),
            tau=np.full(rows, 0.5),
            phi_l=np.full((num_clusters, num_local, rows), 1.0 / num_local),
            phi_g=np.full((num_global, rows), 1.0 / num_global),
        )

    @classmethod
    def gather(cls, docs, states, num_clusters, num_local, num_global):
        """Store holding copies of ``states``, one DocVariational per doc.

        Raises DegenerateInputError unless there is one state per document
        and each state's arrays have the shapes of its document and of
        (J, K, R) = (num_clusters, num_local, num_global).
        """
        if len(states) != len(docs):
            raise DegenerateInputError("need one variational state per document")
        doc_ptr, words, counts = flat_docs(docs)
        j, k, r = num_clusters, num_local, num_global
        # the state fields in the store's order, each with its shape per
        # document; the row fields have one such row per term
        shapes = {
            "zeta": (j,), "lam": (2,), "mu_local": (j, k), "mu_global": (r,),
            "tau": (), "phi_local": (j, k), "phi_global": (r,),
        }
        row_fields = ("tau", "phi_local", "phi_global")
        for i, (rows, state) in enumerate(zip(np.diff(doc_ptr).tolist(), states)):
            for name, shape in shapes.items():
                want = (rows,) * (name in row_fields) + shape
                got = np.shape(getattr(state, name))
                if got != want:
                    raise DegenerateInputError(
                        f"variational state {i} does not match document {i} "
                        f"and the model shape: {name} has shape {got}, expected {want}"
                    )

        def join(name):
            parts = [getattr(state, name) for state in states]
            if not parts:
                joined = np.empty((0,) + shapes[name])
            else:
                joined = (np.concatenate if name in row_fields else np.stack)(parts)
            # documents or rows last, in C order as the rest of the store
            return np.moveaxis(joined, 0, -1).copy()

        return cls(doc_ptr, words, counts, *map(join, shapes))

    @property
    def num_docs(self):
        return self.doc_ptr.size - 1

    @property
    def seg(self):
        """The document of each row."""
        return np.repeat(np.arange(self.num_docs), np.diff(self.doc_ptr))

    def state(self, i):
        return _doc_state(self, i, slice(self.doc_ptr[i], self.doc_ptr[i + 1]))

    def validate(self):
        validate_flat(self)


class DocStates(list):
    """One DocVariational per document, as views into one VariationalStore.

    A plain list otherwise; ``store`` is the store. Writing into a
    state's arrays writes into the store, and ``copy()`` detaches a state.
    """

    def __init__(self, store):
        ptr = store.doc_ptr.tolist()
        # each state array as views with its document or row axis first
        zeta, lam, mu_l, mu_g, tau, phi_l, phi_g = (
            np.moveaxis(getattr(store, name), -1, 0)
            for name in ("zeta", "lam", "mu_l", "mu_g", "tau", "phi_l", "phi_g")
        )
        super().__init__(
            DocVariational(*doc, tau[lo:hi], phi_l[lo:hi], phi_g[lo:hi])
            for *doc, lo, hi in zip(zeta, lam, mu_l, mu_g, ptr[:-1], ptr[1:])
        )
        self.store = store


@dataclass
class FitReport:
    """Objective trace and convergence summary of one fit."""

    elbo_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    wall_time: float = 0.0


@dataclass
class HiddenAssignments:
    """Ground-truth latent draws recorded by the sampler.

    Per document: cluster id and pathway-coin bias omega. Per token:
    indicator (1 local, 0 global) plus the topic id actually used;
    the unused pathway's topic id is -1.
    """

    cluster: np.ndarray
    omega: np.ndarray
    indicator: list[np.ndarray]
    local_z: list[np.ndarray]
    global_z: list[np.ndarray]


def _choice_cdf(p):
    """Cumulative sums of probability rows, normalized as ``rng.choice`` does.

    ``rng.choice(n, p=row)`` checks ``row``, takes ``c = row.cumsum();
    c /= c[-1]`` and returns ``c.searchsorted(rng.random(), side="right")``;
    cumulative sums along the last axis give the same bits row by row.
    The same checks run here, once per row.
    """
    p = np.asarray(p, dtype=float)
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(p.sum(axis=-1) - 1.0) > CHOICE_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _count_at_most(cdf, rows, u):
    """``cdf[rows[i]].searchsorted(u[i], side="right")`` for every i.

    On a non-decreasing row the insertion point is the number of entries
    <= u. Every row ends at 1.0 > u, so the last column adds nothing.
    """
    z = np.zeros(u.size, dtype=np.int64)
    for col in cdf.T[:-1]:
        z += col[rows] <= u
    return z


def _split_at(values, bounds):
    """Views ``values[bounds[i]:bounds[i + 1]]``, one per consecutive pair."""
    return [values[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def _lookup_block(params, word_cdf, block):
    """Topics, words and distinct terms of a block of drawn documents.

    ``block`` holds per document (cluster, local proportions, global
    proportions, omega, uniforms); the uniforms are n_d coin values
    followed by n_d interleaved (topic, word) pairs. Returns six
    sequences with one entry per document: documents, clusters, omegas,
    indicators, local topics and global topics; the arrays are views
    into the block's arrays.
    """
    etas, thetas_l, thetas_g, omegas, uniforms = zip(*block)
    lengths = [u.size // 3 for u in uniforms]
    doc = np.repeat(np.arange(len(block)), lengths)
    coins = np.concatenate([u[:n] for u, n in zip(uniforms, lengths)])
    delta = coins < np.repeat(omegas, lengths)
    pairs = np.concatenate([u[n:] for u, n in zip(uniforms, lengths)])
    u_topic, u_word = pairs.reshape(-1, 2).T

    local, shared = np.flatnonzero(delta), np.flatnonzero(~delta)
    z_l = np.full(doc.size, -1, dtype=np.int64)
    z_g = np.full(doc.size, -1, dtype=np.int64)
    z_l[local] = _count_at_most(_choice_cdf(thetas_l), doc[local], u_topic[local])
    z_g[shared] = _count_at_most(_choice_cdf(thetas_g), doc[shared], u_topic[shared])
    k_dim = params.local_topics_per_cluster
    rows = np.where(
        delta, np.repeat(etas, lengths) * k_dim + z_l, params.num_clusters * k_dim + z_g
    )
    # one searchsorted per topic row present, over that row's tokens
    order = np.argsort(rows, kind="stable")
    words = np.empty(doc.size, dtype=np.int64)
    for at in np.split(order, np.flatnonzero(np.diff(rows[order])) + 1):
        words[at] = word_cdf[rows[at[0]]].searchsorted(u_word[at], side="right")

    terms, counts = np.unique(doc * params.vocab_size + words, return_counts=True)
    term_doc, ids = np.divmod(terms, params.vocab_size)
    # every document has a token, so each owns one run of term_doc
    term_bounds = [0, *(np.flatnonzero(np.diff(term_doc)) + 1).tolist(), terms.size]
    docs = [
        Document(w, c, label=eta)
        for w, c, eta in zip(
            _split_at(ids, term_bounds), _split_at(counts, term_bounds), etas
        )
    ]
    token_bounds = [0, *itertools.accumulate(lengths)]
    hidden = [_split_at(a, token_bounds) for a in (delta.astype(np.int64), z_l, z_g)]
    return (docs, etas, omegas, *hidden)


def sample_corpus(params, num_docs, doc_length, seed=0):
    """Draw a corpus from the generative process.

    Per document: cluster ~ Multi(pi); local proportions ~ Dir of the
    chosen cluster's prior; global proportions ~ Dir(global_prior);
    coin bias omega ~ Beta(gamma). Per word: indicator ~ Bern(omega);
    the indicated pathway picks a topic and the topic emits the word.

    The output equals, bit for bit and for every seed, that of drawing
    each categorical variable with ``rng.choice(n, p=row)`` in the
    order: length, cluster, both proportions, omega, the n_d
    indicators, then per token its topic and its word. Each such draw
    consumes one ``rng.random()``. So the Python loop runs once per
    document and only draws: its length, the cluster uniform, both
    Dirichlets, the Beta, then one ``rng.random(3 * n_d)``, which holds
    the same doubles in the same order as ``rng.random(n_d)`` (the
    coins) followed by ``rng.random((n_d, 2))`` (the topic and word
    uniforms). Once the pending documents reach SAMPLE_BLOCK_TOKENS
    tokens, their lookups run in bulk: the cumulative tables of their
    proportions (checked as ``rng.choice`` checks ``p``), the topics,
    one ``searchsorted`` per topic row present for the words, and one
    ``np.unique`` for every document's distinct terms.

    Args:
        params: generating ModelParams (validated here).
        num_docs: number of documents to draw (>= 1).
        doc_length: fixed token count per document, or a callable
            rng -> int drawn per document.
        seed: integer seed >= 0; output is deterministic given it.

    Returns:
        (Corpus, HiddenAssignments); Corpus documents carry the sampled
        cluster as their ground-truth label.
    """
    params.validate()
    if params.num_global_topics < 1:
        raise ConfigError("sampler needs at least one global topic")
    if num_docs < 1:
        raise ConfigError("num_docs must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    # bisect_right on the sorted list is searchsorted(side="right")
    pi_cdf = _choice_cdf(params.pi).tolist()
    # Rows of both tables, indexed by local topic (j, z) at j * K + z
    # and global topic z at J * K + z.
    word_cdf = list(_choice_cdf(params.local_topics).reshape(-1, params.vocab_size))
    word_cdf += list(_choice_cdf(params.global_topics))

    drawn = ([], [], [], [], [], [])
    block, block_tokens = [], 0
    for d in range(num_docs):
        n_d = doc_length(rng) if callable(doc_length) else int(doc_length)
        if n_d < 1:
            raise ConfigError("document length must be >= 1")
        eta = bisect.bisect_right(pi_cdf, rng.random())
        theta_l = rng.dirichlet(params.local_priors[eta])
        theta_g = rng.dirichlet(params.global_prior)
        omega = rng.beta(params.gamma[0], params.gamma[1])
        block.append((eta, theta_l, theta_g, omega, rng.random(3 * n_d)))
        block_tokens += n_d
        if block_tokens >= SAMPLE_BLOCK_TOKENS or d == num_docs - 1:
            for out, part in zip(drawn, _lookup_block(params, word_cdf, block)):
                out.extend(part)
            block, block_tokens = [], 0

    docs, clusters, omegas, indicators, local_zs, global_zs = drawn
    corpus = Corpus(docs=docs, vocab_size=params.vocab_size)
    hidden = HiddenAssignments(
        np.array(clusters, dtype=np.int64),
        np.array(omegas, dtype=float),
        indicators,
        local_zs,
        global_zs,
    )
    return corpus, hidden


def perturbed_uniform_rows(shape, rng):
    """Rows near uniform: 95% uniform plus 5% flat Dirichlet noise to break ties."""
    v = shape[-1]
    flat = rng.dirichlet(np.ones(v), size=int(np.prod(shape[:-1])))
    return (0.95 / v + 0.05 * flat).reshape(shape)


def init_model(config, corpus, init_labels=None):
    """Seeded initialization of model parameters and variational states.

    Topics start as perturbed-uniform rows; pi is uniform; both Dirichlet
    priors are symmetric 1.0 and gamma is (1, 1). Whenever ``init_labels``
    (array or ClusterLabels, one label in [0, J) per document) is given,
    the cluster responsibilities put 0.9 on each document's label and
    spread the rest evenly; otherwise they are drawn from a flat
    Dirichlet. All other variational fields start at their symmetric values.

    The states come as a DocStates list: views into one VariationalStore,
    so writing into one writes into the store; ``.copy()`` detaches one.
    """
    j, k, r = (
        config.num_clusters,
        config.local_topics_per_cluster,
        config.num_global_topics,
    )
    v = corpus.vocab_size
    rng = np.random.default_rng(config.seed)

    params = ModelParams(
        pi=np.full(j, 1.0 / j),
        gamma=np.ones(2),
        local_priors=np.ones((j, k)),
        global_prior=np.ones(r),
        local_topics=perturbed_uniform_rows((j, k, v), rng),
        global_topics=perturbed_uniform_rows((r, v), rng),
    )

    labels = None
    if init_labels is not None:
        labels = np.asarray(
            init_labels.labels if hasattr(init_labels, "labels") else init_labels,
            dtype=np.int64,
        )
        if labels.shape != (corpus.num_docs,):
            raise ConfigError("init_labels must cover every document")
        if labels.size and (labels.min() < 0 or labels.max() >= j):
            raise ConfigError("init_labels outside [0, num_clusters)")

    num_docs = corpus.num_docs
    if j == 1:
        zeta = np.ones((1, num_docs))
    elif labels is not None:
        zeta = np.full((j, num_docs), 0.1 / (j - 1))
        zeta[labels, np.arange(num_docs)] = 0.9
    else:
        # the same draws as one rng.dirichlet call per document
        zeta = rng.dirichlet(np.ones(j), size=num_docs).T.copy()
    return params, DocStates(VariationalStore.symmetric(corpus.docs, zeta, k, r))


def random_model_params(
    num_clusters,
    local_topics_per_cluster,
    num_global_topics,
    vocab_size,
    seed=0,
    topic_concentration=0.08,
    prior_strength=0.5,
    local_fraction=0.75,
):
    """Random but well-separated generating parameters for synthetic data.

    Topic rows are drawn from a sparse Dirichlet so each topic puts most
    of its mass on a few words; gamma is set so that on average
    ``local_fraction`` of the words take the local pathway. A shape below
    1 or a negative seed raises ConfigError.
    """
    j, k, r, v = num_clusters, local_topics_per_cluster, num_global_topics, vocab_size
    if min(j, k, r, v) < 1:
        raise ConfigError("clusters, local topics, global topics and vocab size must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    strength = 8.0
    return ModelParams(
        pi=np.full(j, 1.0 / j),
        gamma=np.array([strength * local_fraction, strength * (1 - local_fraction)]),
        local_priors=np.full((j, k), prior_strength),
        global_prior=np.full(r, prior_strength),
        local_topics=rng.dirichlet(np.full(v, topic_concentration), size=(j, k)),
        global_topics=rng.dirichlet(np.full(v, topic_concentration), size=r),
    )


def predict_cluster(state):
    """Hard cluster assignment: argmax responsibility, lowest index on ties."""
    return int(np.argmax(state.zeta))


def top_words(params, scope, topic, cluster=None, n=10):
    """Word ids of a topic ranked by probability (ties by ascending id).

    Args:
        params: fitted ModelParams.
        scope: "local" (requires ``cluster``) or "global".
        topic: topic index within the scope.
        cluster: cluster index for local topics.
        n: number of words to return; capped at the vocabulary size. A
            negative n raises ConfigError.
    """
    if n < 0:
        raise ConfigError("top_words needs n >= 0")
    if scope == "local":
        if cluster is None:
            raise IndexError("local topics need a cluster index")
        if not 0 <= cluster < params.num_clusters:
            raise IndexError(f"cluster {cluster} out of range")
        if not 0 <= topic < params.local_topics_per_cluster:
            raise IndexError(f"local topic {topic} out of range")
        row = params.local_topics[cluster, topic]
    elif scope == "global":
        if not 0 <= topic < params.num_global_topics:
            raise IndexError(f"global topic {topic} out of range")
        row = params.global_topics[topic]
    else:
        raise IndexError(f"unknown scope {scope!r}")
    n = min(n, row.shape[0])
    # Stable sort on negated probabilities keeps ascending ids among ties.
    order = np.argsort(-row, kind="stable")
    return order[:n].tolist()
