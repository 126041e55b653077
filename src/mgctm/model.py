"""Model containers, configuration, and the generative sampler.

The model clusters documents while extracting two grains of topics:
each cluster owns a set of local topics describing its specific
semantics, and a single set of global topics captures corpus-wide
background content. A document picks a cluster, draws mixing
proportions over that cluster's local topics and over the global
topics, and each word flips a Bernoulli coin to decide which of the
two pathways emits it.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Document, flat_docs
from .errors import ConfigError, DimensionError

logger = logging.getLogger(__name__)

SIMPLEX_ATOL = 1e-9
TOPIC_SMOOTHING = 1e-8
# Tolerance of ``rng.choice`` on the sum of ``p``.
CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)


@dataclass
class HyperConfig:
    """Shape and schedule knobs for fitting.

    num_clusters, local_topics_per_cluster and num_global_topics fix the
    model shape. init_scheme is "random" or "from_labels"; prior_update
    is "every_iter" or "fixed". elbo_rel_tol = 0 disables early stopping
    so exactly max_em_iters iterations run.
    """

    num_clusters: int
    local_topics_per_cluster: int
    num_global_topics: int
    max_em_iters: int = 100
    e_step_iters: int = 20
    elbo_rel_tol: float = 1e-5
    seed: int = 0
    init_scheme: str = "random"
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
        if self.elbo_rel_tol < 0:
            raise ConfigError("elbo_rel_tol must be >= 0")
        if self.init_scheme not in ("random", "from_labels"):
            raise ConfigError(f"unknown init_scheme {self.init_scheme!r}")
        if self.prior_update not in ("every_iter", "fixed"):
            raise ConfigError(f"unknown prior_update {self.prior_update!r}")


def _check_rows_stochastic(mat, name):
    arr = np.asarray(mat)
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0, atol=SIMPLEX_ATOL):
        raise ValueError(f"{name} rows must sum to 1 (max err {np.abs(sums - 1).max():.2e})")


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
        for name, arr in (
            ("gamma", self.gamma),
            ("local_priors", self.local_priors),
            ("global_prior", self.global_prior),
        ):
            if np.any(np.asarray(arr) <= 0):
                raise ValueError(f"{name} entries must be > 0")
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
    ``lam``, ``mu_l``, ``mu_g``, ``tau``, ``phi_l``, ``phi_g``), ``seg``
    (the document of each row) and ``state(i)`` (document i's state as a
    DocVariational): a VariationalStore or an E-step working set. The
    conditions are validate's, with the same reductions. Should any
    document fail, validate itself runs on the first one, so the error
    raised, text included, is validate's.
    """
    ok = dict(rtol=0, atol=SIMPLEX_ATOL)
    bad = (
        ~np.isclose(flat.zeta.sum(axis=-1), 1.0, **ok)
        | (flat.zeta < 0).any(axis=-1)
        | (flat.lam <= 0).any(axis=-1)
        | (flat.mu_l <= 0).any(axis=(1, 2))
        | (flat.mu_g <= 0).any(axis=-1)
    )
    bad_rows = (
        (flat.tau < 0)
        | (flat.tau > 1)
        | (flat.phi_l < 0).any(axis=(1, 2))
        | ~np.isclose(flat.phi_l.sum(axis=-1), 1.0, **ok).all(axis=-1)
        | (flat.phi_g < 0).any(axis=-1)
        | ~np.isclose(flat.phi_g.sum(axis=-1), 1.0, **ok)
    )
    bad[flat.seg[bad_rows]] = True
    for i in np.flatnonzero(bad):
        flat.state(i).validate()


@dataclass
class VariationalStore:
    """The variational states of a whole corpus, in flat arrays.

    Documents sit in CSR form: document i's distinct terms are rows
    doc_ptr[i]:doc_ptr[i + 1] of ``words`` and ``counts`` (floats). The
    row arrays ``tau`` (N,), ``phi_l`` (N, J, K) and ``phi_g`` (N, R)
    follow the same rows; the document arrays ``zeta`` (D, J), ``lam``
    (D, 2), ``mu_l`` (D, J, K) and ``mu_g`` (D, R) hold one row per
    document. ``state(i)`` is document i's DocVariational as views of
    these arrays.
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
        """Store with the given (D, J) responsibilities, other fields flat."""
        doc_ptr, words, counts = flat_docs(docs)
        (num_docs, num_clusters), rows = zeta.shape, words.size
        return cls(
            doc_ptr,
            words,
            counts,
            zeta=zeta,
            lam=np.ones((num_docs, 2)),
            mu_l=np.ones((num_docs, num_clusters, num_local)),
            mu_g=np.ones((num_docs, num_global)),
            tau=np.full(rows, 0.5),
            phi_l=np.full((rows, num_clusters, num_local), 1.0 / num_local),
            phi_g=np.full((rows, num_global), 1.0 / num_global),
        )

    @classmethod
    def gather(cls, docs, states, num_clusters, num_local, num_global):
        """Store holding copies of ``states``, one DocVariational per doc."""
        doc_ptr, words, counts = flat_docs(docs)

        def join(how, name, shape):
            parts = [getattr(state, name) for state in states]
            return how(parts) if parts else np.empty((0,) + shape)

        j, k, r = num_clusters, num_local, num_global
        return cls(
            doc_ptr,
            words,
            counts,
            zeta=join(np.stack, "zeta", (j,)),
            lam=join(np.stack, "lam", (2,)),
            mu_l=join(np.stack, "mu_local", (j, k)),
            mu_g=join(np.stack, "mu_global", (r,)),
            tau=join(np.concatenate, "tau", ()),
            phi_l=join(np.concatenate, "phi_local", (j, k)),
            phi_g=join(np.concatenate, "phi_global", (r,)),
        )

    @property
    def num_docs(self):
        return self.doc_ptr.size - 1

    @property
    def seg(self):
        """The document of each row."""
        return np.repeat(np.arange(self.num_docs), np.diff(self.doc_ptr))

    def state(self, i):
        rows = slice(self.doc_ptr[i], self.doc_ptr[i + 1])
        return DocVariational(
            zeta=self.zeta[i],
            lam=self.lam[i],
            mu_local=self.mu_l[i],
            mu_global=self.mu_g[i],
            tau=self.tau[rows],
            phi_local=self.phi_l[rows],
            phi_global=self.phi_g[rows],
        )

    def validate(self):
        validate_flat(self)


class DocStates(list):
    """One DocVariational per document, as views into one VariationalStore.

    A plain list otherwise; ``store`` is the store. Writing into a
    state's arrays writes into the store, and ``copy()`` detaches a state.
    """

    def __init__(self, store):
        ptr = store.doc_ptr.tolist()
        tau, phi_l, phi_g = store.tau, store.phi_l, store.phi_g
        super().__init__(
            DocVariational(zeta, lam, mu_l, mu_g, tau[lo:hi], phi_l[lo:hi], phi_g[lo:hi])
            for zeta, lam, mu_l, mu_g, lo, hi in zip(
                store.zeta, store.lam, store.mu_l, store.mu_g, ptr[:-1], ptr[1:]
            )
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
    consumes one ``rng.random()``, so a document's 2 * n_d topic and
    word uniforms are drawn in one call and looked up in cumulative
    tables built once per row.

    Args:
        params: generating ModelParams (validated here).
        num_docs: number of documents to draw (>= 1).
        doc_length: fixed token count per document, or a callable
            rng -> int drawn per document.
        seed: integer seed; output is deterministic given it.

    Returns:
        (Corpus, HiddenAssignments); Corpus documents carry the sampled
        cluster as their ground-truth label.
    """
    params.validate()
    if params.num_global_topics < 1:
        raise ConfigError("sampler needs at least one global topic")
    if num_docs < 1:
        raise ConfigError("num_docs must be >= 1")
    rng = np.random.default_rng(seed)
    k_dim = params.local_topics_per_cluster
    v_dim = params.vocab_size
    pi_cdf = _choice_cdf(params.pi)
    # Rows of both tables, indexed by local topic (j, z) at j * K + z
    # and global topic z at J * K + z.
    word_cdf = list(_choice_cdf(params.local_topics).reshape(-1, v_dim))
    word_cdf += list(_choice_cdf(params.global_topics))
    global_row0 = params.num_clusters * k_dim

    docs = []
    clusters = np.empty(num_docs, dtype=np.int64)
    omegas = np.empty(num_docs)
    indicators, local_zs, global_zs = [], [], []
    for d in range(num_docs):
        n_d = doc_length(rng) if callable(doc_length) else int(doc_length)
        if n_d < 1:
            raise ConfigError("document length must be >= 1")
        eta = int(pi_cdf.searchsorted(rng.random(), side="right"))
        theta_l = _choice_cdf(rng.dirichlet(params.local_priors[eta]))
        theta_g = _choice_cdf(rng.dirichlet(params.global_prior))
        omega = rng.beta(params.gamma[0], params.gamma[1])

        delta = rng.random(n_d) < omega
        u_topic, u_word = rng.random((n_d, 2)).T
        z_l = np.full(n_d, -1, dtype=np.int64)
        z_g = np.full(n_d, -1, dtype=np.int64)
        z_l[delta] = theta_l.searchsorted(u_topic[delta], side="right")
        z_g[~delta] = theta_g.searchsorted(u_topic[~delta], side="right")
        rows = np.where(delta, eta * k_dim + z_l, global_row0 + z_g)
        words = np.empty(n_d, dtype=np.int64)
        for row in np.unique(rows):
            at = rows == row
            words[at] = word_cdf[row].searchsorted(u_word[at], side="right")

        ids, counts = np.unique(words, return_counts=True)
        docs.append(Document(ids, counts, label=eta))
        clusters[d] = eta
        omegas[d] = omega
        indicators.append(delta.astype(np.int64))
        local_zs.append(z_l)
        global_zs.append(z_g)

    corpus = Corpus(docs=docs, vocab_size=v_dim)
    hidden = HiddenAssignments(clusters, omegas, indicators, local_zs, global_zs)
    return corpus, hidden


def perturbed_uniform_rows(shape, rng, noise=0.05):
    """Rows near uniform with a pinch of Dirichlet noise to break ties."""
    v = shape[-1]
    flat = rng.dirichlet(np.ones(v), size=int(np.prod(shape[:-1])))
    rows = (1.0 - noise) / v + noise * flat
    return rows.reshape(shape)


def init_model(config, corpus, init_labels=None):
    """Seeded initialization of model parameters and variational states.

    Topics start as perturbed-uniform rows; pi is uniform; both Dirichlet
    priors are symmetric 1.0 and gamma is (1, 1). Under "from_labels" the
    cluster responsibilities put 0.9 on the given label and spread the
    rest evenly; under "random" they are drawn from a flat Dirichlet.
    All other variational fields start at their symmetric values.

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
    if config.init_scheme == "from_labels":
        if init_labels is None:
            raise ConfigError("init_scheme='from_labels' needs init_labels")
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
        zeta = np.ones((num_docs, 1))
    elif labels is not None:
        zeta = np.full((num_docs, j), 0.1 / (j - 1))
        zeta[np.arange(num_docs), labels] = 0.9
    else:
        # the same draws as one rng.dirichlet call per document
        zeta = rng.dirichlet(np.ones(j), size=num_docs)
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
    ``local_fraction`` of the words take the local pathway.
    """
    rng = np.random.default_rng(seed)
    j, k, r, v = num_clusters, local_topics_per_cluster, num_global_topics, vocab_size
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
        n: number of words to return; capped at the vocabulary size.
    """
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
