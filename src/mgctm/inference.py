"""Variational EM for the multi-grain clustering topic model.

The posterior over per-document latents (cluster indicator, the two
topic-proportion vectors, the pathway coin, and per-word pathway and
topic assignments) is approximated by a fully factorized family. The
E-step cycles closed-form coordinate updates per document; the M-step
re-estimates mixture weights, topic rows, and (optionally) the Dirichlet
and Beta priors from the expected sufficient statistics. Every update
maximizes the evidence lower bound in its own coordinate, so the bound
is non-decreasing over iterations; a decrease beyond float slack is
reported as an error rather than papered over.

Bookkeeping conventions that make the bound exact: clusters a document
did not select keep a flat Dirichlet reference over their unused local
proportions, and word slots routed to one pathway carry a uniform
reference over the other pathway's topic choice. The constants those
references contribute (log-gamma of the local topic count, log of the
topic counts) appear in the bound and the updates below.

Inside ``fit`` and ``infer_doc_states`` the states of the whole corpus
live in one ``VariationalStore``: the documents' distinct terms end to
end, one row per (document, term) pair, with no padding, beside one row
per document. A row-to-document index broadcasts per-document quantities
to the rows, and segment sums collect row quantities per document. The
E-step runs on batches of a fixed number of documents, each a contiguous
slice of the store, so results are bitwise independent of the thread
count; the M-step and the corpus bound read the store batch by batch too.
``DocVariational`` objects appear only at the API edge: the states
returned are views into the store, and functions given a list of states
gather a store from it.

A document's coordinate sweeps stop once its bound stalls. The bound
after a sweep comes in collapsed form from quantities the block updates
computed anyway: each phi block is a softmax of scaled row scores, so the
entropy of phi is its log normalizer minus the scaled expected score, and
no second pass over the rows is needed. The full term-by-term bound
(``_Batch.bound_terms``) stays the reference and gives the bound before
the first sweep, ``doc_elbo`` and ``elbo_breakdown``. When some documents stop, the
working set is checked, vectorized, with exactly
``DocVariational.validate``'s conditions and error messages, scattered
into the store, and the documents still running are gathered into a
compact working set.
"""

import logging
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit, gammaln, psi, xlogy

from .errors import DegenerateInputError, NumericalError
from .model import (
    TOPIC_SMOOTHING,
    DocStates,
    DocVariational,
    FitReport,
    ModelParams,
    VariationalStore,
    validate_flat,
)
from .numerics import (
    DirichletStats,
    dirichlet_mle,
    log_normalize,
    log_normalize_with_norm,
    sum_last,
)

logger = logging.getLogger(__name__)

# An EM step may lower the bound by at most this much (relative) before
# the run is aborted; covers float noise and the tiny topic smoothing.
DECREASE_SLACK = 1e-6
# Per-document coordinate sweeps stop once the bound gain drops below this.
DOC_SWEEP_REL_TOL = 1e-8
# A cluster with less total responsibility than this is left untouched
# by the M-step so its topics do not collapse to the smoothing uniform.
EMPTY_CLUSTER_EPS = 1e-6
# Documents per E-step batch; constant so that batch boundaries (and
# therefore float results) never depend on the worker count.
BATCH_DOCS = 256

ELBO_TERM_NAMES = (
    "cluster_choice",
    "coin_prior",
    "local_proportions_prior",
    "global_proportions_prior",
    "pathway_choice",
    "local_topic_choice",
    "global_topic_choice",
    "word_emission",
    "entropy",
)

# Coordinate blocks in sweep order: word-level assignments first, then
# the document-level proportions, the coin posterior, and the cluster
# responsibilities against the refreshed proportions.
E_STEP_BLOCKS = (
    "phi_local",
    "phi_global",
    "tau",
    "mu_local",
    "mu_global",
    "lam",
    "zeta",
)


def _elog_dir(alpha):
    """Expected log components of a Dirichlet, rows along the last axis."""
    return psi(alpha) - psi(alpha.sum(axis=-1, keepdims=True))


def _scale0(c, x):
    # c * x under the convention 0 * (-inf) = 0; c must be >= 0. Same
    # bits as c * np.where(c > 0, x, 0.0), without a full-size temporary:
    # where c > 0 fails the product is redone as c * 0.0.
    with np.errstate(invalid="ignore"):
        out = c * x
    redo = np.logical_not(c > 0)
    if redo.any():
        np.multiply(c, 0.0, out=out, where=redo)
    return out


def _gdot(p, x):
    # sum(p * x) along the last axis, p == 0 entries contributing nothing
    # even at x = -inf
    return sum_last(_scale0(p, x))


def _dir_ep(alpha, elog):
    """E[log Dir(theta; alpha)] given E[log theta], along the last axis."""
    alpha = np.asarray(alpha)
    return (
        gammaln(alpha.sum(axis=-1))
        - gammaln(alpha).sum(axis=-1)
        + ((alpha - 1.0) * elog).sum(axis=-1)
    )


def _safe_log(p):
    with np.errstate(divide="ignore"):
        return np.log(p)


def _segsum(rows, bounds):
    """Per-document sums of row quantities, documents laid end to end.

    The rows of document i are bounds[i]:bounds[i + 1]; a document with
    no rows sums to 0.
    """
    out = np.zeros((bounds.size - 1,) + rows.shape[1:])
    # reduceat needs strictly increasing starts below the row count,
    # so only documents with rows get a segment
    nonempty = bounds[:-1] < bounds[1:]
    out[nonempty] = np.add.reduceat(rows, bounds[:-1][nonempty], axis=0)
    return out


def _subset(index, keep):
    # the entries of a store index (a slice or an index array) where keep holds
    if isinstance(index, slice):
        return index.start + np.flatnonzero(keep)
    return index[keep]


class _Batch:
    """A working set of documents of a VariationalStore, terms end to end.

    Term-level arrays (counts, log emissions, tau, phi) hold one row per
    (document, term) pair, documents in order; ``seg`` maps each row to
    its document. Document-level arrays (zeta, lam, mu) hold one row per
    document. Document quantities reach the rows by indexing with
    ``seg``, and row quantities reach the documents by segment sums, so
    no cell is padding. ``docs`` and ``rows`` locate the working set in
    the store: a slice at first, index arrays once ``compact`` drops
    documents. The state arrays start as views of the store; the block
    updates replace them, and ``scatter`` writes them back.

    The row scores x_l = E[log theta_l][seg] + log beta_l and x_g (the
    same for the global pathway) are built once per value of mu_l and
    mu_g and shared by every block that reads them. The blocks also keep
    what they compute on the way: the phi blocks their scales and log
    normalizers, the tau block phi . x at the scores phi was drawn from,
    and the zeta block phi_l . x_l at the new mu_l. From these ``sweep``
    returns the new bound without another pass over the rows;
    ``bound_terms`` is the full reference.
    """

    def __init__(self, params, store, docs=None):
        # documents ``docs`` (a slice; all by default) of the store
        docs = slice(0, store.num_docs) if docs is None else docs
        ptr = store.doc_ptr[docs.start : docs.stop + 1]
        self.params = params
        self.store = store
        self.docs = docs
        self.rows = slice(ptr[0], ptr[-1])
        words = store.words[self.rows]
        self.counts = store.counts[self.rows]
        self.log_k = np.log(params.local_topics_per_cluster)
        self.log_r = np.log(params.num_global_topics)
        self.lb_l = _safe_log(params.local_topics.transpose(2, 0, 1)[words])
        self.lb_g = _safe_log(params.global_topics.T[words])
        self.zeta = store.zeta[docs]
        self.lam = store.lam[docs]
        self.mu_l = store.mu_l[docs]
        self.mu_g = store.mu_g[docs]
        self.tau = store.tau[self.rows]
        self.phi_l = store.phi_l[self.rows]
        self.phi_g = store.phi_g[self.rows]
        self._set_bounds(ptr - ptr[0])

    def _set_bounds(self, bounds):
        # rows of document i are bounds[i]:bounds[i + 1]
        self.bounds = bounds
        self.num_docs = bounds.size - 1
        self.seg = np.repeat(np.arange(self.num_docs), np.diff(bounds))
        # (E[log theta], row scores x) per pathway; None once its mu moves
        self._scores_l = None
        self._scores_g = None

    def compact(self, keep):
        """Keep the documents where ``keep`` holds, gathering their rows.

        Counts and log emissions are gathered with the state, not rebuilt
        from the topics; the row scores are rebuilt on first use.
        """
        rows = keep[self.seg]
        self.docs = _subset(self.docs, keep)
        self.rows = _subset(self.rows, rows)
        self.counts = self.counts[rows]
        self.lb_l = self.lb_l[rows]
        self.lb_g = self.lb_g[rows]
        self.zeta = self.zeta[keep]
        self.lam = self.lam[keep]
        self.mu_l = self.mu_l[keep]
        self.mu_g = self.mu_g[keep]
        self.tau = self.tau[rows]
        self.phi_l = self.phi_l[rows]
        self.phi_g = self.phi_g[rows]
        sizes = np.diff(self.bounds)[keep]
        self._set_bounds(np.concatenate([[0], np.cumsum(sizes)]))

    def _local_scores(self):
        if self._scores_l is None:
            elog = _elog_dir(self.mu_l)
            self._scores_l = elog, elog[self.seg] + self.lb_l
        return self._scores_l

    def _global_scores(self):
        if self._scores_g is None:
            elog = _elog_dir(self.mu_g)
            self._scores_g = elog, elog[self.seg] + self.lb_g
        return self._scores_g

    def _update_phi_local(self):
        # phi_l = softmax(s_l * x_l) with s_l = tau * zeta[seg]
        self.s_l = self.tau[:, None] * self.zeta[self.seg]
        self.phi_l, self.lse_l = log_normalize_with_norm(
            _scale0(self.s_l[..., None], self._local_scores()[1]), axis=-1
        )

    def _update_phi_global(self):
        # phi_g = softmax(s_g * x_g) with s_g = 1 - tau
        self.s_g = 1.0 - self.tau
        self.phi_g, self.lse_g = log_normalize_with_norm(
            _scale0(self.s_g[:, None], self._global_scores()[1]), axis=-1
        )

    def _update_tau(self):
        # phi . x at the scores the phi blocks saw (mu has not moved since)
        self.px_l = _gdot(self.phi_l, self._local_scores()[1])
        self.px_g = _gdot(self.phi_g, self._global_scores()[1])
        coin = psi(self.lam[:, 0]) - psi(self.lam[:, 1])
        logit = (
            coin[self.seg]
            + _gdot(self.zeta[self.seg], self.px_l)
            + self.log_k
            - self.px_g
            - self.log_r
        )
        self.tau = expit(logit)

    def _update_mu_local(self):
        zeta = self.zeta[:, :, None]
        ct = self.counts * self.tau
        self.mu_l = (
            zeta * self.params.local_priors[None]
            + zeta * _segsum(ct[:, None, None] * self.phi_l, self.bounds)
            + (1.0 - zeta)
        )
        self._scores_l = None

    def _update_mu_global(self):
        cg = self.counts * (1.0 - self.tau)
        self.mu_g = self.params.global_prior[None] + _segsum(
            cg[:, None] * self.phi_g, self.bounds
        )
        self._scores_g = None

    def _update_lam(self):
        ct = self.counts * self.tau
        cg = self.counts * (1.0 - self.tau)
        self.lam = self.params.gamma[None] + _segsum(
            np.stack([ct, cg], axis=1), self.bounds
        )

    def _update_zeta(self):
        elog_l, x_l = self._local_scores()
        # phi_l . x_l at the new mu_l
        self.px_l_new = _gdot(self.phi_l, x_l)
        ct = self.counts * self.tau
        cluster_logit = (
            _safe_log(self.params.pi)[None]
            + _dir_ep(self.params.local_priors[None], elog_l)
            + _segsum(_scale0(ct[:, None], self.px_l_new), self.bounds)
        )
        self.zeta = log_normalize(cluster_logit, axis=-1)

    def update(self, block):
        """Apply one named closed-form block update to every document."""
        if block not in E_STEP_BLOCKS:
            raise ValueError(f"unknown coordinate block {block!r}")
        getattr(self, "_update_" + block)()

    def sweep(self):
        """One coordinate pass over every document; returns their new bounds.

        The bounds equal ``bound_terms().sum(axis=1)`` up to rounding, in
        collapsed form. Each phi block sets phi = softmax(s * x) with
        log normalizer lse, so the entropy of phi is lse - s * (phi . x),
        from the scales and normalizers the phi blocks kept and the phi . x
        the tau block computed. The topic-choice and emission terms need
        phi . x at the new mu: the zeta block computed it for the local
        pathway, and only phi_g . x_g, one (rows, R) product, is left.
        """
        for block in E_STEP_BLOCKS:
            self.update(block)
        c, tau, seg = self.counts, self.tau, self.seg
        zeta_rows = self.zeta[seg]
        elog_l, _ = self._local_scores()
        elog_g, x_g = self._global_scores()
        elog_w = _elog_dir(self.lam)
        rows = c * (
            tau * elog_w[seg, 0]
            + (1.0 - tau) * elog_w[seg, 1]
            - xlogy(tau, tau)
            - xlogy(1.0 - tau, 1.0 - tau)
            + _scale0(tau, _gdot(zeta_rows, self.px_l_new))
            - sum_last(1.0 - zeta_rows * tau[:, None]) * self.log_k
            + sum_last(self.lse_l)
            - _gdot(self.s_l, self.px_l)
            + _scale0(1.0 - tau, _gdot(self.phi_g, x_g))
            - tau * self.log_r
            + self.lse_g
            - _scale0(self.s_g, self.px_g)
        )
        return sum(self._doc_terms(elog_l, elog_g, elog_w)) + _segsum(rows, self.bounds)

    def _doc_terms(self, elog_l, elog_g, elog_w):
        # the four prior groups and the entropy of zeta, lam and mu
        params = self.params
        zeta = self.zeta
        t_cluster = _gdot(zeta, _safe_log(params.pi)[None])
        t_coin = _dir_ep(params.gamma[None], elog_w)
        t_local_prop = (zeta * _dir_ep(params.local_priors[None], elog_l)).sum(
            axis=-1
        ) + (1.0 - zeta).sum(axis=-1) * gammaln(params.local_topics_per_cluster)
        t_global_prop = _dir_ep(params.global_prior[None], elog_g)
        t_entropy = (
            -xlogy(zeta, zeta).sum(axis=-1)
            - _dir_ep(self.lam, elog_w)
            - _dir_ep(self.mu_l, elog_l).sum(axis=-1)
            - _dir_ep(self.mu_g, elog_g)
        )
        return t_cluster, t_coin, t_local_prop, t_global_prop, t_entropy

    def bound_terms(self):
        """Per-document bound split into the nine term groups, (n, 9)."""
        seg = self.seg
        c = self.counts
        zeta = self.zeta
        tau = self.tau
        phi_l = self.phi_l
        phi_g = self.phi_g

        elog_l = _elog_dir(self.mu_l)
        elog_g = _elog_dir(self.mu_g)
        elog_w = _elog_dir(self.lam)
        t_cluster, t_coin, t_local_prop, t_global_prop, t_doc_entropy = (
            self._doc_terms(elog_l, elog_g, elog_w)
        )

        # term-level groups, one row per (document, term), summed per document
        r_pathway = c * (tau * elog_w[seg, 0] + (1.0 - tau) * elog_w[seg, 1])
        scale = zeta[seg] * tau[:, None]
        phi_elog = sum_last(phi_l * elog_l[seg])
        r_local_z = c * sum_last(scale * phi_elog - (1.0 - scale) * self.log_k)
        r_global_z = c * (
            (1.0 - tau) * sum_last(phi_g * elog_g[seg]) - tau * self.log_r
        )
        em_l = _scale0(tau, _gdot(zeta[seg], _gdot(phi_l, self.lb_l)))
        em_g = _scale0(1.0 - tau, _gdot(phi_g, self.lb_g))
        r_emission = c * (em_l + em_g)
        r_entropy = -c * (
            xlogy(tau, tau)
            + xlogy(1.0 - tau, 1.0 - tau)
            + xlogy(phi_l, phi_l).sum(axis=(1, 2))
            + sum_last(xlogy(phi_g, phi_g))
        )
        t_pathway, t_local_z, t_global_z, t_emission, t_words_entropy = _segsum(
            np.stack([r_pathway, r_local_z, r_global_z, r_emission, r_entropy], axis=1),
            self.bounds,
        ).T

        return np.stack(
            [
                t_cluster,
                t_coin,
                t_local_prop,
                t_global_prop,
                t_pathway,
                t_local_z,
                t_global_z,
                t_emission,
                t_doc_entropy + t_words_entropy,
            ],
            axis=1,
        )

    def bound(self):
        return self.bound_terms().sum(axis=1)

    def state(self, i):
        # document i's state as views of the working set's arrays
        rows = slice(self.bounds[i], self.bounds[i + 1])
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
        """DocVariational.validate on every document, in one vectorized pass."""
        validate_flat(self)

    def scatter(self):
        """Check the working set, then write it into the store."""
        self.validate()
        store, docs, rows = self.store, self.docs, self.rows
        store.zeta[docs] = self.zeta
        store.lam[docs] = self.lam
        store.mu_l[docs] = self.mu_l
        store.mu_g[docs] = self.mu_g
        store.tau[rows] = self.tau
        store.phi_l[rows] = self.phi_l
        store.phi_g[rows] = self.phi_g


def _coordinate_ascent(params, store, docs, sweeps, rel_tol=DOC_SWEEP_REL_TOL):
    """Coordinate sweeps with per-document early exit, in place.

    Runs on documents ``docs`` (a slice) of the store. A document stops
    once a sweep improves its bound by less than ``rel_tol`` relative.
    The bound before the first sweep comes from ``bound_terms``; after
    each sweep it is the collapsed bound the sweep returns, so no sweep
    pays for a second pass over the rows. When one document stops, the
    working set is checked and scattered into the store, and the
    documents still running are gathered into a compact working set.
    Returns per-document sweep counts.
    """
    batch = _Batch(params, store, docs)
    running = np.arange(batch.num_docs)
    ran = np.zeros(batch.num_docs, dtype=np.int64)
    done = 0
    prev = None
    while running.size and done < sweeps:
        if prev is None:
            prev = batch.bound()
        else:
            # drop the documents that stopped in the last round
            batch.compact(keep)
        keep = np.ones(running.size, dtype=bool)
        while keep.all() and done < sweeps:
            val = batch.sweep()
            done += 1
            ran[running] += 1
            keep = val - prev >= rel_tol * np.maximum(1.0, np.abs(prev))
            prev = val
        batch.scatter()
        running, prev = running[keep], prev[keep]
    return ran


def _batch_slices(num_docs):
    # A fixed batch size makes batch boundaries, and with them every
    # float result, independent of the worker count.
    return [
        slice(lo, min(lo + BATCH_DOCS, num_docs))
        for lo in range(0, num_docs, BATCH_DOCS)
    ]


def _as_store(params, docs, states):
    """``states`` of ``docs`` as a VariationalStore.

    A store is returned as is; a list of DocVariational is gathered into
    a new store, so the caller's objects are copied, not shared.
    """
    if isinstance(states, VariationalStore):
        return states
    return VariationalStore.gather(
        docs,
        states,
        params.num_clusters,
        params.local_topics_per_cluster,
        params.num_global_topics,
    )


def _set_state(state, store):
    # point a caller's state at the one document of ``store``
    vars(state).update(vars(store.state(0)))


def doc_elbo(params, doc, state):
    """Evidence lower bound contribution of one document."""
    return float(_Batch(params, _as_store(params, [doc], [state])).bound()[0])


def elbo_breakdown(params, states, corpus):
    """Corpus bound split by term group; keys name what each group scores.

    ``states`` is a list of DocVariational, one per document, or the
    VariationalStore holding them.
    """
    store = _as_store(params, corpus.docs, states)
    acc = np.zeros(len(ELBO_TERM_NAMES))
    for docs in _batch_slices(store.num_docs):
        acc += _Batch(params, store, docs).bound_terms().sum(axis=0)
    return dict(zip(ELBO_TERM_NAMES, acc.tolist()))


def elbo(params, states, corpus):
    """Evidence lower bound of the whole corpus under the current states."""
    return sum(elbo_breakdown(params, states, corpus).values())


def e_step_doc(params, doc, state, sweeps, rel_tol=DOC_SWEEP_REL_TOL):
    """Run up to ``sweeps`` coordinate passes on one document, in place.

    Stops early once a pass improves the document's bound by less than
    ``rel_tol`` relative. Returns the number of passes run.
    """
    store = _as_store(params, [doc], [state])
    ran = _coordinate_ascent(params, store, slice(0, 1), sweeps, rel_tol)
    _set_state(state, store)
    return int(ran[0])


def update_block(params, doc, state, block):
    """Apply a single named coordinate update to one document, in place.

    ``block`` is one of E_STEP_BLOCKS. A full sweep applies all blocks in
    that order; this entry point exists so each closed-form update can be
    exercised (and checked for per-block bound improvement) in isolation.
    """
    store = _as_store(params, [doc], [state])
    batch = _Batch(params, store)
    batch.update(block)
    batch.scatter()
    _set_state(state, store)
    return state


def _run_e_step(params, store, sweeps, threads):
    def work(docs):
        _coordinate_ascent(params, store, docs, sweeps)

    slices = _batch_slices(store.num_docs)
    if threads is not None and threads > 1:
        # Every batch touches a disjoint slice of the store.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, slices))
    else:
        for docs in slices:
            work(docs)


def infer_doc_states(params, corpus, sweeps=50, threads=None):
    """Posterior inference for new documents under fixed parameters.

    Starts every document from the symmetric state (uniform cluster
    responsibilities included, so the result is deterministic) and runs
    coordinate sweeps until the per-document bound stalls.

    Returns a DocStates list, one DocVariational per document: views into
    one VariationalStore, so writing into one state's arrays writes into
    the store; ``.copy()`` detaches a state.
    """
    j_dim = params.num_clusters
    store = VariationalStore.symmetric(
        corpus.docs,
        np.full((corpus.num_docs, j_dim), 1.0 / j_dim),
        params.local_topics_per_cluster,
        params.num_global_topics,
    )
    _run_e_step(params, store, sweeps, threads)
    return DocStates(store)


def m_step(params, states, corpus, config):
    """Re-estimate global parameters from the per-document expectations.

    ``states`` is a list of DocVariational, one per document, or the
    VariationalStore holding them.
    """
    store = _as_store(params, corpus.docs, states)
    j_dim = params.num_clusters
    k_dim = params.local_topics_per_cluster
    r_dim = params.num_global_topics
    v_dim = params.vocab_size
    num_docs = corpus.num_docs

    zeta_mat = store.zeta
    occupancy = zeta_mat.sum(axis=0)
    pi = occupancy / num_docs

    # Accumulate term-major; word ids repeat across documents, so the
    # scatter must sum repeated indices.
    beta_l = np.zeros((v_dim, j_dim, k_dim))
    beta_g = np.zeros((v_dim, r_dim))
    seg = store.seg
    for docs in _batch_slices(num_docs):
        rows = slice(store.doc_ptr[docs.start], store.doc_ptr[docs.stop])
        words, counts, tau = store.words[rows], store.counts[rows], store.tau[rows]
        ct = counts * tau
        cg = counts * (1.0 - tau)
        local_w = ct[:, None, None] * store.phi_l[rows]
        np.add.at(beta_l, words, store.zeta[seg[rows]][:, :, None] * local_w)
        np.add.at(beta_g, words, cg[:, None] * store.phi_g[rows])
    beta_l = beta_l.transpose(1, 2, 0).copy()
    beta_g = beta_g.T.copy()

    beta_l += TOPIC_SMOOTHING
    beta_l /= beta_l.sum(axis=-1, keepdims=True)
    beta_g += TOPIC_SMOOTHING
    beta_g /= beta_g.sum(axis=-1, keepdims=True)

    empty = occupancy < EMPTY_CLUSTER_EPS
    if np.any(empty):
        logger.warning(
            "clusters %s have near-zero responsibility; freezing their topics",
            np.flatnonzero(empty).tolist(),
        )
        beta_l[empty] = params.local_topics[empty]

    local_priors = params.local_priors.copy()
    global_prior = params.global_prior.copy()
    gamma = params.gamma.copy()
    if config.prior_update == "every_iter":
        elog_l_docs = _elog_dir(store.mu_l)
        elog_g_docs = _elog_dir(store.mu_g)
        elog_w_docs = _elog_dir(store.lam)
        for j in range(j_dim):
            if empty[j]:
                continue
            weights = zeta_mat[:, j]
            mean_log = (weights[:, None] * elog_l_docs[:, j, :]).sum(
                axis=0
            ) / occupancy[j]
            stats = DirichletStats(mean_log=mean_log, num_obs=float(occupancy[j]))
            local_priors[j] = dirichlet_mle(stats, init=params.local_priors[j])
        global_prior = dirichlet_mle(
            DirichletStats(mean_log=elog_g_docs.mean(axis=0), num_obs=float(num_docs)),
            init=params.global_prior,
        )
        gamma = dirichlet_mle(
            DirichletStats(mean_log=elog_w_docs.mean(axis=0), num_obs=float(num_docs)),
            init=params.gamma,
        )

    return ModelParams(
        pi=pi,
        gamma=gamma,
        local_priors=local_priors,
        global_prior=global_prior,
        local_topics=beta_l,
        global_topics=beta_g,
    )


def _copy_params(params):
    return ModelParams(
        pi=params.pi.copy(),
        gamma=params.gamma.copy(),
        local_priors=params.local_priors.copy(),
        global_prior=params.global_prior.copy(),
        local_topics=params.local_topics.copy(),
        global_topics=params.global_topics.copy(),
    )


def _check_initial(params, states, corpus, config):
    """Check a caller's starting point; returns its states gathered."""
    params.validate()
    if params.num_clusters != config.num_clusters:
        raise DegenerateInputError("initial params disagree with config shape")
    if params.vocab_size != corpus.vocab_size:
        raise DegenerateInputError("initial params disagree with corpus vocabulary")
    if len(states) != corpus.num_docs:
        raise DegenerateInputError("need one variational state per document")
    for doc, state in zip(corpus.docs, states):
        rows = {state.tau.shape[0], state.phi_local.shape[0], state.phi_global.shape[0]}
        if rows != {doc.word_ids.size}:
            raise DegenerateInputError("variational state does not match document")
    store = _as_store(params, corpus.docs, states)
    store.validate()
    return store


def fit(config, corpus, init_labels=None, initial=None, threads=None):
    """Fit the model by variational EM.

    Args:
        config: HyperConfig with shapes and schedule.
        corpus: training Corpus.
        init_labels: cluster labels consumed when config.init_scheme is
            "from_labels" (array or ClusterLabels).
        initial: optional (ModelParams, list[DocVariational]) starting
            point; copied, the caller's objects are not mutated.
        threads: worker threads for the per-document E-step; results are
            identical for any value.

    Returns:
        (ModelParams, DocStates, FitReport). The states, one
        DocVariational per document, are views into one VariationalStore:
        writing into one writes into the store; ``.copy()`` detaches a
        state. The report's
        elbo_trace holds the initial bound followed by one value per EM
        iteration; a bound decrease beyond float slack raises
        NumericalError with a per-term breakdown attached.
    """
    from .model import init_model

    start = time.perf_counter()
    if corpus.num_docs < 1:
        raise DegenerateInputError("cannot fit an empty corpus")
    if initial is not None:
        params, states = initial
        params = _copy_params(params)
        store = _check_initial(params, states, corpus, config)
    else:
        params, states = init_model(config, corpus, init_labels)
        store = states.store

    trace = [elbo(params, store, corpus)]
    converged = False
    iterations = 0
    for _ in range(config.max_em_iters):
        _run_e_step(params, store, config.e_step_iters, threads)
        params = m_step(params, store, corpus, config)
        params.validate()
        iterations += 1
        value = elbo(params, store, corpus)
        prev = trace[-1]
        trace.append(value)
        slack = DECREASE_SLACK * max(1.0, abs(prev))
        if value < prev - slack:
            raise NumericalError(
                f"bound decreased from {prev:.10g} to {value:.10g} "
                f"at iteration {iterations}",
                details={
                    "iteration": iterations,
                    "previous": prev,
                    "current": value,
                    "breakdown": elbo_breakdown(params, store, corpus),
                    "trace": list(trace),
                },
            )
        if config.elbo_rel_tol > 0 and value - prev < config.elbo_rel_tol * max(
            1.0, abs(prev)
        ):
            converged = True
            break

    report = FitReport(
        elbo_trace=trace,
        iterations_run=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )
    return params, DocStates(store), report
