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
per document. The M-step and the corpus bound read the store batch by
batch. ``DocVariational`` objects appear only at the API edge: the
states returned are views into the store, and functions given a list of
states gather a store from it.

One EM driver (``_run_em``) runs ``fit`` and ``baselines.fit_lda``, and
one early-exit loop (``_coordinate_ascent``) both E-steps, on batches of
a fixed number of documents, so results are bitwise independent of the
thread count. A batch is a ``_WorkingSet`` (``_Batch`` here, the LDA
one in ``baselines``) over a contiguous slice of a store's documents,
written back by ``scatter``. The store keeps every state array with
its topic axes first and its document or row axis last, so a batch's
state arrays are views of it, not copies; the blocks replace them and
never write into them. Every block is plain broadcasting against that
trailing axis plus reductions over axis 0 or 1, which NumPy adds in
index order whatever the topic counts. A row-to-document index
broadcasts per-document quantities to the rows (``np.take`` along it,
several times faster than fancy indexing), and segment sums collect row
quantities per document.
Each bound pass gives every document's bound too, and the next E-step
starts from those. Held-out documents all start from one symmetric
state, whose bound is a closed form in the counts
(``_symmetric_bounds``), so ``infer_doc_states`` starts without a bound
pass. A document's sweeps stop once its bound stalls; it is then written
back (its state checked, vectorized, with exactly
``DocVariational.validate``'s conditions and error messages), and the
documents still running are gathered into a compact working set. The bound after a sweep comes in collapsed form:
each phi block is a softmax of scaled row scores, so the entropy of phi
is its log normalizer minus the scaled expected score, and no second
pass over the rows is needed.
"""

import copy
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from scipy.special import expit, gammaln, psi, xlogy

from .corpus import Document, _segsum
from .errors import ConfigError, DegenerateInputError, DimensionError, NumericalError
from .model import (
    TOPIC_SMOOTHING,
    DocStates,
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
    scale0,
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


def _elog_dir(alpha, axis=-1):
    """Expected log components of a Dirichlet along ``axis``."""
    return psi(alpha) - psi(alpha.sum(axis=axis, keepdims=True))


def _gdot(p, x, axis=-1):
    # sum(p * x) along ``axis``, p == 0 entries contributing nothing even
    # at x = -inf
    return scale0(p, x).sum(axis=axis)


def _dir_ep(alpha, elog, axis=-1):
    """E[log Dir(theta; alpha)] given E[log theta], along ``axis``."""
    alpha = np.asarray(alpha)
    return (
        gammaln(alpha.sum(axis=axis))
        - gammaln(alpha).sum(axis=axis)
        + ((alpha - 1.0) * elog).sum(axis=axis)
    )


def _safe_log(p):
    with np.errstate(divide="ignore"):
        return np.log(p)


def _log_topics(params):
    """(J, K, V) local and (R, V) global log topics; ``_Batch`` gathers
    them by word id along the last axis."""
    with np.errstate(divide="ignore"):
        return np.log(params.local_topics), np.log(params.global_topics)


def _subset(index, keep):
    # the entries of a store index (a slice or an index array) where keep holds
    if isinstance(index, slice):
        return index.start + np.flatnonzero(keep)
    return index[keep]


class _WorkingSet:
    """E-step documents, terms end to end, for ``_coordinate_ascent``.

    ``DOC_FIELDS`` name the arrays with one entry per document along
    ``ROW_AXIS``, ``ROW_FIELDS`` those with one per (document, term) pair;
    ``seg`` maps rows to documents. ``STATE`` names the fields taken from
    a store (anything with CSR ``doc_ptr``/``words``/``counts`` and those
    arrays, with documents or rows along ``ROW_AXIS`` as in the set) and
    written back by ``scatter`` once ``validate`` passes. A new set's
    state fields are views of the store's; the blocks replace them, never
    writing into them. ``docs`` and ``rows`` locate the set in the store:
    slices at first, index arrays once ``compact`` drops documents.
    """

    ROW_AXIS = 0

    def __init__(self, store, docs=None):
        # documents ``docs`` (a slice; all by default) of the store
        docs = slice(0, store.doc_ptr.size - 1) if docs is None else docs
        ptr = store.doc_ptr[docs.start : docs.stop + 1]
        self.store = store
        self.docs = docs
        self.rows = slice(ptr[0], ptr[-1])
        self.counts = store.counts[self.rows]
        self._set_bounds(ptr - ptr[0])
        for name in self.STATE:
            setattr(self, name, getattr(store, name)[self._index(name)])

    def _index(self, name):
        # where field ``name`` of the set sits in the store
        index = self.docs if name in self.DOC_FIELDS else self.rows
        return (index, ...) if self.ROW_AXIS == 0 else (..., index)

    def _set_bounds(self, bounds):
        # rows of document i are bounds[i]:bounds[i + 1]
        self.bounds = bounds
        self.num_docs = bounds.size - 1
        self.seg = np.repeat(np.arange(self.num_docs), np.diff(bounds))

    def _to_rows(self, a):
        # a, with one entry per document, at each of the documents' rows
        return np.take(a, self.seg, axis=self.ROW_AXIS)

    def compact(self, keep):
        """Keep the documents where ``keep`` holds, gathering their rows."""
        rows = self._to_rows(keep)
        self.docs = _subset(self.docs, keep)
        self.rows = _subset(self.rows, rows)
        for names, index in ((self.DOC_FIELDS, keep), (self.ROW_FIELDS, rows)):
            for name in names:
                value = vars(self).get(name)
                if value is not None:  # a field not computed yet stays unset
                    setattr(self, name, np.compress(index, value, axis=self.ROW_AXIS))
        sizes = np.diff(self.bounds)[keep]
        self._set_bounds(np.concatenate([[0], np.cumsum(sizes)]))

    def validate(self):
        """Check the state before ``scatter`` writes it; no check here."""

    def scatter(self):
        """Check the working set, then write its state into the store."""
        self.validate()
        for name in self.STATE:
            getattr(self.store, name)[self._index(name)] = getattr(self, name)

    def write_back(self, done):
        """Scatter the documents where ``done`` holds; the set is unchanged."""
        part = self
        if not done.all():
            part = copy.copy(self)
            part.compact(done)
        part.scatter()


class _Batch(_WorkingSet):
    """The MGCTM working set: documents of a VariationalStore.

    Each array keeps its topic axes first, in the parameters' order, and
    its document or row axis last, as the store does: zeta (J, n), lam
    (2, n), mu_l (J, K, n), mu_g (R, n), tau (N,), phi_l (J, K, N), phi_g
    (R, N) and the log emissions lb_l (J, K, N) and lb_g (R, N). The
    blocks are broadcasts against the trailing axis and reductions over
    axis 0 or 1, which add in index order. Document quantities reach the
    rows by a gather along ``seg``, and row quantities reach the
    documents by segment sums, so no cell is padding. The block updates
    replace the ``STATE`` arrays, and ``scatter`` checks them
    (``validate``) before it writes them back.

    The row scores x_l = E[log theta_l][seg] + log beta_l and x_g (the
    same for the global pathway) are built once per value of mu_l and
    mu_g and shared by every block that reads them. The blocks also keep
    what they compute on the way: the phi blocks their scales and log
    normalizers, the tau block phi . x at the scores phi was drawn from,
    and the zeta block phi_l . x_l at the new mu_l. From these ``sweep``
    returns the new bound without another pass over the rows;
    ``bound_terms`` is the full reference.
    """

    ROW_AXIS = -1
    DOC_FIELDS = ("zeta", "lam", "mu_l", "mu_g")
    # log emissions are gathered with the state, not rebuilt from the topics
    ROW_FIELDS = ("counts", "lb_l", "lb_g", "tau", "phi_l", "phi_g")
    STATE = ("zeta", "lam", "mu_l", "mu_g", "tau", "phi_l", "phi_g")

    def __init__(self, params, store, docs=None, log_topics=None):
        # log_topics: ``_log_topics(params)``, taken here when not given
        super().__init__(store, docs)
        words = store.words[self.rows]
        self.params = params
        self.log_k = np.log(params.local_topics_per_cluster)
        self.log_r = np.log(params.num_global_topics)
        log_l, log_g = _log_topics(params) if log_topics is None else log_topics
        self.lb_l = np.take(log_l, words, axis=-1)
        self.lb_g = np.take(log_g, words, axis=-1)

    def _set_bounds(self, bounds):
        super()._set_bounds(bounds)
        # (E[log theta], row scores x) per pathway; None once mu or the
        # documents change
        self._scores_l = None
        self._scores_g = None

    def _local_scores(self):
        if self._scores_l is None:
            elog = _elog_dir(self.mu_l, axis=1)
            self._scores_l = elog, self._to_rows(elog) + self.lb_l
        return self._scores_l

    def _global_scores(self):
        if self._scores_g is None:
            elog = _elog_dir(self.mu_g, axis=0)
            self._scores_g = elog, self._to_rows(elog) + self.lb_g
        return self._scores_g

    def _update_phi_local(self):
        # phi_l = softmax over k of s_l * x_l, with s_l = tau * zeta[seg]
        self.s_l = self.tau * self._to_rows(self.zeta)
        x_l = self._local_scores()[1]
        self.phi_l, self.lse_l = log_normalize_with_norm(scale0(self.s_l[:, None], x_l), axis=1)

    def _update_phi_global(self):
        # phi_g = softmax over r of s_g * x_g, with s_g = 1 - tau
        self.s_g = 1.0 - self.tau
        x_g = self._global_scores()[1]
        self.phi_g, self.lse_g = log_normalize_with_norm(scale0(self.s_g, x_g), axis=0)

    def _update_tau(self):
        # phi . x at the scores the phi blocks saw (mu has not moved since)
        self.px_l = _gdot(self.phi_l, self._local_scores()[1], axis=1)
        self.px_g = _gdot(self.phi_g, self._global_scores()[1], axis=0)
        coin = psi(self.lam[0]) - psi(self.lam[1])
        logit = (
            self._to_rows(coin)
            + _gdot(self._to_rows(self.zeta), self.px_l, axis=0)
            + self.log_k
            - self.px_g
            - self.log_r
        )
        self.tau = expit(logit)

    def _update_mu_local(self):
        zeta = self.zeta[:, None]
        ct = self.counts * self.tau
        self.mu_l = (
            zeta * self.params.local_priors[..., None]
            + zeta * _segsum(ct * self.phi_l, self.bounds)
            + (1.0 - zeta)
        )
        self._scores_l = None

    def _update_mu_global(self):
        cg = self.counts * (1.0 - self.tau)
        self.mu_g = self.params.global_prior[:, None] + _segsum(cg * self.phi_g, self.bounds)
        self._scores_g = None

    def _update_lam(self):
        ct = self.counts * self.tau
        cg = self.counts * (1.0 - self.tau)
        self.lam = self.params.gamma[:, None] + _segsum(np.stack([ct, cg]), self.bounds)

    def _update_zeta(self):
        elog_l, x_l = self._local_scores()
        # phi_l . x_l at the new mu_l
        self.px_l_new = _gdot(self.phi_l, x_l, axis=1)
        ct = self.counts * self.tau
        cluster_logit = (
            _safe_log(self.params.pi)[:, None]
            + _dir_ep(self.params.local_priors[..., None], elog_l, axis=1)
            + _segsum(scale0(ct, self.px_l_new), self.bounds)
        )
        self.zeta = log_normalize(cluster_logit, axis=0)

    def update(self, block):
        """Apply one named closed-form block update to every document."""
        if block not in E_STEP_BLOCKS:
            raise ValueError(f"unknown coordinate block {block!r}")
        getattr(self, "_update_" + block)()

    def sweep(self, bound=True):
        """One coordinate pass over every document; returns their new
        bounds, or None without ``bound``.

        The bounds equal ``bound_terms().sum(axis=1)`` up to rounding, in
        collapsed form. Each phi block sets phi = softmax(s * x) with
        log normalizer lse, so the entropy of phi is lse - s * (phi . x),
        from the scales and normalizers the phi blocks kept and the phi . x
        the tau block computed. The topic-choice and emission terms need
        phi . x at the new mu: the zeta block computed it for the local
        pathway, and only phi_g . x_g, one (R, rows) product, is left.
        """
        for block in E_STEP_BLOCKS:
            self.update(block)
        if not bound:
            return None
        c, tau = self.counts, self.tau
        zeta_rows = self._to_rows(self.zeta)
        elog_l, _ = self._local_scores()
        elog_g, x_g = self._global_scores()
        elog_w = _elog_dir(self.lam, axis=0)
        coin_rows = self._to_rows(elog_w)
        rows = c * (
            tau * coin_rows[0]
            + (1.0 - tau) * coin_rows[1]
            - xlogy(tau, tau)
            - xlogy(1.0 - tau, 1.0 - tau)
            + scale0(tau, _gdot(zeta_rows, self.px_l_new, axis=0))
            - (1.0 - zeta_rows * tau).sum(axis=0) * self.log_k
            + self.lse_l.sum(axis=0)
            - _gdot(self.s_l, self.px_l, axis=0)
            + scale0(1.0 - tau, _gdot(self.phi_g, x_g, axis=0))
            - tau * self.log_r
            + self.lse_g
            - scale0(self.s_g, self.px_g)
        )
        return sum(self._doc_terms(elog_l, elog_g, elog_w)) + _segsum(rows, self.bounds)

    def _doc_terms(self, elog_l, elog_g, elog_w):
        # the four prior groups and the entropy of zeta, lam and mu
        params = self.params
        zeta = self.zeta
        t_cluster = _gdot(zeta, _safe_log(params.pi)[:, None], axis=0)
        t_coin = _dir_ep(params.gamma[:, None], elog_w, axis=0)
        t_local_prop = (
            zeta * _dir_ep(params.local_priors[..., None], elog_l, axis=1)
        ).sum(axis=0) + (1.0 - zeta).sum(axis=0) * gammaln(params.local_topics_per_cluster)
        t_global_prop = _dir_ep(params.global_prior[:, None], elog_g, axis=0)
        t_entropy = (
            -xlogy(zeta, zeta).sum(axis=0)
            - _dir_ep(self.lam, elog_w, axis=0)
            - _dir_ep(self.mu_l, elog_l, axis=1).sum(axis=0)
            - _dir_ep(self.mu_g, elog_g, axis=0)
        )
        return t_cluster, t_coin, t_local_prop, t_global_prop, t_entropy

    def bound_terms(self):
        """Per-document bound split into the nine term groups, (n, 9)."""
        c = self.counts
        zeta = self.zeta
        tau = self.tau
        phi_l = self.phi_l
        phi_g = self.phi_g

        elog_l = _elog_dir(self.mu_l, axis=1)
        elog_g = _elog_dir(self.mu_g, axis=0)
        elog_w = _elog_dir(self.lam, axis=0)
        t_cluster, t_coin, t_local_prop, t_global_prop, t_doc_entropy = (
            self._doc_terms(elog_l, elog_g, elog_w)
        )

        # term-level groups, one entry per (document, term), summed per document
        zeta_rows = self._to_rows(zeta)
        coin_rows = self._to_rows(elog_w)
        r_pathway = c * (tau * coin_rows[0] + (1.0 - tau) * coin_rows[1])
        scale = zeta_rows * tau
        phi_elog = (phi_l * self._to_rows(elog_l)).sum(axis=1)
        r_local_z = c * (scale * phi_elog - (1.0 - scale) * self.log_k).sum(axis=0)
        r_global_z = c * (
            (1.0 - tau) * (phi_g * self._to_rows(elog_g)).sum(axis=0) - tau * self.log_r
        )
        em_l = scale0(tau, _gdot(zeta_rows, _gdot(phi_l, self.lb_l, axis=1), axis=0))
        em_g = scale0(1.0 - tau, _gdot(phi_g, self.lb_g, axis=0))
        r_emission = c * (em_l + em_g)
        r_entropy = -c * (
            xlogy(tau, tau)
            + xlogy(1.0 - tau, 1.0 - tau)
            + xlogy(phi_l, phi_l).sum(axis=(0, 1))
            + xlogy(phi_g, phi_g).sum(axis=0)
        )
        t_pathway, t_local_z, t_global_z, t_emission, t_words_entropy = _segsum(
            np.stack([r_pathway, r_local_z, r_global_z, r_emission, r_entropy]),
            self.bounds,
        )

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

    def validate(self):
        """DocVariational.validate on every document, in one vectorized pass."""
        validate_flat(self)


def _coordinate_ascent(work, start, sweeps, rel_tol=DOC_SWEEP_REL_TOL):
    """Coordinate sweeps with per-document early exit, in place.

    ``work`` is a working set (``_Batch`` or the LDA one) and ``start``
    its documents' bounds before the first sweep, or None to take them
    from ``work.bound()``; later bounds are those ``work.sweep()`` returns.
    A document stops once a sweep improves its bound by less than
    ``rel_tol`` relative, or after ``sweeps`` sweeps, and is then written
    back, once. Every document still running stops after the last
    allowed sweep, so that sweep skips its bound, which would go unread.
    Returns per-document sweep counts.
    """
    running = np.arange(work.num_docs)
    ran = np.zeros(work.num_docs, dtype=np.int64)
    prev = start
    for sweep in range(sweeps):
        ran[running] += 1
        if sweep + 1 == sweeps:
            work.sweep(bound=False)
            work.scatter()
            break
        if prev is None:
            prev = work.bound()
        val = work.sweep()
        keep = val - prev >= rel_tol * np.maximum(1.0, np.abs(prev))
        if not keep.all():
            work.write_back(~keep)
            if not keep.any():
                break
            work.compact(keep)
            running, val = running[keep], val[keep]
        prev = val
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
    a new store, which checks the states' shapes, so the caller's objects
    are copied, not shared. Word ids outside the model's vocabulary raise
    DimensionError.
    """
    if isinstance(states, VariationalStore):
        return states
    store = VariationalStore.gather(
        docs,
        states,
        params.num_clusters,
        params.local_topics_per_cluster,
        params.num_global_topics,
    )
    v_dim = params.vocab_size
    if store.words.size and not 0 <= store.words.min() <= store.words.max() < v_dim:
        raise DimensionError(f"word ids outside the model's vocabulary [0, {v_dim})")
    return store


def _set_state(state, store):
    # point a caller's state at the one document of ``store``
    vars(state).update(vars(store.state(0)))


def doc_elbo(params, doc, state):
    """Evidence lower bound contribution of one document."""
    return float(_Batch(params, _as_store(params, [doc], [state])).bound()[0])


def _corpus_bound(batch, num_docs):
    """({term name: corpus total}, per-document bounds), in one pass;
    ``batch(docs)`` builds the working set of the slice ``docs``."""
    acc = np.zeros(len(ELBO_TERM_NAMES))
    doc_bounds = np.empty(num_docs)
    for docs in _batch_slices(num_docs):
        terms = batch(docs).bound_terms()
        acc += terms.sum(axis=0)
        doc_bounds[docs] = terms.sum(axis=1)
    return dict(zip(ELBO_TERM_NAMES, acc.tolist())), doc_bounds


def elbo_breakdown(params, states, corpus):
    """Corpus bound split by term group; keys name what each group scores.

    ``states`` is a list of DocVariational, one per document, or the
    VariationalStore holding them.
    """
    store = _as_store(params, corpus.docs, states)
    batch = partial(_Batch, params, store, log_topics=_log_topics(params))
    return _corpus_bound(batch, store.num_docs)[0]


def elbo(params, states, corpus):
    """Evidence lower bound of the whole corpus under the current states."""
    return sum(elbo_breakdown(params, states, corpus).values())


def e_step_doc(params, doc, state, sweeps, rel_tol=DOC_SWEEP_REL_TOL):
    """Run up to ``sweeps`` coordinate passes on one document, in place.

    Stops early once a pass improves the document's bound by less than
    ``rel_tol`` relative. Returns the number of passes run. ``sweeps`` < 0
    raises ConfigError.
    """
    if sweeps < 0:
        raise ConfigError("sweeps must be >= 0")
    store = _as_store(params, [doc], [state])
    ran = _coordinate_ascent(_Batch(params, store), None, sweeps, rel_tol)
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


def _run_e_step(batch, num_docs, start, sweeps, threads=None):
    # _coordinate_ascent on every batch; batch(docs) builds the working set
    # of the slice ``docs``; ``start``: every document's bound
    def work(docs):
        _coordinate_ascent(batch(docs), start[docs], sweeps)

    slices = _batch_slices(num_docs)
    if threads is not None and threads > 1:
        # Every batch touches a disjoint slice of the corpus-wide arrays.
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
    the store; ``.copy()`` detaches a state. Invalid parameters, a corpus
    over another vocabulary size and ``sweeps`` < 0 are rejected.
    """
    params.validate()
    if params.vocab_size != corpus.vocab_size:
        raise DimensionError("model and corpus vocabulary sizes differ")
    if sweeps < 0:
        raise ConfigError("sweeps must be >= 0")
    store = _symmetric_store(params, corpus.docs)
    log_topics = _log_topics(params)
    batch = partial(_Batch, params, store, log_topics=log_topics)
    start = _symmetric_bounds(params, store, log_topics)
    _run_e_step(batch, corpus.num_docs, start, sweeps, threads)
    return DocStates(store)


def _symmetric_store(params, docs):
    # the states infer_doc_states starts from: zeta uniform, the rest flat
    j_dim = params.num_clusters
    return VariationalStore.symmetric(
        docs,
        np.full((j_dim, len(docs)), 1.0 / j_dim),
        params.local_topics_per_cluster,
        params.num_global_topics,
    )


def _symmetric_bounds(params, store, log_topics):
    """The bounds of the documents of a ``_symmetric_store``, in closed form.

    Equal to ``bound_terms().sum(axis=1)`` up to rounding. At that state
    a document's bound is T0 + sum_n c_n (C + e[w_n]): T0 is the bound
    of an empty document, and a term of count c adds c times the
    pathway, topic-choice and entropy terms at tau = 1/2 and uniform phi,
    C = log 2 - 1 + (psi(1) - psi(K) + log K) / 2 + (psi(1) - psi(R) + log R) / 2,
    and c times its emission term e[w] = (mean_jk log beta_jkw +
    mean_r log beta_rw) / 2. ``log_topics`` is ``_log_topics(params)``.
    """
    k_dim, r_dim = params.local_topics_per_cluster, params.num_global_topics
    empty = _symmetric_store(params, [Document([], [])])
    t0 = _Batch(params, empty, log_topics=log_topics).bound()[0]
    const = (
        np.log(2.0)
        - 1.0
        + (psi(1.0) - psi(k_dim) + np.log(k_dim)) / 2
        + (psi(1.0) - psi(r_dim) + np.log(r_dim)) / 2
    )
    # each word's J * K and R log topics contiguous, as the means reduce them
    v_dim = params.vocab_size
    log_l, log_g = (np.ascontiguousarray(t.reshape(-1, v_dim).T) for t in log_topics)
    emission = (log_l.mean(axis=1) + log_g.mean(axis=1)) / 2
    rows = store.counts * (const + np.take(emission, store.words))
    return t0 + _segsum(rows, store.doc_ptr)


def m_step(params, states, corpus, config):
    """Re-estimate global parameters from the per-document expectations.

    ``states`` is a list of DocVariational, one per document, or the
    VariationalStore holding them. One pass per cluster reads the store in
    its own layout. Sums over documents add them in index order: they run
    over documents-first copies, of ``mu_l`` one cluster's block at a time.
    """
    store = _as_store(params, corpus.docs, states)
    j_dim = params.num_clusters
    k_dim = params.local_topics_per_cluster
    v_dim = params.vocab_size
    num_docs = corpus.num_docs
    every_iter = config.prior_update == "every_iter"

    zeta_mat, lam, mu_g = (
        np.moveaxis(a, -1, 0).copy() for a in (store.zeta, store.lam, store.mu_g)
    )
    occupancy = zeta_mat.sum(axis=0)
    pi = occupancy / num_docs
    empty = occupancy < EMPTY_CLUSTER_EPS
    if np.any(empty):
        logger.warning(
            "clusters %s have near-zero responsibility; freezing their topics",
            np.flatnonzero(empty).tolist(),
        )

    # Each topic's expected word counts: np.bincount adds every row's
    # weight into its word one row after another, as a scatter over all
    # rows in order would.
    seg = store.seg
    ct = store.counts * store.tau
    cg = store.counts * (1.0 - store.tau)
    beta_l = np.empty((j_dim, k_dim, v_dim))
    local_priors = params.local_priors.copy()
    for j in range(j_dim):
        zeta_rows = np.take(store.zeta[j], seg)
        for k, phi in enumerate(store.phi_l[j]):
            beta_l[j, k] = np.bincount(store.words, zeta_rows * (ct * phi), minlength=v_dim)
        if every_iter and not empty[j]:
            elog = _elog_dir(np.moveaxis(store.mu_l[j], -1, 0).copy())
            mean_log = (zeta_mat[:, j, None] * elog).sum(axis=0) / occupancy[j]
            stats = DirichletStats(mean_log=mean_log, num_obs=float(occupancy[j]))
            local_priors[j] = dirichlet_mle(stats, init=params.local_priors[j])
    beta_g = np.stack([np.bincount(store.words, cg * phi, minlength=v_dim) for phi in store.phi_g])

    beta_l += TOPIC_SMOOTHING
    beta_l /= beta_l.sum(axis=-1, keepdims=True)
    beta_g += TOPIC_SMOOTHING
    beta_g /= beta_g.sum(axis=-1, keepdims=True)
    beta_l[empty] = params.local_topics[empty]

    global_prior = params.global_prior.copy()
    gamma = params.gamma.copy()
    if every_iter:
        global_prior = dirichlet_mle(
            DirichletStats(mean_log=_elog_dir(mu_g).mean(axis=0), num_obs=float(num_docs)),
            init=params.global_prior,
        )
        gamma = dirichlet_mle(
            DirichletStats(mean_log=_elog_dir(lam).mean(axis=0), num_obs=float(num_docs)),
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


def _check_initial(params, states, corpus, config):
    """Check a caller's starting point; returns its states gathered."""
    params.validate()
    shape = ("num_clusters", "local_topics_per_cluster", "num_global_topics")
    if any(getattr(params, name) != getattr(config, name) for name in shape):
        raise DegenerateInputError("initial params disagree with config shape")
    if params.vocab_size != corpus.vocab_size:
        raise DegenerateInputError("initial params disagree with corpus vocabulary")
    store = _as_store(params, corpus.docs, states)
    store.validate()
    return store


def fit(config, corpus, init_labels=None, initial=None, threads=None):
    """Fit the model by variational EM.

    Args:
        config: HyperConfig with shapes and schedule.
        corpus: training Corpus.
        init_labels: cluster labels (array or ClusterLabels), one per
            document; whenever given, the fit starts from them, as
            ``init_model`` describes. Ignored when ``initial`` is given.
        initial: optional (ModelParams, list[DocVariational]) starting
            point of the config's shape over the corpus's vocabulary, one
            state per document; copied, the caller's objects are not mutated.
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

    if corpus.num_docs < 1:
        raise DegenerateInputError("cannot fit an empty corpus")
    if initial is not None:
        params, states = initial
        params = copy.deepcopy(params)
        store = _check_initial(params, states, corpus, config)
    else:
        params, states = init_model(config, corpus, init_labels)
        store = states.store
        del states  # its per-document views are not read again

    log_topics = _log_topics(params)

    def update():
        # in place, so that the partials below see the new parameters
        nonlocal log_topics
        vars(params).update(vars(m_step(params, store, corpus, config)))
        params.validate()
        log_topics = _log_topics(params)

    def batch(docs):
        return _Batch(params, store, docs, log_topics)

    e_step = partial(
        _run_e_step, batch, corpus.num_docs, sweeps=config.e_step_iters, threads=threads
    )
    bound = partial(_corpus_bound, batch, corpus.num_docs)
    report = _run_em(bound, e_step, update, config.max_em_iters, config.elbo_rel_tol)
    return params, DocStates(store), report


def _run_em(bound, e_step, m_step, max_iters, rel_tol):
    """The EM loop of ``fit`` and ``baselines.fit_lda``; returns a FitReport.

    ``bound()`` returns ({term name: total}, per-document bounds), the
    bound being the sum of the terms; ``e_step(start)`` gets the last
    per-document bounds as its start bounds. A decrease beyond
    DECREASE_SLACK relative raises NumericalError; ``rel_tol`` = 0
    disables early stopping.
    """
    start = time.perf_counter()
    terms, doc_bounds = bound()
    trace = [float(sum(terms.values()))]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        e_step(doc_bounds)
        m_step()
        iterations += 1
        terms, doc_bounds = bound()
        value = float(sum(terms.values()))
        prev = trace[-1]
        trace.append(value)
        if value < prev - DECREASE_SLACK * max(1.0, abs(prev)):
            raise NumericalError(
                f"bound decreased from {prev:.10g} to {value:.10g} "
                f"at iteration {iterations}",
                details={
                    "iteration": iterations,
                    "previous": prev,
                    "current": value,
                    "breakdown": terms,
                    "trace": list(trace),
                },
            )
        if rel_tol > 0 and value - prev < rel_tol * max(1.0, abs(prev)):
            converged = True
            break

    return FitReport(
        elbo_trace=trace,
        iterations_run=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )
