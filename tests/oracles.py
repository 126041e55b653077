"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the model's definition with
plain formulas, scalar loops, and generic numerical tools (quadrature,
derivative-free maximization, grid search). None of the package's
inference code is reused; the only package imports are data containers
and the stopping tolerances the package's loops share. The one exception
is ``reference_coordinate_ascent``: it drives the package's own block
updates and full bound, so that the E-step's collapsed per-sweep bound
can be checked against the loop it replaced.
Tests compare package outputs against these references.
"""

import math
from itertools import permutations

import numpy as np
from scipy import integrate
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gammaln, psi, xlogy

from mgctm.baselines import LdaModel
from mgctm.corpus import Corpus, Document
from mgctm.errors import ConfigError, DegenerateInputError, NumericalError
from mgctm.inference import DECREASE_SLACK, DOC_SWEEP_REL_TOL, E_STEP_BLOCKS, _Batch
from mgctm.model import (
    DocVariational,
    FitReport,
    HiddenAssignments,
    ModelParams,
    VariationalStore,
)


def _plogp(p):
    p = float(p)
    return p * math.log(p) if p > 0.0 else 0.0


def _wavg(weights, values):
    """Weighted sum where zero weights kill infinite values."""
    return sum(float(w) * float(x) for w, x in zip(weights, values) if w > 0)


def _log0(x):
    """Elementwise log that returns -inf at 0 without warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def dir_elog(conc):
    """E[log x] under a Dirichlet, along the last axis."""
    conc = np.asarray(conc, dtype=float)
    return psi(conc) - psi(conc.sum(axis=-1, keepdims=True))


def dir_expected_logpdf(conc, elog):
    """E[log Dirichlet(x; conc)] given E[log x]."""
    conc = np.asarray(conc, dtype=float)
    elog = np.asarray(elog, dtype=float)
    return float(
        gammaln(conc.sum()) - gammaln(conc).sum() + ((conc - 1.0) * elog).sum()
    )


# ---------------------------------------------------------------------------
# Evidence lower bound, assembled term by term from the generative story.
# Clusters a document does not select keep a flat Dirichlet reference over
# their local proportions; word slots routed to one pathway keep a uniform
# reference over the other pathway's topic choice.
# ---------------------------------------------------------------------------


def reference_doc_bound(params, doc, state):
    """Per-document evidence lower bound (scalar-loop reference)."""
    num_j = params.num_clusters
    num_k = params.local_topics_per_cluster
    num_r = params.num_global_topics
    zeta = np.asarray(state.zeta, dtype=float)
    elog_w = dir_elog(state.lam)
    elog_l = dir_elog(state.mu_local)
    elog_g = dir_elog(state.mu_global)
    log_k = math.log(num_k)
    log_r = math.log(num_r)

    total = _wavg(zeta, _log0(np.asarray(params.pi, dtype=float)))
    total += dir_expected_logpdf(params.gamma, elog_w)
    for j in range(num_j):
        total += zeta[j] * dir_expected_logpdf(params.local_priors[j], elog_l[j])
        total += (1.0 - zeta[j]) * float(gammaln(num_k))
    total += dir_expected_logpdf(params.global_prior, elog_g)

    for pos in range(doc.word_ids.size):
        w = int(doc.word_ids[pos])
        cnt = float(doc.counts[pos])
        t = float(state.tau[pos])
        total += cnt * (t * elog_w[0] + (1.0 - t) * elog_w[1])
        for j in range(num_j):
            live = zeta[j] * t
            row = np.asarray(state.phi_local[pos, j], dtype=float)
            total += cnt * live * float(row @ elog_l[j])
            total -= cnt * (1.0 - live) * log_k
            if live > 0:
                total += cnt * live * _wavg(
                    row, _log0(params.local_topics[j, :, w])
                )
        g_row = np.asarray(state.phi_global[pos], dtype=float)
        total += cnt * (1.0 - t) * float(g_row @ elog_g)
        total -= cnt * t * log_r
        if t < 1.0:
            total += cnt * (1.0 - t) * _wavg(
                g_row, _log0(params.global_topics[:, w])
            )
        total -= cnt * (_plogp(t) + _plogp(1.0 - t))
        total -= cnt * sum(_plogp(p) for p in state.phi_local[pos].ravel())
        total -= cnt * sum(_plogp(p) for p in g_row)

    total -= sum(_plogp(z) for z in zeta)
    total -= dir_expected_logpdf(state.lam, elog_w)
    for j in range(num_j):
        total -= dir_expected_logpdf(state.mu_local[j], elog_l[j])
    total -= dir_expected_logpdf(state.mu_global, elog_g)
    return float(total)


def reference_corpus_bound(params, corpus, states):
    return sum(
        reference_doc_bound(params, doc, st) for doc, st in zip(corpus.docs, states)
    )


def reference_coordinate_ascent(
    params, store, docs, sweeps, rel_tol=DOC_SWEEP_REL_TOL
):
    """Coordinate sweeps with per-document early exit, in place.

    The E-step loop on per-document objects, with a full bound after
    every sweep, run on documents ``docs`` (a slice) of ``store``. Each
    document's state is copied out of the store into its own
    DocVariational. Each sweep applies ``_Batch.update`` over
    E_STEP_BLOCKS to a batch stacked from the running documents' objects,
    then ``_Batch.bound()`` (the sum of bound_terms) decides which
    documents stop. When one stops, every running state is copied back
    out of the batch and checked on its own, and the batch is restacked
    from the documents still running. At the end each object is copied
    into the store. Returns per-document sweep counts.
    """
    shape = (
        params.num_clusters,
        params.local_topics_per_cluster,
        params.num_global_topics,
    )
    index = range(store.num_docs)[docs]
    doc_objs = [
        Document(
            store.words[store.doc_ptr[i] : store.doc_ptr[i + 1]],
            store.counts[store.doc_ptr[i] : store.doc_ptr[i + 1]],
        )
        for i in index
    ]
    states = [store.state(i).copy() for i in index]
    running = np.arange(len(index))
    ran = np.zeros(len(index), dtype=np.int64)
    done = 0
    prev = None
    while running.size and done < sweeps:
        stacked = VariationalStore.gather(
            [doc_objs[i] for i in running], [states[i] for i in running], *shape
        )
        batch = _Batch(params, stacked)
        if prev is None:
            prev = batch.bound()
        keep = np.ones(running.size, dtype=bool)
        while keep.all() and done < sweeps:
            for block in E_STEP_BLOCKS:
                batch.update(block)
            done += 1
            ran[running] += 1
            val = batch.bound()
            keep = val - prev >= rel_tol * np.maximum(1.0, np.abs(prev))
            prev = val
        batch.scatter()
        for k, i in enumerate(running):
            vars(states[i]).update(vars(stacked.state(k).copy()))
            states[i].validate()
        running, prev = running[keep], prev[keep]
    for i, state in zip(index, states):
        view = store.state(i)
        for name, arr in vars(view).items():
            arr[...] = getattr(state, name)
    return ran


# ---------------------------------------------------------------------------
# Generic numerical maximizers on transformed domains.
# ---------------------------------------------------------------------------

_NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000}


def _embed_simplex(y):
    z = np.concatenate(([0.0], np.clip(y, -18.0, 18.0)))
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


def maximize_over_simplex(f, dim, rng, extra_starts=2):
    """Derivative-free maximization of f over the probability simplex."""
    if dim == 1:
        p = np.ones(1)
        return p, f(p)
    starts = [np.zeros(dim - 1)]
    starts += [rng.normal(0.0, 2.0, dim - 1) for _ in range(extra_starts)]
    best = None
    for y0 in starts:
        res = minimize(
            lambda y: -f(_embed_simplex(y)), y0, method="Nelder-Mead",
            options=_NM_OPTIONS,
        )
        p = _embed_simplex(res.x)
        val = f(p)
        if best is None or val > best[1]:
            best = (p, val)
    return best


def maximize_over_positive(f, dim, rng, extra_starts=2, log_bound=9.0):
    """Derivative-free maximization of f over the positive orthant."""
    starts = [np.zeros(dim)]
    starts += [rng.normal(0.0, 1.0, dim) for _ in range(extra_starts)]
    best = None
    for y0 in starts:
        res = minimize(
            lambda y: -f(np.exp(np.clip(y, -log_bound, log_bound))), y0,
            method="Nelder-Mead", options=_NM_OPTIONS,
        )
        x = np.exp(np.clip(res.x, -log_bound, log_bound))
        val = f(x)
        if best is None or val > best[1]:
            best = (x, val)
    return best


def maximize_over_unit_interval(f):
    res = minimize_scalar(
        lambda t: -f(float(t)),
        bounds=(1e-12, 1.0 - 1e-12),
        method="bounded",
        options={"xatol": 1e-13},
    )
    t = float(res.x)
    return t, f(t)


# ---------------------------------------------------------------------------
# Numerical block maximizers for the per-document bound. Each block's rows
# enter the bound additively, so rows are maximized independently; the
# tests cross-check the result against the full reference bound value.
# ---------------------------------------------------------------------------


def numeric_block_argmax(params, doc, state, block, rng):
    """Maximize the document bound over one coordinate block numerically.

    Returns a new state with that block replaced by the numerical argmax
    (all other coordinates held at ``state``'s values).
    """
    out = state.copy()
    num_j = params.num_clusters
    num_k = params.local_topics_per_cluster
    num_r = params.num_global_topics
    m = doc.word_ids.size
    elog_l = dir_elog(state.mu_local)
    elog_g = dir_elog(state.mu_global)
    elog_w = dir_elog(state.lam)
    log_k = math.log(num_k)
    log_r = math.log(num_r)
    c = doc.counts.astype(float)
    lbl = np.stack(
        [np.log(params.local_topics[:, :, int(w)]) for w in doc.word_ids]
    )  # (M, J, K)
    lbg = np.stack(
        [np.log(params.global_topics[:, int(w)]) for w in doc.word_ids]
    )  # (M, R)

    if block == "phi_local":
        for pos in range(m):
            for j in range(num_j):
                live = float(state.zeta[j] * state.tau[pos])
                x = elog_l[j] + lbl[pos, j]

                def f(row, live=live, x=x, cnt=c[pos]):
                    return cnt * (
                        live * float(row @ x) - sum(_plogp(r) for r in row)
                    )

                row, _ = maximize_over_simplex(f, num_k, rng)
                out.phi_local[pos, j] = row
    elif block == "phi_global":
        for pos in range(m):
            live = 1.0 - float(state.tau[pos])
            x = elog_g + lbg[pos]

            def f(row, live=live, x=x, cnt=c[pos]):
                return cnt * (live * float(row @ x) - sum(_plogp(r) for r in row))

            row, _ = maximize_over_simplex(f, num_r, rng)
            out.phi_global[pos] = row
    elif block == "tau":
        for pos in range(m):
            local_gain = sum(
                float(state.zeta[j])
                * (float(state.phi_local[pos, j] @ (elog_l[j] + lbl[pos, j])) + log_k)
                for j in range(num_j)
            )
            global_gain = float(state.phi_global[pos] @ (elog_g + lbg[pos]))

            def f(t, lg=local_gain, gg=global_gain, cnt=c[pos]):
                return cnt * (
                    t * elog_w[0]
                    + (1.0 - t) * elog_w[1]
                    + t * lg
                    + (1.0 - t) * gg
                    - t * log_r
                    - _plogp(t)
                    - _plogp(1.0 - t)
                )

            t, _ = maximize_over_unit_interval(f)
            out.tau[pos] = t
    elif block == "mu_local":
        for j in range(num_j):
            zj = float(state.zeta[j])
            load = np.zeros(num_k)
            for pos in range(m):
                load += c[pos] * float(state.tau[pos]) * zj * np.asarray(
                    state.phi_local[pos, j], dtype=float
                )
            alpha_j = params.local_priors[j]

            def f(mu, zj=zj, load=load, alpha_j=alpha_j):
                e = dir_elog(mu)
                return (
                    zj * dir_expected_logpdf(alpha_j, e)
                    + float(load @ e)
                    - dir_expected_logpdf(mu, e)
                )

            mu, _ = maximize_over_positive(f, num_k, rng)
            out.mu_local[j] = mu
    elif block == "mu_global":
        load = np.zeros(num_r)
        for pos in range(m):
            load += c[pos] * (1.0 - float(state.tau[pos])) * np.asarray(
                state.phi_global[pos], dtype=float
            )

        def f(mu):
            e = dir_elog(mu)
            return (
                dir_expected_logpdf(params.global_prior, e)
                + float(load @ e)
                - dir_expected_logpdf(mu, e)
            )

        mu, _ = maximize_over_positive(f, num_r, rng)
        out.mu_global = mu
    elif block == "lam":
        n_local = float((c * np.asarray(state.tau)).sum())
        n_global = float(c.sum()) - n_local

        def f(lam):
            e = dir_elog(lam)
            return (
                dir_expected_logpdf(params.gamma, e)
                + n_local * e[0]
                + n_global * e[1]
                - dir_expected_logpdf(lam, e)
            )

        lam, _ = maximize_over_positive(f, 2, rng)
        out.lam = lam
    elif block == "zeta":
        gains = np.empty(num_j)
        for j in range(num_j):
            g = (
                math.log(float(params.pi[j]))
                + dir_expected_logpdf(params.local_priors[j], elog_l[j])
                - float(gammaln(num_k))
            )
            for pos in range(m):
                g += (
                    c[pos]
                    * float(state.tau[pos])
                    * (
                        float(state.phi_local[pos, j] @ (elog_l[j] + lbl[pos, j]))
                        + log_k
                    )
                )
            gains[j] = g

        def f(z):
            return float(z @ gains) - sum(_plogp(x) for x in z)

        z, _ = maximize_over_simplex(f, num_j, rng)
        out.zeta = z
    else:
        raise ValueError(f"unknown block {block!r}")
    return out


# ---------------------------------------------------------------------------
# Numerical maximizers for the corpus-level parameter pieces.
# ---------------------------------------------------------------------------


def collect_corpus_stats(params, docs, states):
    """Expected-count statistics the corpus bound depends on (plain loops)."""
    num_j = params.num_clusters
    num_k = params.local_topics_per_cluster
    num_r = params.num_global_topics
    num_v = params.vocab_size
    zeta_sum = np.zeros(num_j)
    load_local = np.zeros((num_j, num_k, num_v))
    load_global = np.zeros((num_r, num_v))
    for doc, st in zip(docs, states):
        zeta_sum += np.asarray(st.zeta, dtype=float)
        for pos in range(doc.word_ids.size):
            w = int(doc.word_ids[pos])
            cnt = float(doc.counts[pos])
            t = float(st.tau[pos])
            for j in range(num_j):
                load_local[j, :, w] += cnt * float(st.zeta[j]) * t * np.asarray(
                    st.phi_local[pos, j], dtype=float
                )
            load_global[:, w] += cnt * (1.0 - t) * np.asarray(
                st.phi_global[pos], dtype=float
            )
    return zeta_sum, load_local, load_global


def numeric_mixture_weights(zeta_sum, rng):
    """Numerically maximize the cluster-choice term over the mixture."""

    def f(p):
        return _wavg(zeta_sum, np.log(p))

    return maximize_over_simplex(f, zeta_sum.size, rng)[0]


def numeric_topic_row(load_row, rng):
    """Numerically maximize a word-emission term over one topic row.

    Coordinates with zero expected count are exactly zero at the optimum
    and are fixed there; the rest are maximized over the sub-simplex.
    """
    support = np.flatnonzero(load_row > 0)
    row = np.zeros(load_row.size)
    if support.size == 0:
        raise ValueError("topic row has no support")
    if support.size == 1:
        row[support[0]] = 1.0
        return row
    weights = load_row[support]

    def f(sub):
        return sum(
            float(wt) * math.log(float(p)) if p > 0 else -math.inf
            for wt, p in zip(weights, sub)
        )

    sub, _ = maximize_over_simplex(f, support.size, rng)
    row[support] = sub
    return row


def numeric_prior_vector(weighted_elogs, rng):
    """Numerically maximize sum_d w_d * E[log Dir(x_d; a)] over a > 0.

    weighted_elogs is a list of (weight, elog_vector) pairs.
    """
    dim = weighted_elogs[0][1].size

    def f(alpha):
        return sum(
            w * dir_expected_logpdf(alpha, e) for w, e in weighted_elogs if w > 0
        )

    return maximize_over_positive(f, dim, rng)[0]


# ---------------------------------------------------------------------------
# Exact document log-likelihood on tiny shapes, via enumeration over the
# cluster choice and quadrature over the continuous latents.
# ---------------------------------------------------------------------------


def _beta_pdf(x, a, b, log_norm):
    """Beta density from a precomputed log normalizing constant."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp(
        (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm
    )


def _log_beta(a, b):
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def exact_doc_loglik_single_topic(params, doc):
    """log p(doc) when each cluster has one local topic and there is one
    global topic. The topic proportions are then degenerate, so only the
    pathway coin needs quadrature."""
    g1, g2 = float(params.gamma[0]), float(params.gamma[1])
    lb_coin = _log_beta(g1, g2)
    total = 0.0
    for j in range(params.num_clusters):
        bl = params.local_topics[j, 0]
        bg = params.global_topics[0]

        def integrand(om, bl=bl, bg=bg):
            dens = _beta_pdf(om, g1, g2, lb_coin)
            for pos in range(doc.word_ids.size):
                w = int(doc.word_ids[pos])
                cnt = int(doc.counts[pos])
                dens *= (om * float(bl[w]) + (1.0 - om) * float(bg[w])) ** cnt
            return dens

        val, _ = integrate.quad(
            integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400
        )
        total += float(params.pi[j]) * val
    return math.log(total)


def exact_doc_loglik_two_global(params, doc):
    """log p(doc) with one local topic per cluster and two global topics:
    quadrature over the coin and the global proportion."""
    g1, g2 = float(params.gamma[0]), float(params.gamma[1])
    a1, a2 = float(params.global_prior[0]), float(params.global_prior[1])
    lb_coin = _log_beta(g1, g2)
    lb_share = _log_beta(a1, a2)
    total = 0.0
    for j in range(params.num_clusters):
        bl = params.local_topics[j, 0]
        bg = params.global_topics

        def integrand(s, om, bl=bl, bg=bg):
            dens = _beta_pdf(om, g1, g2, lb_coin) * _beta_pdf(s, a1, a2, lb_share)
            for pos in range(doc.word_ids.size):
                w = int(doc.word_ids[pos])
                cnt = int(doc.counts[pos])
                mix = om * float(bl[w]) + (1.0 - om) * (
                    s * float(bg[0, w]) + (1.0 - s) * float(bg[1, w])
                )
                dens *= mix ** cnt
            return dens

        val, _ = integrate.dblquad(
            integrand, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10, epsrel=1e-9
        )
        total += float(params.pi[j]) * val
    return math.log(total)


# ---------------------------------------------------------------------------
# Clustering-metric references computed straight from contingency counts.
# ---------------------------------------------------------------------------


def contingency_table(pred, truth, k):
    table = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(pred, truth):
        table[int(p), int(t)] += 1
    return table


def accuracy_from_table(table):
    """Best matched fraction over all one-to-one cluster-to-class maps."""
    k = table.shape[0]
    n = int(table.sum())
    best = max(
        sum(int(table[i, perm[i]]) for i in range(k))
        for perm in permutations(range(k))
    )
    return best / n


def _table_is_bijection(table):
    """True when the two labelings induce the same partition."""
    for row in table:
        if int((row > 0).sum()) > 1:
            return False
    for col in table.T:
        if int((col > 0).sum()) > 1:
            return False
    return True


def nmi_from_table(table):
    n = float(table.sum())
    p_pred = table.sum(axis=1) / n
    p_truth = table.sum(axis=0) / n
    h_pred = -sum(_plogp(p) for p in p_pred)
    h_truth = -sum(_plogp(p) for p in p_truth)
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if _table_is_bijection(table) else 0.0
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            pij = table[i, j] / n
            if pij > 0:
                mi += pij * math.log(pij / (p_pred[i] * p_truth[j]))
    return mi / math.sqrt(h_pred * h_truth)


def labels_from_table(table):
    """One concrete (pred, truth) labeling pair realizing the table."""
    pred, truth = [], []
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            pred.extend([i] * int(table[i, j]))
            truth.extend([j] * int(table[i, j]))
    return np.array(pred, dtype=np.int64), np.array(truth, dtype=np.int64)


def all_tables(max_points, k):
    """Every k x k nonnegative integer table with 1..max_points total.

    Any (pred, truth) labeling pair over at most max_points documents
    with labels below k induces exactly one of these tables, and both
    metrics depend on the pair only through it (document order carries
    no information; that reduction is tested separately).
    """
    cells = k * k
    tables = []

    def rec(idx, left, acc):
        if idx == cells - 1:
            acc.append(left)
            tables.append(np.array(acc, dtype=np.int64).reshape(k, k))
            acc.pop()
            return
        for v in range(left + 1):
            acc.append(v)
            rec(idx + 1, left - v, acc)
            acc.pop()

    for n in range(1, max_points + 1):
        rec(0, n, [])
    return tables


# ---------------------------------------------------------------------------
# Grid-search estimator for a two-component Dirichlet (Beta) prior.
# ---------------------------------------------------------------------------


def beta_grid_mle(mean_log, step=1e-3, hi=10.0, chunk=250):
    """Arg-max of the Beta expected log-likelihood over a (0, hi]^2 grid.

    The per-observation objective is
    log G(a+b) - log G(a) - log G(b) + (a-1) mean_log[0] + (b-1) mean_log[1];
    gamma-log values are precomputed on the axis and on the a+b lattice,
    so the full 1e-3 grid is scanned exactly.
    """
    m = int(round(hi / step))
    axis = np.arange(1, m + 1) * step
    lg_axis = gammaln(axis)
    lattice = np.arange(2, 2 * m + 1) * step
    lg_sum = gammaln(lattice)
    p, q = float(mean_log[0]), float(mean_log[1])
    best_val = -np.inf
    best_ab = None
    cols = np.arange(m)
    for lo in range(0, m, chunk):
        hi_i = min(lo + chunk, m)
        rows = np.arange(lo, hi_i)
        idx = rows[:, None] + cols[None, :]
        vals = (
            lg_sum[idx]
            - lg_axis[rows][:, None]
            - lg_axis[None, :]
            + (axis[rows][:, None] - 1.0) * p
            + (axis[None, :] - 1.0) * q
        )
        flat = int(np.argmax(vals))
        r, ccol = divmod(flat, m)
        if vals[r, ccol] > best_val:
            best_val = float(vals[r, ccol])
            best_ab = (float(axis[lo + r]), float(axis[ccol]))
    return np.array(best_ab), best_val


def beta_objective(alpha, mean_log, num_obs=1.0):
    """The same expected log-likelihood, for comparing candidates."""
    alpha = np.asarray(alpha, dtype=float)
    return float(num_obs) * (
        float(gammaln(alpha.sum()) - gammaln(alpha).sum())
        + float(((alpha - 1.0) * np.asarray(mean_log)).sum())
    )


# ---------------------------------------------------------------------------
# Random tiny instances for the oracle comparisons.
# ---------------------------------------------------------------------------


def random_small_params(rng, num_j=None, num_k=None, num_r=None, num_v=None):
    num_j = int(rng.integers(1, 4)) if num_j is None else num_j
    num_k = int(rng.integers(1, 4)) if num_k is None else num_k
    num_r = int(rng.integers(1, 4)) if num_r is None else num_r
    num_v = int(rng.integers(3, 9)) if num_v is None else num_v
    return ModelParams(
        pi=rng.dirichlet(np.full(num_j, 2.0)),
        gamma=rng.uniform(0.6, 3.0, 2),
        local_priors=rng.uniform(0.4, 2.5, (num_j, num_k)),
        global_prior=rng.uniform(0.4, 2.5, num_r),
        local_topics=rng.dirichlet(np.full(num_v, 0.9), size=(num_j, num_k)),
        global_topics=rng.dirichlet(np.full(num_v, 0.9), size=num_r),
    )


def random_small_doc(rng, num_v, max_tokens=6):
    n_d = int(rng.integers(1, max_tokens + 1))
    words = rng.integers(0, num_v, n_d)
    ids, counts = np.unique(words, return_counts=True)
    return Document(ids, counts)


def random_doc_state(params, m, rng):
    return DocVariational(
        zeta=rng.dirichlet(np.full(params.num_clusters, 1.5)),
        lam=rng.uniform(0.5, 4.0, 2),
        mu_local=rng.uniform(
            0.5, 4.0, (params.num_clusters, params.local_topics_per_cluster)
        ),
        mu_global=rng.uniform(0.5, 4.0, params.num_global_topics),
        tau=rng.uniform(0.05, 0.95, m),
        phi_local=rng.dirichlet(
            np.full(params.local_topics_per_cluster, 1.5),
            size=(m, params.num_clusters),
        ),
        phi_global=rng.dirichlet(
            np.full(params.num_global_topics, 1.5), size=m
        ),
    )


def small_instance(seed, **dims):
    """(params, doc, state) triple for one oracle comparison."""
    rng = np.random.default_rng([17, seed])
    params = random_small_params(rng, **dims)
    doc = random_small_doc(rng, params.vocab_size)
    state = random_doc_state(params, doc.word_ids.size, rng)
    return params, doc, state, rng


# ---------------------------------------------------------------------------
# Generative process.
# ---------------------------------------------------------------------------


def reference_sample_corpus(params, num_docs, doc_length, seed=0):
    """Draw a corpus from the generative process, one ``rng.choice`` per token.

    Every categorical variable is drawn with its own ``rng.choice`` call;
    ``sample_corpus`` draws in bulk and must match this bit for bit.

    Per document: cluster ~ Multi(pi); local proportions ~ Dir of the
    chosen cluster's prior; global proportions ~ Dir(global_prior);
    coin bias omega ~ Beta(gamma). Per word: indicator ~ Bern(omega);
    the indicated pathway picks a topic and the topic emits the word.

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
    j_dim = params.num_clusters
    v_dim = params.vocab_size

    docs = []
    clusters = np.empty(num_docs, dtype=np.int64)
    omegas = np.empty(num_docs)
    indicators, local_zs, global_zs = [], [], []
    for d in range(num_docs):
        n_d = doc_length(rng) if callable(doc_length) else int(doc_length)
        if n_d < 1:
            raise ConfigError("document length must be >= 1")
        eta = rng.choice(j_dim, p=params.pi)
        theta_l = rng.dirichlet(params.local_priors[eta])
        theta_g = rng.dirichlet(params.global_prior)
        omega = rng.beta(params.gamma[0], params.gamma[1])

        delta = rng.random(n_d) < omega
        z_l = np.full(n_d, -1, dtype=np.int64)
        z_g = np.full(n_d, -1, dtype=np.int64)
        words = np.empty(n_d, dtype=np.int64)
        for i in range(n_d):
            if delta[i]:
                z = rng.choice(params.local_topics_per_cluster, p=theta_l)
                z_l[i] = z
                words[i] = rng.choice(v_dim, p=params.local_topics[eta, z])
            else:
                z = rng.choice(params.num_global_topics, p=theta_g)
                z_g[i] = z
                words[i] = rng.choice(v_dim, p=params.global_topics[z])

        ids, counts = np.unique(words, return_counts=True)
        docs.append(Document(ids, counts, label=int(eta)))
        clusters[d] = eta
        omegas[d] = omega
        indicators.append(delta.astype(np.int64))
        local_zs.append(z_l)
        global_zs.append(z_g)

    corpus = Corpus(docs=docs, vocab_size=v_dim)
    hidden = HiddenAssignments(clusters, omegas, indicators, local_zs, global_zs)
    return corpus, hidden


# ---------------------------------------------------------------------------
# LDA baseline, one document at a time.
# ---------------------------------------------------------------------------


def _softmax_rows(x):
    """Max-shifted exponentials normalized along the last axis."""
    p = np.exp(x - np.max(x, axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _lda_doc_bound(alpha, num_topics, c, lb, gamma_d, phi):
    # lb: (M, T) log word probabilities for this doc's distinct terms
    elog = psi(gamma_d) - psi(gamma_d.sum())
    t_prior = (
        gammaln(num_topics * alpha)
        - num_topics * gammaln(alpha)
        + (alpha - 1.0) * elog.sum()
    )
    x = elog[None, :] + lb
    t_words = (c[:, None] * phi * np.where(phi > 0, x, 0.0)).sum()
    t_entropy = -dir_expected_logpdf(gamma_d, elog) - (c[:, None] * xlogy(phi, phi)).sum()
    return t_prior + t_words + t_entropy


def reference_fit_lda(
    corpus,
    num_topics,
    seed=0,
    alpha=0.1,
    eta=0.01,
    max_em_iters=100,
    e_step_iters=20,
    elbo_rel_tol=1e-5,
):
    """Fit LDA by variational EM, one document at a time.

    Same algorithm, initialization and stopping rules as
    ``mgctm.baselines.fit_lda``: per document, sweeps of
    phi = softmax(E[log theta] + log topics) and gamma = alpha + c @ phi,
    stopping once a sweep gains less than DOC_SWEEP_REL_TOL relative,
    with the bound recomputed term by term after every sweep.

    Returns (LdaModel, FitReport, sweeps), sweeps being an
    (iterations run, D) array of per-document sweep counts.
    """
    if num_topics < 1:
        raise ConfigError("num_topics must be >= 1")
    if corpus.num_docs < 1:
        raise DegenerateInputError("cannot fit an empty corpus")
    if alpha <= 0 or eta <= 0:
        raise ConfigError("alpha and eta must be > 0")

    num_docs, v_dim = corpus.num_docs, corpus.vocab_size
    rng = np.random.default_rng(seed)
    # perturbed-uniform rows, as the package's init draws them
    topics = (1.0 - 0.05) / v_dim + 0.05 * rng.dirichlet(np.ones(v_dim), size=num_topics)
    counts = [doc.counts.astype(float) for doc in corpus.docs]
    gammas = np.full((num_docs, num_topics), alpha)
    gammas += np.array([c.sum() for c in counts])[:, None] / num_topics
    phis = [np.full((c.size, num_topics), 1.0 / num_topics) for c in counts]

    def objective(log_topics):
        total = eta * log_topics.sum()
        for d, doc in enumerate(corpus.docs):
            lb = log_topics[:, doc.word_ids].T
            total += _lda_doc_bound(
                alpha, num_topics, counts[d], lb, gammas[d], phis[d]
            )
        return total

    log_topics = _log0(topics)
    trace = [objective(log_topics)]
    sweeps = []
    converged = False
    iterations = 0
    for _ in range(max_em_iters):
        weights = np.zeros((num_topics, v_dim))
        ran = np.zeros(num_docs, dtype=np.int64)
        for d, doc in enumerate(corpus.docs):
            c = counts[d]
            lb = log_topics[:, doc.word_ids].T
            gamma_d = gammas[d]
            phi = phis[d]
            prev_bound = _lda_doc_bound(alpha, num_topics, c, lb, gamma_d, phi)
            for _ in range(e_step_iters):
                ran[d] += 1
                elog = psi(gamma_d) - psi(gamma_d.sum())
                phi = _softmax_rows(elog[None, :] + lb)
                gamma_d = alpha + c @ phi
                bound = _lda_doc_bound(alpha, num_topics, c, lb, gamma_d, phi)
                if bound - prev_bound < DOC_SWEEP_REL_TOL * max(1.0, abs(prev_bound)):
                    break
                prev_bound = bound
            gammas[d] = gamma_d
            phis[d] = phi
            weights[:, doc.word_ids] += (c[:, None] * phi).T
        sweeps.append(ran)

        topics = weights + eta
        topics /= topics.sum(axis=-1, keepdims=True)
        log_topics = _log0(topics)
        iterations += 1

        value = objective(log_topics)
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
        wall_time=0.0,
    )
    model = LdaModel(topics=topics, doc_theta=gammas, alpha=alpha)
    return model, report, np.array(sweeps, dtype=np.int64).reshape(-1, num_docs)
