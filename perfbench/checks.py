"""Independent correctness checks for every benchmark stage.

Nothing here calls into ``mgctm``: the reference bound, the clustering
scores and the tf-idf rows are recomputed from their definitions, and
no check compares against a stored copy of earlier output. Each check
raises CheckFailed with a message naming what disagreed.
"""

import itertools

import numpy as np
from scipy.special import gammaln, psi, xlogy

BOUND_SLACK = 1e-6  # allowed relative drop of the EM bound per iteration
BOUND_RTOL = 1e-8  # doc_elbo against the reference bound
SIMPLEX_ATOL = 1e-9
TFIDF_TOL = 1e-12
SCORE_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- ingest


def check_corpus_equals(corpus, triples, vocab_size, what):
    """The loaded corpus holds exactly the generator's triples."""
    doc_ids, word_ids, counts = triples
    num_docs = int(doc_ids.max()) + 1
    require(corpus.num_docs == num_docs, f"{what}: {corpus.num_docs} docs, wrote {num_docs}")
    require(corpus.vocab_size == vocab_size, f"{what}: vocab_size {corpus.vocab_size}")
    sizes = np.array([doc.word_ids.size for doc in corpus.docs])
    require(
        np.array_equal(sizes, np.bincount(doc_ids, minlength=num_docs)),
        f"{what}: per-document term counts differ",
    )
    require(
        np.array_equal(np.concatenate([doc.word_ids for doc in corpus.docs]), word_ids),
        f"{what}: word ids differ",
    )
    require(
        np.array_equal(np.concatenate([doc.counts for doc in corpus.docs]), counts),
        f"{what}: counts differ",
    )


def check_labels_equal(labels, expected, what):
    require(np.array_equal(np.asarray(labels), expected), f"{what}: labels differ")


# ----------------------------------------------------------------- bound


def _elog(a):
    return psi(a) - psi(a.sum())


def _log_dir_norm(a):
    return gammaln(a.sum()) - gammaln(a).sum()


def _masked_dot(p, log_q):
    # sum_k p_k log q_k with p_k = 0 contributing nothing
    return (p * np.where(p > 0, log_q, 0.0)).sum(axis=-1)


def reference_doc_bound(params, word_ids, counts, state):
    """Per-document evidence lower bound, written term by term.

    Tokens of one distinct term share their variational factors. A
    cluster the document did not pick keeps a flat Dirichlet reference
    over its local proportions (density Gamma(K)), and a token routed to
    one pathway keeps a uniform reference over the other pathway's topics.
    """
    c = np.asarray(counts, dtype=float)
    j_dim, k_dim = params.local_priors.shape
    r_dim = params.global_prior.shape[0]
    zeta, lam, tau = state.zeta, state.lam, state.tau
    e_coin = _elog(lam)  # E[log omega], E[log(1 - omega)]
    e_glob = _elog(state.mu_global)

    # cluster choice and priors
    total = (zeta * np.where(zeta > 0, np.log(params.pi), 0.0)).sum()
    total += _log_dir_norm(params.gamma) + ((params.gamma - 1.0) * e_coin).sum()
    total += _log_dir_norm(params.global_prior) + (
        (params.global_prior - 1.0) * e_glob
    ).sum()
    # pathway coins
    total += (c * (tau * e_coin[0] + (1.0 - tau) * e_coin[1])).sum()
    # global topic choice and emission
    log_bg = np.log(params.global_topics[:, word_ids]).T
    total += (c * ((1.0 - tau) * (state.phi_global @ e_glob) - tau * np.log(r_dim))).sum()
    total += (c * (1.0 - tau) * _masked_dot(state.phi_global, log_bg)).sum()

    entropy = -xlogy(zeta, zeta).sum()
    entropy -= _log_dir_norm(lam) + ((lam - 1.0) * e_coin).sum()
    entropy -= _log_dir_norm(state.mu_global) + ((state.mu_global - 1.0) * e_glob).sum()
    entropy -= (c * (xlogy(tau, tau) + xlogy(1.0 - tau, 1.0 - tau))).sum()
    entropy -= (c[:, None] * xlogy(state.phi_global, state.phi_global)).sum()

    for j in range(j_dim):
        mu_j = state.mu_local[j]
        e_loc = _elog(mu_j)
        phi_j = state.phi_local[:, j, :]
        prior_j = params.local_priors[j]
        total += zeta[j] * (_log_dir_norm(prior_j) + ((prior_j - 1.0) * e_loc).sum())
        total += (1.0 - zeta[j]) * gammaln(k_dim)
        use = zeta[j] * tau
        total += (c * (use * (phi_j @ e_loc) - (1.0 - use) * np.log(k_dim))).sum()
        log_bl = np.log(params.local_topics[j][:, word_ids]).T
        total += (c * use * _masked_dot(phi_j, log_bl)).sum()
        entropy -= _log_dir_norm(mu_j) + ((mu_j - 1.0) * e_loc).sum()
        entropy -= (c[:, None] * xlogy(phi_j, phi_j)).sum()
    return float(total + entropy)


def symmetric_state(params, num_terms, state_type):
    """The start state infer_doc_states documents: all factors uniform."""
    j_dim, k_dim = params.local_priors.shape
    r_dim = params.global_prior.shape[0]
    return state_type(
        zeta=np.full(j_dim, 1.0 / j_dim),
        lam=np.ones(2),
        mu_local=np.ones((j_dim, k_dim)),
        mu_global=np.ones(r_dim),
        tau=np.full(num_terms, 0.5),
        phi_local=np.full((num_terms, j_dim, k_dim), 1.0 / k_dim),
        phi_global=np.full((num_terms, r_dim), 1.0 / r_dim),
    )


# ----------------------------------------------------------------- train


def check_monotone(trace, what):
    for i in range(1, len(trace)):
        prev = trace[i - 1]
        require(
            trace[i] >= prev - BOUND_SLACK * max(1.0, abs(prev)),
            f"{what}: bound fell from {prev!r} to {trace[i]!r} at iteration {i}",
        )


def check_close(value, reference, rtol, what):
    require(
        abs(value - reference) <= rtol * max(1.0, abs(reference)),
        f"{what}: {value!r} vs reference {reference!r}",
    )


def check_simplex(rows, what):
    rows = np.asarray(rows)
    require(np.all(rows >= 0), f"{what}: negative entries")
    err = np.abs(rows.sum(axis=-1) - 1.0).max()
    require(err <= SIMPLEX_ATOL, f"{what}: rows sum off 1 by {err:.3g}")


def check_same_bits(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    require(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
        f"{what}: arrays differ after the round trip",
    )


# ------------------------------------------------------------- baselines


def check_nearest_center(points, labels, centers, what):
    """Each label names a center at minimal squared distance (to rounding)."""
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for lo in range(0, points.shape[0], 16):  # small blocks keep peak memory low
        block = points[lo : lo + 16]
        for j, center in enumerate(centers):
            d2[lo : lo + 16, j] = ((block - center) ** 2).sum(axis=1)
    own = d2[np.arange(points.shape[0]), labels]
    best = d2.min(axis=1)
    bad = np.flatnonzero(own > best + 1e-9 * np.maximum(1.0, best))
    require(
        bad.size == 0,
        f"{what}: {bad.size} point(s) not at their nearest center (first {bad[:3].tolist()})",
    )


def contingency_table(pred, truth):
    size = int(max(pred.max(), truth.max())) + 1
    table = np.zeros((size, size), dtype=np.int64)
    for p, t in zip(pred.tolist(), truth.tolist()):
        table[p, t] += 1
    return table


def reference_accuracy(pred, truth):
    """Best one-to-one cluster-to-class match, by trying every matching."""
    table = contingency_table(pred, truth)
    size = table.shape[0]
    best = max(
        sum(table[i, perm[i]] for i in range(size))
        for perm in itertools.permutations(range(size))
    )
    return best / table.sum()


def reference_nmi(pred, truth):
    """I(pred; truth) / sqrt(H(pred) H(truth)), natural logs.

    With a zero marginal entropy the ratio is undefined; identical
    partitions then score 1 and anything else 0.
    """
    table = contingency_table(pred, truth).astype(float)
    n = table.sum()
    p_pred, p_truth = table.sum(axis=1) / n, table.sum(axis=0) / n
    h_pred = -xlogy(p_pred, p_pred).sum()
    h_truth = -xlogy(p_truth, p_truth).sum()
    if h_pred == 0.0 or h_truth == 0.0:
        # same partition: the label pairs form a one-to-one matching
        pairs = len(set(zip(pred.tolist(), truth.tolist())))
        same = pairs == len(set(pred.tolist())) == len(set(truth.tolist()))
        return 1.0 if same else 0.0
    joint = table / n
    mask = joint > 0
    mi = (joint[mask] * np.log(joint[mask] / np.outer(p_pred, p_truth)[mask])).sum()
    return mi / np.sqrt(h_pred * h_truth)


def check_scores(pred, truth, ac, score_nmi, what):
    check_close(ac, reference_accuracy(pred, truth), SCORE_TOL, f"{what} accuracy")
    check_close(score_nmi, reference_nmi(pred, truth), SCORE_TOL, f"{what} nmi")


def check_tfidf_rows(weights, triples, num_docs, vocab_size, rows):
    """Rows recomputed as (count / length) * ln(D / df), df over documents."""
    doc_ids, word_ids, counts = triples
    df = np.bincount(word_ids, minlength=vocab_size)
    idf = np.zeros(vocab_size)
    idf[df > 0] = np.log(num_docs / df[df > 0])
    for d in rows:
        sel = doc_ids == d
        row = np.zeros(vocab_size)
        row[word_ids[sel]] = counts[sel] / counts[sel].sum() * idf[word_ids[sel]]
        err = np.abs(weights[d] - row).max()
        require(err <= TFIDF_TOL, f"tf-idf row {d} differs by {err:.3g}")


# ----------------------------------------------------------------- synth


def check_sampled(corpus, hidden, requested):
    lengths = [doc.length for doc in corpus.docs]
    require(lengths == list(requested), "sampled lengths differ from the requested ones")
    for d, (ind, zl, zg) in enumerate(zip(hidden.indicator, hidden.local_z, hidden.global_z)):
        require(ind.size == requested[d], f"synth doc {d}: indicator length")
        local = ind == 1
        require(
            np.all(np.isin(ind, (0, 1)))
            and np.all(zl[local] >= 0)
            and np.all(zg[local] == -1)
            and np.all(zl[~local] == -1)
            and np.all(zg[~local] >= 0),
            f"synth doc {d}: indicator disagrees with local_z/global_z",
        )


def check_same_corpus(loaded, corpus, what):
    require(loaded.num_docs == corpus.num_docs, f"{what}: document count")
    require(loaded.vocab_size == corpus.vocab_size, f"{what}: vocab_size")
    for d, (a, b) in enumerate(zip(loaded.docs, corpus.docs)):
        require(
            np.array_equal(a.word_ids, b.word_ids) and np.array_equal(a.counts, b.counts),
            f"{what}: document {d} differs",
        )
