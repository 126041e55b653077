"""Seeded input generator for the benchmark.

It draws corpora from a multi-grain mixture (cluster-local topics plus
shared background topics) with its own numpy code, so a change to
``mgctm.sample_corpus`` cannot move the inputs of the other stages.

Document lengths are quantiles of the workload's length distribution,
shuffled by the seed, and each document's distinct-term count follows
from its length by Heaps' law (distinct = k * length ** beta). Every
seed therefore gets the same multiset of lengths and distinct-term
counts, so the padded E-step arrays and the amount of work per run do
not depend on the seed. Cluster sizes are balanced for the same reason.
"""

import numpy as np
from scipy.stats import norm


def _zipf_rows(rng, num_rows, vocab_size, exponent, shared_order, jitter):
    """Topic rows with Zipfian rank-frequency over a shuffled vocabulary.

    With ``shared_order`` every row ranks the words in nearly the same
    order (a corpus-wide background); otherwise each row has its own.
    """
    weights = 1.0 / np.arange(1, vocab_size + 1) ** exponent
    base = rng.permutation(vocab_size)
    rows = np.empty((num_rows, vocab_size))
    for i in range(num_rows):
        order = base if shared_order else rng.permutation(vocab_size)
        row = np.empty(vocab_size)
        row[order] = weights
        rows[i] = row * rng.gamma(1.0 / jitter, jitter, size=vocab_size)
    return rows / rows.sum(axis=1, keepdims=True)


def make_params(rng, shape):
    """Generating parameters as plain arrays, keyed like ModelParams."""
    j_dim, k_dim, r_dim, v_dim = shape["J"], shape["K"], shape["R"], shape["V"]
    local = _zipf_rows(rng, j_dim * k_dim, v_dim, shape["zipf"], False, 0.5)
    glob = _zipf_rows(rng, r_dim, v_dim, shape["zipf"], True, 0.5)
    share = shape["local_share"]
    return {
        "pi": np.full(j_dim, 1.0 / j_dim),
        "gamma": np.array([8.0 * share, 8.0 * (1.0 - share)]),
        "local_priors": np.full((j_dim, k_dim), 0.5),
        "global_prior": np.full(r_dim, 0.5),
        "local_topics": local.reshape(j_dim, k_dim, v_dim),
        "global_topics": glob,
    }


def length_quantiles(dist, num_docs):
    """Deterministic lengths: the (i + 0.5) / n quantiles of ``dist``."""
    q = (np.arange(num_docs) + 0.5) / num_docs
    if dist["kind"] == "uniform":
        raw = dist["low"] + q * (dist["high"] - dist["low"])
    else:
        raw = np.exp(dist["mu"] + dist["sigma"] * norm.ppf(q))
        raw = np.minimum(raw, dist["cap"])
    return np.maximum(np.rint(raw).astype(np.int64), 1)


def distinct_terms(dist, lengths):
    """Heaps' law: distinct = k * length ** beta, between 1 and length."""
    raw = np.rint(dist["heaps_k"] * lengths ** dist["heaps_beta"]).astype(np.int64)
    return np.clip(raw, 1, lengths)


def draw_corpus(rng, params, lengths, distinct):
    """Count triples and labels for one corpus.

    Document d gets exactly ``distinct[d]`` distinct terms, drawn without
    replacement in proportion to its word distribution (Gumbel top-k),
    and ``lengths[d]`` tokens: one per term plus a multinomial draw of
    the rest over those terms. Returns (doc_ids, word_ids, counts,
    labels) with 0-based ids, sorted by document then word.
    """
    j_dim = params["pi"].shape[0]
    num_docs = lengths.size
    labels = rng.permutation(np.arange(num_docs) % j_dim)
    order = rng.permutation(num_docs)
    lengths, distinct = lengths[order], distinct[order]
    doc_parts, word_parts, count_parts = [], [], []
    for d in range(num_docs):
        j = labels[d]
        theta_l = rng.dirichlet(params["local_priors"][j])
        theta_g = rng.dirichlet(params["global_prior"])
        omega = rng.beta(*params["gamma"])
        p = omega * (theta_l @ params["local_topics"][j]) + (1.0 - omega) * (
            theta_g @ params["global_topics"]
        )
        keys = np.log(p) + rng.gumbel(size=p.size)
        words = np.sort(np.argpartition(-keys, distinct[d] - 1)[: distinct[d]])
        extra = rng.multinomial(lengths[d] - distinct[d], p[words] / p[words].sum())
        doc_parts.append(np.full(words.size, d))
        word_parts.append(words)
        count_parts.append(1 + extra)
    return (
        np.concatenate(doc_parts),
        np.concatenate(word_parts),
        np.concatenate(count_parts),
        labels.astype(np.int64),
    )


def write_bow(path, num_docs, vocab_size, doc_ids, word_ids, counts):
    """Header plus 1-based ``doc word count`` lines, as load_bow reads."""
    body = np.column_stack([doc_ids + 1, word_ids + 1, counts])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{num_docs} {vocab_size} {doc_ids.size}\n")
        np.savetxt(fh, body, fmt="%d")


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(x)) for x in labels) + "\n")
