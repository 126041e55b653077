"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [acceptance] line on success; a pytest
failure line takes its place otherwise. The long-running newsgroups
ordering check only runs when real data is supplied via environment
variables, since it needs a corpus that cannot ship with the package.
"""

import itertools
import os
import time

import numpy as np
import pytest

import oracles
from mgctm import (
    Corpus,
    DirichletStats,
    E_STEP_BLOCKS,
    HyperConfig,
    clustering_accuracy,
    dirichlet_mle,
    doc_elbo,
    fit,
    infer_doc_states,
    init_model,
    load_bow,
    m_step,
    nmi,
    predict_cluster,
    update_block,
)
from mgctm.baselines import fit_lda, lda_kmeans, lda_naive_cluster
from mgctm.model import ModelParams

from conftest import RECOVERY_CONFIG


def _ok(label):
    print(f"[acceptance] {label}: PASS")


def test_synthetic_recovery_accuracy_and_runtime(recovery_corpus):
    start = time.perf_counter()
    _, states, report = fit(RECOVERY_CONFIG, recovery_corpus)
    elapsed = time.perf_counter() - start
    pred = np.array([predict_cluster(s) for s in states], dtype=np.int64)
    accuracy = clustering_accuracy(pred, recovery_corpus.labels())
    assert accuracy >= 0.90, f"recovered accuracy {accuracy:.4f} < 0.90"
    assert elapsed <= 60.0, f"fit took {elapsed:.1f}s > 60s"
    assert len(report.elbo_trace) >= 2
    _ok(f"synthetic recovery (accuracy {accuracy:.4f}, {elapsed:.1f}s)")


def test_em_bound_monotone_over_fifty_iterations(recovery_corpus):
    def assert_monotone(trace):
        trace = np.asarray(trace, dtype=float)
        assert trace.size >= 51
        drops = np.diff(trace)
        floor = -1e-6 * np.abs(trace[:-1])
        worst = (drops - floor).min()
        assert np.all(drops >= floor), f"bound fell by more than slack ({worst})"

    configs = [
        HyperConfig(
            num_clusters=3,
            local_topics_per_cluster=3,
            num_global_topics=2,
            max_em_iters=50,
            e_step_iters=2,
            elbo_rel_tol=0.0,
            seed=11,
            prior_update="every_iter",
        ),
        HyperConfig(
            num_clusters=3,
            local_topics_per_cluster=3,
            num_global_topics=2,
            max_em_iters=50,
            e_step_iters=1,
            elbo_rel_tol=0.0,
            seed=12,
            prior_update="fixed",
        ),
    ]
    for config in configs:
        _, _, report = fit(config, recovery_corpus)
        assert_monotone(report.elbo_trace)

    _, lda_report = fit_lda(
        recovery_corpus, 6, seed=3, max_em_iters=50, elbo_rel_tol=0.0
    )
    assert_monotone(lda_report.elbo_trace)
    _ok("EM bound monotone over 50 iterations (two inits + LDA)")


def _small_corpus_instance(seed, num_docs=5):
    rng = np.random.default_rng([41, seed])
    params = oracles.random_small_params(rng)
    docs = [
        oracles.random_small_doc(rng, params.vocab_size) for _ in range(num_docs)
    ]
    states = [
        oracles.random_doc_state(params, doc.word_ids.size, rng) for doc in docs
    ]
    return params, docs, states, rng


def test_e_step_blocks_match_numeric_maximizer():
    for seed in range(24):
        params, doc, state, rng = oracles.small_instance(seed)
        for block in E_STEP_BLOCKS:
            closed = update_block(params, doc, state, block)
            numeric = oracles.numeric_block_argmax(params, doc, state, block, rng)
            # a one-column proportion posterior is the constant vector 1,
            # so the bound is flat in its concentration and only the bound
            # value (not the parameter) identifies the maximizer
            flat = (
                block == "mu_global" and params.num_global_topics == 1
            ) or (
                block == "mu_local" and params.local_topics_per_cluster == 1
            )
            if not flat:
                np.testing.assert_allclose(
                    getattr(closed, block),
                    getattr(numeric, block),
                    atol=1e-4,
                    rtol=0,
                    err_msg=f"seed {seed} block {block}",
                )
            value_closed = oracles.reference_doc_bound(params, doc, closed)
            value_numeric = oracles.reference_doc_bound(params, doc, numeric)
            assert value_closed >= value_numeric - 1e-7, f"seed {seed} block {block}"
            assert abs(value_closed - value_numeric) <= 1e-6, (
                f"seed {seed} block {block}: "
                f"{value_closed} vs {value_numeric}"
            )
    _ok("closed-form coordinate updates match numeric maximizers (24 instances)")


def test_m_step_matches_numeric_maximizer():
    for seed in range(3):
        params, docs, states, rng = _small_corpus_instance(seed)
        corpus = Corpus(docs=docs, vocab_size=params.vocab_size)
        config = HyperConfig(
            num_clusters=params.num_clusters,
            local_topics_per_cluster=params.local_topics_per_cluster,
            num_global_topics=params.num_global_topics,
            prior_update="every_iter",
        )
        new = m_step(params, states, corpus, config)
        zeta_sum, load_local, load_global = oracles.collect_corpus_stats(
            params, docs, states
        )

        numeric_pi = oracles.numeric_mixture_weights(zeta_sum, rng)
        np.testing.assert_allclose(new.pi, numeric_pi, atol=1e-4, rtol=0)
        assert abs(
            oracles._wavg(zeta_sum, np.log(new.pi))
            - oracles._wavg(zeta_sum, np.log(numeric_pi))
        ) <= 1e-6

        def check_row(fitted_row, load_row):
            numeric_row = oracles.numeric_topic_row(load_row, rng)
            np.testing.assert_allclose(fitted_row, numeric_row, atol=1e-4, rtol=0)
            support = load_row > 0
            fitted_val = float(load_row[support] @ np.log(fitted_row[support]))
            numeric_val = float(load_row[support] @ np.log(numeric_row[support]))
            assert abs(fitted_val - numeric_val) <= 1e-6

        for j in range(params.num_clusters):
            for k in range(params.local_topics_per_cluster):
                check_row(new.local_topics[j, k], load_local[j, k])
        for r in range(params.num_global_topics):
            check_row(new.global_topics[r], load_global[r])

        def check_prior(fitted, weighted_elogs):
            numeric = oracles.numeric_prior_vector(weighted_elogs, rng)
            if fitted.size > 1:  # dim-1 priors leave the bound flat
                np.testing.assert_allclose(fitted, numeric, atol=1e-4, rtol=1e-4)
            fitted_val = sum(
                w * oracles.dir_expected_logpdf(fitted, e)
                for w, e in weighted_elogs
            )
            numeric_val = sum(
                w * oracles.dir_expected_logpdf(numeric, e)
                for w, e in weighted_elogs
            )
            assert abs(fitted_val - numeric_val) <= 1e-6

        for j in range(params.num_clusters):
            check_prior(
                new.local_priors[j],
                [
                    (float(st.zeta[j]), oracles.dir_elog(st.mu_local[j]))
                    for st in states
                ],
            )
        check_prior(
            new.global_prior,
            [(1.0, oracles.dir_elog(st.mu_global)) for st in states],
        )
        check_prior(
            new.gamma, [(1.0, oracles.dir_elog(st.lam)) for st in states]
        )
    _ok("M-step updates match numeric maximizers (3 corpus instances)")


def _tiny_two_token_docs():
    from mgctm.corpus import Document

    docs = []
    for a in range(3):
        for b in range(a, 3):
            if a == b:
                docs.append(Document(np.array([a]), np.array([2])))
            else:
                docs.append(Document(np.array([a, b]), np.array([1, 1])))
    return docs


def test_bound_never_exceeds_exact_log_likelihood():
    checked = 0
    for seed in range(4):
        rng = np.random.default_rng([23, seed])
        params = ModelParams(
            pi=rng.dirichlet([2.0, 2.0]),
            gamma=rng.uniform(1.2, 3.0, 2),
            local_priors=rng.uniform(0.5, 2.5, (2, 1)),
            global_prior=rng.uniform(0.5, 2.5, 1),
            local_topics=rng.dirichlet(np.full(3, 0.9), size=(2, 1)),
            global_topics=rng.dirichlet(np.full(3, 0.9), size=1),
        )
        docs = _tiny_two_token_docs()
        corpus = Corpus(docs=docs, vocab_size=3)
        converged = infer_doc_states(params, corpus, sweeps=80)
        for doc, tight_state in zip(docs, converged):
            exact = oracles.exact_doc_loglik_single_topic(params, doc)
            loose_state = oracles.random_doc_state(params, doc.word_ids.size, rng)
            for state in (tight_state, loose_state):
                bound = doc_elbo(params, doc, state)
                assert exact - bound >= -1e-4, (
                    f"seed {seed}: bound {bound} exceeds exact {exact}"
                )
                checked += 1
    assert checked == 48

    # same guarantee when the shared background has two topics
    rng = np.random.default_rng([29, 0])
    params = ModelParams(
        pi=rng.dirichlet([2.0, 2.0]),
        gamma=rng.uniform(1.2, 3.0, 2),
        local_priors=rng.uniform(0.5, 2.5, (2, 1)),
        global_prior=rng.uniform(0.8, 2.5, 2),
        local_topics=rng.dirichlet(np.full(3, 0.9), size=(2, 1)),
        global_topics=rng.dirichlet(np.full(3, 0.9), size=2),
    )
    docs = _tiny_two_token_docs()[:3]
    corpus = Corpus(docs=docs, vocab_size=3)
    for doc, state in zip(docs, infer_doc_states(params, corpus, sweeps=80)):
        exact = oracles.exact_doc_loglik_two_global(params, doc)
        assert exact - doc_elbo(params, doc, state) >= -1e-4
    _ok("variational bound stays below exact log-likelihood (51 checks)")


def test_dirichlet_mle_recovery_and_grid_agreement():
    rng = np.random.default_rng(2025)
    truth = np.array([2.0, 5.0])
    samples = rng.dirichlet(truth, size=100_000)
    stats = DirichletStats(
        mean_log=np.log(samples).mean(axis=0), num_obs=float(samples.shape[0])
    )
    fitted = dirichlet_mle(stats, init=np.ones(2))
    np.testing.assert_allclose(fitted, truth, rtol=0.05)

    grid, grid_value = oracles.beta_grid_mle(stats.mean_log)
    assert np.all(np.abs(fitted - grid) <= 1.5e-3), f"{fitted} vs grid {grid}"
    fitted_value = oracles.beta_objective(fitted, stats.mean_log)
    assert fitted_value >= grid_value - 1e-9
    _ok(f"Dirichlet MLE recovery ({fitted.round(3)}) and 1e-3 grid agreement")


def test_metrics_match_exhaustive_oracles():
    tables = oracles.all_tables(8, 3)
    assert len(tables) == 24309
    for table in tables:
        pred, truth = oracles.labels_from_table(table)
        assert abs(
            clustering_accuracy(pred, truth) - oracles.accuracy_from_table(table)
        ) <= 1e-12
        assert abs(nmi(pred, truth) - oracles.nmi_from_table(table)) <= 1e-10

    # independent raw sweep over every labeling pair of up to 4 points,
    # with no contingency-table deduplication in the loop itself
    pairs = 0
    for n in range(1, 5):
        for pred_t in itertools.product(range(3), repeat=n):
            pred = np.array(pred_t, dtype=np.int64)
            for truth_t in itertools.product(range(3), repeat=n):
                truth = np.array(truth_t, dtype=np.int64)
                table = oracles.contingency_table(pred, truth, 3)
                assert clustering_accuracy(pred, truth) == pytest.approx(
                    oracles.accuracy_from_table(table), abs=1e-12
                )
                assert nmi(pred, truth) == pytest.approx(
                    oracles.nmi_from_table(table), abs=1e-10
                )
                pairs += 1
    assert pairs == 7380
    _ok("metrics match exhaustive oracles (24309 tables + 7380 raw pairs)")


NEWSGROUPS_BOW = os.environ.get("MGCTM_NEWSGROUPS_BOW")
NEWSGROUPS_LABELS = os.environ.get("MGCTM_NEWSGROUPS_LABELS")


@pytest.mark.skipif(
    not (NEWSGROUPS_BOW and NEWSGROUPS_LABELS),
    reason=(
        "directional real-data check; set MGCTM_NEWSGROUPS_BOW and "
        "MGCTM_NEWSGROUPS_LABELS to a 20-class bag-of-words corpus to run"
    ),
)
def test_newsgroups_beats_lda_kmeans_on_nmi():
    corpus = load_bow(NEWSGROUPS_BOW, labels_path=NEWSGROUPS_LABELS)
    truth = corpus.labels()
    assert truth is not None

    lda, _ = fit_lda(corpus, 20, seed=0)
    init_labels = lda_naive_cluster(lda)
    config = HyperConfig(
        num_clusters=20,
        local_topics_per_cluster=10,
        num_global_topics=20,
        seed=0,
    )
    _, states, _ = fit(config, corpus, init_labels=init_labels)
    pred = np.array([predict_cluster(s) for s in states], dtype=np.int64)
    model_nmi = nmi(pred, truth)

    baseline_nmi = nmi(lda_kmeans(corpus, 20, num_topics=60, seed=0), truth)
    assert model_nmi > baseline_nmi
    _ok(f"real-data ordering (nmi {model_nmi:.4f} > lda+kmeans {baseline_nmi:.4f})")


def test_invariants_equivariance_and_determinism(recovery_corpus):
    # parameter and state invariants hold after every coordinate update
    for seed in range(8):
        params, doc, state, _ = oracles.small_instance(seed)
        for block in E_STEP_BLOCKS:
            state = update_block(params, doc, state, block)
            state.validate()

    # and after the corpus-level re-estimation step
    for seed in range(3):
        params, docs, states, _ = _small_corpus_instance(seed)
        corpus = Corpus(docs=docs, vocab_size=params.vocab_size)
        config = HyperConfig(
            num_clusters=params.num_clusters,
            local_topics_per_cluster=params.local_topics_per_cluster,
            num_global_topics=params.num_global_topics,
            prior_update="every_iter",
        )
        m_step(params, states, corpus, config).validate()

    # relabeling the clusters of the starting point relabels the result
    config = HyperConfig(
        num_clusters=3,
        local_topics_per_cluster=3,
        num_global_topics=2,
        max_em_iters=3,
        e_step_iters=2,
        elbo_rel_tol=0.0,
        seed=4,
    )
    params0, states0 = init_model(config, recovery_corpus)
    perm = np.array([2, 0, 1])
    inverse = np.argsort(perm)
    base_params, base_states, base_report = fit(
        config, recovery_corpus, initial=(params0, states0)
    )
    perm_params, perm_states, perm_report = fit(
        config,
        recovery_corpus,
        initial=(
            params0.permute_clusters(perm),
            [s.permute_clusters(perm) for s in states0],
        ),
    )
    np.testing.assert_allclose(
        perm_params.pi, base_params.pi[perm], rtol=1e-7, atol=1e-9
    )
    np.testing.assert_allclose(
        perm_params.local_priors, base_params.local_priors[perm], rtol=1e-6
    )
    np.testing.assert_allclose(
        perm_params.local_topics, base_params.local_topics[perm], rtol=1e-6, atol=1e-12
    )
    np.testing.assert_allclose(
        perm_params.global_topics, base_params.global_topics, rtol=1e-6, atol=1e-12
    )
    np.testing.assert_allclose(
        np.asarray(perm_report.elbo_trace),
        np.asarray(base_report.elbo_trace),
        rtol=1e-9,
    )
    base_pred = np.array([predict_cluster(s) for s in base_states])
    perm_pred = np.array([predict_cluster(s) for s in perm_states])
    np.testing.assert_array_equal(perm_pred, inverse[base_pred])

    # bitwise determinism across repeat runs and across thread counts
    runs = [
        fit(config, recovery_corpus, threads=threads)
        for threads in (None, None, 2, 8)
    ]
    reference_params, reference_states, reference_report = runs[0]
    for other_params, other_states, other_report in runs[1:]:
        assert other_report.elbo_trace == reference_report.elbo_trace
        np.testing.assert_array_equal(other_params.pi, reference_params.pi)
        np.testing.assert_array_equal(
            other_params.local_topics, reference_params.local_topics
        )
        np.testing.assert_array_equal(
            other_params.global_topics, reference_params.global_topics
        )
        for a, b in zip(other_states, reference_states):
            np.testing.assert_array_equal(a.zeta, b.zeta)
            np.testing.assert_array_equal(a.tau, b.tau)
    _ok("invariants, cluster-relabeling equivariance, thread/run determinism")
