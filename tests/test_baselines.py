from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from scipy import sparse

import mgctm.baselines as baselines_mod
import mgctm.corpus as corpus_mod
import mgctm.inference as inference_mod
from mgctm.baselines import (
    LdaModel,
    _dense_csr,
    _LdaBatch,
    _lloyd,
    fit_lda,
    kmeans,
    lda_kmeans,
    lda_naive_cluster,
    theta_kmeans,
)
from mgctm.corpus import Corpus, Document, tfidf_vectors
from mgctm.errors import ConfigError, DegenerateInputError, NumericalError
from mgctm.evaluation import clustering_accuracy
from mgctm.inference import fit
from mgctm.model import HyperConfig


def two_block_corpus(num_docs=30, doc_length=40, seed=0):
    """Documents drawn from two disjoint halves of an eight-word vocabulary."""
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(num_docs):
        half = d % 2
        words = rng.integers(4 * half, 4 * half + 4, doc_length)
        ids, counts = np.unique(words, return_counts=True)
        docs.append(Document(ids, counts, label=half))
    return Corpus(docs=docs, vocab_size=8)


class TestFitLda:
    def test_single_topic_soaks_all_mass(self):
        corpus = two_block_corpus()
        model, report = fit_lda(corpus, 1, seed=0, max_em_iters=10)
        assert model.topics.shape == (1, 8)
        np.testing.assert_allclose(model.topics.sum(axis=1), 1.0, atol=1e-12)
        # With one topic the posterior is deterministic: alpha + N_d.
        np.testing.assert_allclose(
            model.doc_theta[:, 0],
            [0.1 + doc.length for doc in corpus.docs],
            rtol=1e-12,
        )

    def test_two_topics_split_disjoint_halves(self):
        corpus = two_block_corpus()
        model, _ = fit_lda(corpus, 2, seed=0, max_em_iters=40)
        # Each topic should concentrate on one four-word half.
        first_half_mass = model.topics[:, :4].sum(axis=1)
        assert first_half_mass.max() > 0.9
        assert first_half_mass.min() < 0.1

    def test_objective_monotone_without_tolerance(self):
        corpus = two_block_corpus(num_docs=16, seed=3)
        _, report = fit_lda(
            corpus, 3, seed=1, max_em_iters=50, elbo_rel_tol=0.0
        )
        assert report.iterations_run == 50
        assert report.converged is False
        trace = np.array(report.elbo_trace)
        assert trace.size == 51
        assert (
            np.diff(trace) >= -1e-6 * np.maximum(1.0, np.abs(trace[:-1]))
        ).all()

    def test_deterministic_given_seed(self):
        corpus = two_block_corpus(seed=5)
        m1, r1 = fit_lda(corpus, 3, seed=7, max_em_iters=5, elbo_rel_tol=0.0)
        m2, r2 = fit_lda(corpus, 3, seed=7, max_em_iters=5, elbo_rel_tol=0.0)
        np.testing.assert_array_equal(m1.topics, m2.topics)
        np.testing.assert_array_equal(m1.doc_theta, m2.doc_theta)
        assert r1.elbo_trace == r2.elbo_trace
        m3, _ = fit_lda(corpus, 3, seed=8, max_em_iters=5, elbo_rel_tol=0.0)
        assert not np.array_equal(m1.topics, m3.topics)

    def test_convergence_flag(self):
        corpus = two_block_corpus(num_docs=10, seed=2)
        _, report = fit_lda(corpus, 2, seed=0, max_em_iters=100, elbo_rel_tol=1e-3)
        assert report.converged is True
        assert report.iterations_run < 100

    def test_validation_errors(self):
        corpus = two_block_corpus(num_docs=4)
        with pytest.raises(ConfigError):
            fit_lda(corpus, 0)
        with pytest.raises(ConfigError):
            fit_lda(corpus, 2, alpha=0.0)
        with pytest.raises(ConfigError):
            fit_lda(corpus, 2, eta=-0.1)
        with pytest.raises(DegenerateInputError):
            fit_lda(Corpus(docs=[], vocab_size=3), 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            fit_lda(two_block_corpus(num_docs=4), 2, seed=-1)

    @pytest.mark.parametrize(
        "opts", [{"max_em_iters": -1}, {"e_step_iters": -1}, {"elbo_rel_tol": -1e-3}]
    )
    def test_negative_schedule_rejected(self, opts):
        with pytest.raises(ConfigError, match="must be >= 0"):
            fit_lda(two_block_corpus(num_docs=4), 2, **opts)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "eta", "elbo_rel_tol"])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ConfigError, match="must be finite"):
            fit_lda(two_block_corpus(num_docs=4), 2, **{name: value})

    def test_bound_decrease_raises_with_details(self, monkeypatch):
        corpus = two_block_corpus(num_docs=6)
        opts = dict(seed=0, elbo_rel_tol=0.0)
        _, start = fit_lda(corpus, 2, max_em_iters=0, **opts)
        _, one = fit_lda(corpus, 2, max_em_iters=1, **opts)
        real = baselines_mod._LdaBatch.bound
        calls = []

        def lowered(batch):
            # every bound pass after the first reads 1000 lower per document
            calls.append(batch)
            return real(batch) - (1000.0 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(baselines_mod._LdaBatch, "bound", lowered)
        with pytest.raises(NumericalError, match="bound decreased") as err:
            fit_lda(corpus, 2, max_em_iters=3, **opts)
        details = err.value.details
        assert set(details) == {"iteration", "previous", "current", "breakdown", "trace"}
        assert details["iteration"] == 1
        assert details["previous"] == start.elbo_trace[0]
        assert details["current"] == pytest.approx(
            one.elbo_trace[1] - 1000.0 * corpus.num_docs, rel=1e-12
        )
        assert details["trace"] == [details["previous"], details["current"]]
        assert all(type(x) is float for x in details["trace"])

    def test_traces_hold_python_floats(self):
        corpus = two_block_corpus(num_docs=6)
        _, report = fit_lda(corpus, 2, max_em_iters=2)
        _, _, mg_report = fit(HyperConfig(2, 1, 1, max_em_iters=2), corpus)
        for trace in (report.elbo_trace, mg_report.elbo_trace):
            assert len(trace) == 3 and all(type(x) is float for x in trace)


def ragged_corpus(seed=0):
    """Twelve documents of uneven length over a ten-word vocabulary, with
    empty documents first, in the middle and last, and a one-term one."""
    rng = np.random.default_rng(seed)
    empty = Document(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    docs = [empty]
    for d in range(10):
        half = d % 2
        words = rng.integers(5 * half, 5 * half + 5, rng.integers(2, 30))
        words[: words.size // 4] = rng.integers(0, 10, words.size // 4)
        ids, counts = np.unique(words, return_counts=True)
        docs.append(Document(ids, counts))
        if d == 4:
            docs.append(empty)
    docs[3] = Document(np.array([7]), np.array([3]))
    docs.append(empty)
    return Corpus(docs=docs, vocab_size=10)


def fit_recording_sweeps(monkeypatch, corpus, num_topics, **opts):
    """fit_lda plus its per-document sweep counts, (iterations, D)."""
    counts = []
    real = inference_mod._coordinate_ascent

    def recording(*args):
        ran = real(*args)
        counts.append(ran)
        return ran

    monkeypatch.setattr(inference_mod, "_coordinate_ascent", recording)
    model, report = fit_lda(corpus, num_topics, **opts)
    return model, report, np.concatenate(counts).reshape(-1, corpus.num_docs)


class TestLdaMatchesReference:
    @pytest.mark.parametrize(
        "num_topics, chunk_cells, opts",
        [
            (3, None, {}),
            (1, None, {}),
            (3, 30, {}),  # batches of at most 10 rows: 1-2 documents
            (4, None, {"e_step_iters": 0}),
            (4, 40, {"e_step_iters": 1}),
            (4, 80, {"e_step_iters": 3}),  # at most 20 rows: 2-5 documents
        ],
    )
    def test_batched_fit_matches_per_document_loop(
        self, monkeypatch, num_topics, chunk_cells, opts
    ):
        if chunk_cells is not None:
            monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", chunk_cells)
        corpus = ragged_corpus()
        opts = dict(seed=4, max_em_iters=6, elbo_rel_tol=0.0, **opts)
        model, report, sweeps = fit_recording_sweeps(
            monkeypatch, corpus, num_topics, **opts
        )
        ref, ref_report, ref_sweeps = oracles.reference_fit_lda(
            corpus, num_topics, **opts
        )
        np.testing.assert_array_equal(sweeps, ref_sweeps)
        cap = opts.get("e_step_iters", 20)
        if cap == 3:
            # some documents run into the sweep cap, others stop early
            assert (sweeps == cap).any() and (sweeps < cap).any()
        np.testing.assert_allclose(report.elbo_trace, ref_report.elbo_trace, rtol=1e-10)
        np.testing.assert_allclose(model.doc_theta, ref.doc_theta, rtol=1e-10)
        np.testing.assert_allclose(model.topics, ref.topics, rtol=1e-10)
        np.testing.assert_array_equal(lda_naive_cluster(model), lda_naive_cluster(ref))

    @pytest.mark.parametrize("pattern", ["subnormal", "underflow"])
    def test_tiny_topic_entries_match_reference(self, monkeypatch, pattern):
        corpus = ragged_corpus()
        num_topics = 3
        topics = np.random.default_rng(5).dirichlet(np.ones(10), size=num_topics)
        if pattern == "subnormal":
            # one topic nearly absent from most words: subnormal phi entries
            topics[1, 3:] = 1e-320
        else:
            # word 7 nearly absent from every topic: in the first E-step the
            # normalizer of its rows is subnormal, below the floor
            topics[:, 7] = 1e-310
        topics /= topics.sum(axis=1, keepdims=True)
        monkeypatch.setattr(
            baselines_mod, "perturbed_uniform_rows", lambda shape, rng: topics.copy()
        )
        softmax_rows = []
        real = _LdaBatch._softmax_rows

        def recording(batch, rows, elog):
            softmax_rows.append(rows.size)
            return real(batch, rows, elog)

        monkeypatch.setattr(_LdaBatch, "_softmax_rows", recording)
        opts = dict(seed=4, max_em_iters=4, elbo_rel_tol=0.0)
        # the suite turns any RuntimeWarning (an inf or NaN on the way) into an error
        model, report, sweeps = fit_recording_sweeps(
            monkeypatch, corpus, num_topics, **opts
        )
        ref, ref_report, ref_sweeps = oracles.reference_fit_lda(
            corpus, num_topics, topics=topics.copy(), **opts
        )
        # the underflow rule ran exactly when the pattern forces it
        assert bool(softmax_rows) == (pattern == "underflow")
        assert np.isfinite(report.elbo_trace).all()
        assert np.isfinite(model.doc_theta).all() and np.isfinite(model.topics).all()
        np.testing.assert_array_equal(sweeps, ref_sweeps)
        np.testing.assert_allclose(report.elbo_trace, ref_report.elbo_trace, rtol=1e-10)
        np.testing.assert_allclose(model.doc_theta, ref.doc_theta, rtol=1e-10)
        np.testing.assert_allclose(model.topics, ref.topics, rtol=1e-10)

    def test_collapsed_sweep_bound_equals_full_bound(self):
        rng = np.random.default_rng(11)
        num_topics, v_dim, alpha = 4, 12, 0.05
        topics = rng.dirichlet(np.ones(v_dim), size=num_topics)
        # one topic nearly absent from most words, so that its phi entries
        # there are subnormal or zero
        topics[2, 3:] = 1e-320
        topics /= topics.sum(axis=1, keepdims=True)
        log_beta = np.log(topics).T
        docs = [
            np.array([], dtype=np.int64),
            np.array([5]),
            np.array([0, 1, 2, 3, 7, 11]),
            np.arange(v_dim),
        ]
        counts = [rng.integers(1, 6, d.size).astype(float) for d in docs]
        bounds = np.concatenate([[0], np.cumsum([d.size for d in docs])])
        lb = log_beta[np.concatenate(docs)]
        c = np.concatenate(counts)
        gamma = rng.uniform(0.05, 5.0, (len(docs), num_topics))
        phi = np.full((c.size, num_topics), 1.0 / num_topics)
        store = SimpleNamespace(
            doc_ptr=bounds, words=np.concatenate(docs), counts=c, gamma=gamma, phi=phi
        )
        batch = _LdaBatch(alpha, topics.T, log_beta, store, slice(0, len(docs)))
        np.testing.assert_array_equal(batch.elog, oracles.dir_elog(gamma))
        for _ in range(5):
            bound = batch.sweep()
            gamma, elog, phi = batch.gamma, batch.elog, batch.phi
            np.testing.assert_array_equal(elog, oracles.dir_elog(gamma))
            for d in range(len(docs)):
                rows = slice(bounds[d], bounds[d + 1])
                full = oracles._lda_doc_bound(
                    alpha, num_topics, counts[d], lb[rows], gamma[d], phi[rows]
                )
                assert bound[d] == pytest.approx(full, rel=1e-10)
        assert (phi == 0).any()


class TestLdaNaive:
    def test_argmax_with_tie_toward_lowest(self):
        model = LdaModel(
            topics=np.full((3, 2), 0.5),
            doc_theta=np.array([[1.0, 5.0, 2.0], [4.0, 4.0, 1.0], [0.1, 0.2, 9.0]]),
            alpha=0.1,
        )
        np.testing.assert_array_equal(lda_naive_cluster(model), [1, 0, 2])

    def test_scale_invariance_per_document(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.1, 5.0, (6, 4))
        model = LdaModel(np.full((4, 3), 1 / 3), theta, 0.1)
        scaled = LdaModel(np.full((4, 3), 1 / 3), theta * 7.5, 0.1)
        np.testing.assert_array_equal(
            lda_naive_cluster(model), lda_naive_cluster(scaled)
        )

    def test_separable_corpus_recovered(self):
        corpus = two_block_corpus(num_docs=40, seed=1)
        model, _ = fit_lda(corpus, 2, seed=0, max_em_iters=40)
        labels = lda_naive_cluster(model)
        acc = clustering_accuracy(labels, corpus.labels())
        assert acc >= 0.95


class TestKmeans:
    def separated_points(self, per=20, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 0.3, (per, 2))
        b = rng.normal(8.0, 0.3, (per, 2))
        truth = np.array([0] * per + [1] * per)
        return np.vstack([a, b]), truth

    def test_separable_two_clusters(self):
        points, truth = self.separated_points()
        labels, centers, wcss = kmeans(points, 2, seed=0)
        assert clustering_accuracy(labels, truth) == 1.0
        assert centers.shape == (2, 2)
        assert wcss >= 0.0

    def test_k_equals_n_gives_zero_cost(self):
        rng = np.random.default_rng(3)
        points = rng.normal(0.0, 1.0, (6, 3))
        labels, _, wcss = kmeans(points, 6, seed=0)
        assert wcss <= 1e-12
        assert sorted(labels.tolist()) == list(range(6))

    def test_deterministic_given_seed(self):
        points, _ = self.separated_points(seed=4)
        l1, c1, w1 = kmeans(points, 3, seed=11)
        l2, c2, w2 = kmeans(points, 3, seed=11)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(c1, c2)
        assert w1 == w2

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(9)
        points = rng.normal(0.0, 1.0, (40, 2))
        _, _, w1 = kmeans(points, 4, seed=5, restarts=1)
        _, _, w10 = kmeans(points, 4, seed=5, restarts=10)
        assert w10 <= w1 + 1e-12

    @pytest.mark.parametrize("nnz", [400, 0], ids=["sparse", "all-zero"])
    def test_wide_vocabulary_is_clustered_on_the_used_columns(self, nnz):
        # the same bits as k-means on the points narrowed to the columns
        # they use, the centers widened back with zeros
        rng = np.random.default_rng(12)
        n, v = 40, 10**6
        cols = rng.integers(0, v, nnz)
        points = sparse.csr_array(
            (rng.random(nnz), (rng.integers(0, n, nnz), cols)), shape=(n, v)
        )
        used = np.unique(cols)
        labels, centers, wcss = kmeans(points, 3, seed=2, restarts=2)
        want_labels, narrow_centers, want_wcss = kmeans(points[:, used], 3, seed=2, restarts=2)
        want_centers = np.zeros((3, v))
        want_centers[:, used] = narrow_centers
        np.testing.assert_array_equal(labels, want_labels)
        assert centers.tobytes() == want_centers.tobytes()
        assert wcss == want_wcss

    def test_identical_points_keep_k_clusters_alive(self):
        points = np.ones((5, 2))
        labels, centers, wcss = kmeans(points, 2, seed=0)
        assert wcss == 0.0
        assert set(labels.tolist()) == {0, 1}

    def test_validation_errors(self):
        points = np.zeros((3, 2))
        with pytest.raises(ConfigError, match="2-d"):
            kmeans(np.zeros(3), 1)
        with pytest.raises(ConfigError):
            kmeans(points, 0)
        with pytest.raises(DegenerateInputError, match="fewer points"):
            kmeans(points, 4)
        with pytest.raises(ConfigError):
            kmeans(points, 2, restarts=0)
        with pytest.raises(ConfigError):
            kmeans(points, 2, max_iters=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            kmeans(np.eye(3), 2, seed=-1)

    def test_lloyd_cost_trace_never_increases(self):
        rng = np.random.default_rng(2)
        points = np.vstack(
            [rng.normal(c, 0.5, (15, 3)) for c in (0.0, 5.0, 10.0)]
        )
        csr = sparse.csr_array(points)
        rows = np.repeat(np.arange(points.shape[0]), np.diff(csr.indptr))
        for run_seed in range(5):
            trace = []
            _lloyd(
                csr,
                rows,
                (points * points).sum(axis=1),
                3,
                np.random.default_rng(run_seed),
                100,
                cost_trace=trace,
            )
            diffs = np.diff(np.array(trace))
            assert (diffs <= 1e-9).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_sparse", [False, True], ids=["dense", "sparse"])
    def test_non_finite_points_rejected(self, bad, as_sparse):
        points, _ = self.separated_points()
        points[7, 1] = bad
        if as_sparse:
            points = sparse.csr_array(points)
        with pytest.raises(DegenerateInputError, match="points must be finite"):
            kmeans(points, 2, seed=0)

    def test_sparse_input_with_duplicates_left_untouched(self):
        points, _ = self.separated_points(per=6, seed=3)
        n = points.shape[0]
        # each value stored as two halves, a row's columns out of order
        halves = np.hstack([points, points[:, ::-1]]).ravel() / 2
        csr = sparse.csr_array(
            (halves, np.tile([0, 1, 1, 0], n), 4 * np.arange(n + 1)), shape=points.shape
        )
        coo = sparse.coo_array(
            (halves, (np.repeat(np.arange(n), 4), np.tile([0, 1, 1, 0], n))),
            shape=points.shape,
        )
        want = oracles.reference_kmeans(points, 2, seed=1)
        for given, fields in ((csr, ("data", "indices", "indptr")), (coo, ("data", "row", "col"))):
            before = [getattr(given, f).copy() for f in fields]
            labels, centers, wcss = kmeans(given, 2, seed=1)
            np.testing.assert_array_equal(labels, want[0])
            np.testing.assert_allclose(centers, want[1], rtol=1e-12, atol=0)
            assert wcss == pytest.approx(want[2], rel=1e-12)
            for f, b in zip(fields, before):
                np.testing.assert_array_equal(getattr(given, f), b)
            assert not given.has_canonical_format


def _tfidf_points(corpus):
    return tfidf_vectors(corpus), 3


def _random_points(corpus):
    return np.random.default_rng(21).normal(0.0, 1.0, (60, 4)), 4


def _lda_theta_points(corpus):
    model, _ = fit_lda(corpus, 6, seed=2, max_em_iters=4)
    return model.doc_theta / model.doc_theta.sum(axis=1, keepdims=True), 3


class TestKmeansMatchesDenseReference:
    """The nonzero-based k-means gives the dense loop's labels, and its
    centers and cost to float tolerance, for dense and CSR points."""

    @pytest.mark.parametrize("as_sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("make", [_tfidf_points, _random_points, _lda_theta_points])
    def test_same_labels_centers_and_cost(self, recovery_corpus, make, as_sparse):
        points, k = make(recovery_corpus)
        given = sparse.csr_array(points) if as_sparse else points
        for seed in (0, 5):
            labels, centers, wcss = kmeans(given, k, seed=seed, restarts=3)
            want = oracles.reference_kmeans(points, k, seed=seed, restarts=3)
            np.testing.assert_array_equal(labels, want[0])
            np.testing.assert_allclose(centers, want[1], rtol=1e-12, atol=0)
            assert wcss == pytest.approx(want[2], rel=1e-12)


def _wide_points(corpus):
    # rows wider than the view's scan block, so the scan spans several blocks
    rng = np.random.default_rng(8)
    points = rng.normal(0.0, 1.0, (9, 40_000))
    points[rng.random(points.shape) > 0.01] = 0.0
    return points


class TestKmeansDenseInput:
    @pytest.mark.parametrize("cell", [-0.0, np.nan], ids=["negative-zero", "nan"])
    @pytest.mark.parametrize("make", [tfidf_vectors, _wide_points], ids=["tfidf", "wide"])
    def test_dense_and_csr_input_agree_bitwise(self, recovery_corpus, make, cell):
        points = make(recovery_corpus)
        points[:, -1] = -0.0
        points[4] = 0.0
        points[2, 3] = cell
        view, want = _dense_csr(points), sparse.csr_array(points)
        assert view.data.tobytes() == want.data.tobytes()
        np.testing.assert_array_equal(view.indices, want.indices)
        np.testing.assert_array_equal(view.indptr, want.indptr)
        if np.isnan(cell):
            for given in (points, want):
                with pytest.raises(DegenerateInputError, match="points must be finite"):
                    kmeans(given, 3, seed=0)
            return
        labels, centers, wcss = kmeans(points, 3, seed=0, restarts=3)
        sp_labels, sp_centers, sp_wcss = kmeans(want, 3, seed=0, restarts=3)
        np.testing.assert_array_equal(labels, sp_labels)
        assert centers.tobytes() == sp_centers.tobytes()
        assert wcss == sp_wcss


class TestThetaKmeans:
    def test_clusters_on_normalized_proportions(self):
        theta = np.array(
            [[9.0, 1.0], [90.0, 10.0], [1.0, 9.0], [10.0, 90.0]]
        )
        model = LdaModel(np.full((2, 4), 0.25), theta, 0.1)
        labels = theta_kmeans(model, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_negative_seed_rejected(self):
        model = LdaModel(np.full((2, 4), 0.25), np.ones((3, 2)), 0.1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            theta_kmeans(model, 2, seed=-1)


class TestLdaKmeans:
    def test_separable_corpus_recovered(self):
        corpus = two_block_corpus(num_docs=40, seed=6)
        labels = lda_kmeans(corpus, 2, num_topics=2, seed=0, max_em_iters=40)
        assert clustering_accuracy(labels, corpus.labels()) >= 0.95

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            lda_kmeans(two_block_corpus(num_docs=4), 2, num_topics=2, seed=-1)

    def test_single_cluster(self):
        corpus = two_block_corpus(num_docs=10)
        labels = lda_kmeans(corpus, 1, num_topics=2, seed=0, max_em_iters=10)
        assert set(labels.tolist()) == {0}

    def test_deterministic(self):
        corpus = two_block_corpus(num_docs=14, seed=8)
        a = lda_kmeans(corpus, 2, num_topics=3, seed=2, max_em_iters=8)
        b = lda_kmeans(corpus, 2, num_topics=3, seed=2, max_em_iters=8)
        np.testing.assert_array_equal(a, b)
