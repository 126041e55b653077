import copy
import functools
import gc
import logging
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import mgctm.corpus as corpus_mod
import mgctm.inference as inference_mod
import mgctm.model as model_mod
from mgctm.baselines import _LdaBatch, fit_lda
from mgctm.corpus import flat_docs
from mgctm.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    NumericalError,
)
from mgctm.inference import (
    E_STEP_BLOCKS,
    ELBO_TERM_NAMES,
    TOPIC_SMOOTHING,
    _as_store,
    _Batch,
    _batch_slices,
    _coordinate_ascent,
    _log_topics,
    _run_e_step,
    _symmetric_bounds,
    _symmetric_store,
    doc_elbo,
    e_step_doc,
    elbo,
    elbo_breakdown,
    fit,
    infer_doc_states,
    m_step,
    update_block,
)
from mgctm.model import (
    SIMPLEX_ATOL,
    DocStates,
    DocVariational,
    HyperConfig,
    ModelParams,
    init_model,
    random_model_params,
    sample_corpus,
)
from mgctm.corpus import Corpus, Document
from mgctm.serialize import save_model


def small_fit_corpus(seed=0, num_docs=20, doc_length=25):
    params = random_model_params(2, 2, 2, 12, seed=seed)
    corpus, _ = sample_corpus(params, num_docs, doc_length, seed=seed)
    return corpus


STATE_FIELDS = (
    "zeta", "lam", "mu_local", "mu_global", "tau", "phi_local", "phi_global",
)


def batch_of(params, docs, states):
    # one E-step working set over copies of the given states
    return _Batch(params, _as_store(params, docs, states))


def force_corpus_bounds(monkeypatch, values):
    """Make fit's corpus bound read ``values`` in turn: each value sits in
    the first term, the other terms read 0, and the per-document bounds
    are the real ones."""
    real = inference_mod._corpus_bound
    values = iter(values)

    def forced(*args):
        terms, doc_bounds = real(*args)
        terms = dict.fromkeys(terms, 0.0)
        terms[ELBO_TERM_NAMES[0]] = next(values)
        return terms, doc_bounds

    monkeypatch.setattr(inference_mod, "_corpus_bound", forced)


def assert_states_equal(got, want, context=None):
    for field in STATE_FIELDS:
        np.testing.assert_array_equal(
            getattr(got, field), getattr(want, field), err_msg=f"{field} {context}"
        )


class TestDocBound:
    def test_matches_independent_reference(self):
        for seed in range(30):
            params, doc, state, _ = oracles.small_instance(seed)
            ref = oracles.reference_doc_bound(params, doc, state)
            got = doc_elbo(params, doc, state)
            assert math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-8), seed

    def test_corpus_bound_is_sum_of_document_bounds(self):
        corpus = small_fit_corpus()
        cfg = HyperConfig(2, 2, 2, seed=1)
        params, states = init_model(cfg, corpus)
        total = elbo(params, states, corpus)
        per_doc = sum(
            doc_elbo(params, doc, st) for doc, st in zip(corpus.docs, states)
        )
        assert math.isclose(total, per_doc, rel_tol=1e-12)

    def test_breakdown_terms_sum_to_bound(self):
        corpus = small_fit_corpus(seed=3)
        cfg = HyperConfig(3, 2, 2, seed=4)
        params, states = init_model(cfg, corpus)
        breakdown = elbo_breakdown(params, states, corpus)
        assert tuple(breakdown) == ELBO_TERM_NAMES
        assert math.isclose(
            sum(breakdown.values()), elbo(params, states, corpus), rel_tol=1e-12
        )

    def test_exact_zero_probabilities_are_neutral(self):
        # Hard zeros in pi, tau, responsibilities, and topic rows must
        # contribute exactly zero, not NaN, matching the reference.
        local = np.zeros((2, 2, 4))
        local[0, 0] = [0.5, 0.5, 0.0, 0.0]
        local[0, 1] = [0.0, 0.0, 0.5, 0.5]
        local[1] = 0.25
        glob = np.array([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        params = ModelParams(
            pi=np.array([1.0, 0.0]),
            gamma=np.array([2.0, 1.0]),
            local_priors=np.full((2, 2), 1.5),
            global_prior=np.full(2, 0.8),
            local_topics=local,
            global_topics=glob,
        )
        doc = Document([0, 2], [2, 1])
        state = DocVariational(
            zeta=np.array([1.0, 0.0]),
            lam=np.array([2.0, 1.0]),
            mu_local=np.full((2, 2), 1.3),
            mu_global=np.array([0.7, 1.9]),
            tau=np.array([1.0, 0.0]),
            phi_local=np.array(
                [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
            ),
            phi_global=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        got = doc_elbo(params, doc, state)
        ref = oracles.reference_doc_bound(params, doc, state)
        assert np.isfinite(got)
        assert math.isclose(got, ref, rel_tol=1e-10, abs_tol=1e-9)


class TestBlockUpdates:
    def test_unknown_block_rejected(self):
        params, doc, state, _ = oracles.small_instance(0)
        with pytest.raises(ValueError, match="unknown"):
            update_block(params, doc, state, "sigma")

    def test_each_block_never_decreases_bound(self):
        for seed in range(15):
            params, doc, state, _ = oracles.small_instance(seed)
            for block in E_STEP_BLOCKS:
                before = doc_elbo(params, doc, state)
                trial = state.copy()
                update_block(params, doc, trial, block)
                trial.validate()
                after = doc_elbo(params, doc, trial)
                slack = 1e-9 * max(1.0, abs(before))
                assert after >= before - slack, (seed, block)

    def test_sweep_is_blocks_applied_in_order(self):
        for seed in range(10):
            params, doc, state, _ = oracles.small_instance(seed)
            by_blocks = state.copy()
            for block in E_STEP_BLOCKS:
                update_block(params, doc, by_blocks, block)
            by_sweep = state.copy()
            e_step_doc(params, doc, by_sweep, sweeps=1, rel_tol=0.0)
            assert_states_equal(by_sweep, by_blocks, seed)

    def test_batch_sweep_is_blocks_applied_per_document(self):
        # One sweep over a batch of several documents, an empty one among
        # them, equals each document's blocks applied on their own.
        for seed in range(6):
            rng = np.random.default_rng([29, seed])
            params = oracles.random_small_params(rng)
            docs = [
                oracles.random_small_doc(rng, params.vocab_size, max_tokens=12)
                for _ in range(4)
            ]
            docs.insert(2, Document([], []))
            states = [
                oracles.random_doc_state(params, doc.word_ids.size, rng)
                for doc in docs
            ]
            store = _as_store(params, docs, states)
            batch = _Batch(params, store, slice(0, 5))
            ran = _coordinate_ascent(batch, None, sweeps=1, rel_tol=0.0)
            np.testing.assert_array_equal(ran, 1)
            swept = [store.state(i) for i in range(5)]
            for doc, st, got in zip(docs, states, swept):
                alone = st.copy()
                for block in E_STEP_BLOCKS:
                    update_block(params, doc, alone, block)
                assert_states_equal(got, alone, seed)

    def test_zero_tau_on_word_a_local_topic_cannot_emit(self):
        # tau = 0 makes phi_local uniform, so phi_local . x_local is -inf
        # where a local topic has beta = 0; the cluster logit weights it
        # by counts * tau = 0, which must count as 0, not NaN.
        local = np.full((1, 2, 2), 0.5)
        local[0, 1] = [0.0, 1.0]
        params = ModelParams(
            pi=np.ones(1),
            gamma=np.ones(2),
            local_priors=np.ones((1, 2)),
            global_prior=np.ones(2),
            local_topics=local,
            global_topics=np.full((2, 2), 0.5),
        )
        doc = Document([0], [3])
        state = DocVariational(
            zeta=np.ones(1),
            lam=np.ones(2),
            mu_local=np.ones((1, 2)),
            mu_global=np.ones(2),
            tau=np.array([0.0]),
            phi_local=np.full((1, 1, 2), 0.5),
            phi_global=np.full((1, 2), 0.5),
        )
        start = state.copy()
        values = [doc_elbo(params, doc, state)]
        for _ in range(4):
            e_step_doc(params, doc, state, sweeps=1, rel_tol=0.0)
            values.append(doc_elbo(params, doc, state))
            ref = oracles.reference_doc_bound(params, doc, state)
            assert math.isclose(values[-1], ref, rel_tol=1e-10)
        assert np.isfinite(values).all()
        assert (np.diff(values) >= -1e-9 * np.maximum(1.0, np.abs(values[:-1]))).all()
        assert e_step_doc(params, doc, start, sweeps=50) == 2

    def test_requested_sweeps_run_without_tolerance(self):
        params, doc, state, _ = oracles.small_instance(2)
        ran = e_step_doc(params, doc, state, sweeps=7, rel_tol=0.0)
        assert ran == 7

    def test_early_exit_on_generous_tolerance(self):
        params, doc, state, _ = oracles.small_instance(2)
        ran = e_step_doc(params, doc, state, sweeps=50, rel_tol=1e3)
        assert ran == 1

    def test_sweeps_never_decrease_bound(self):
        params, doc, state, _ = oracles.small_instance(9)
        values = [doc_elbo(params, doc, state)]
        for _ in range(10):
            e_step_doc(params, doc, state, sweeps=1, rel_tol=0.0)
            values.append(doc_elbo(params, doc, state))
        diffs = np.diff(values)
        assert (diffs >= -1e-9 * np.maximum(1.0, np.abs(values[:-1]))).all()

    def test_single_cluster_keeps_unit_responsibility(self):
        params, doc, state, _ = oracles.small_instance(1, num_j=1)
        e_step_doc(params, doc, state, sweeps=3, rel_tol=0.0)
        np.testing.assert_array_equal(state.zeta, [1.0])

    def test_indistinguishable_clusters_share_responsibility(self):
        rng = np.random.default_rng(7)
        shared_rows = rng.dirichlet(np.ones(8), size=2)
        params = ModelParams(
            pi=np.full(3, 1.0 / 3),
            gamma=np.array([2.0, 2.0]),
            local_priors=np.full((3, 2), 1.2),
            global_prior=np.full(2, 0.9),
            local_topics=np.tile(shared_rows, (3, 1, 1)),
            global_topics=rng.dirichlet(np.ones(8), size=2),
        )
        doc = Document([1, 4, 6], [2, 1, 3])
        state = DocVariational(
            zeta=np.full(3, 1.0 / 3),
            lam=np.ones(2),
            mu_local=np.ones((3, 2)),
            mu_global=np.ones(2),
            tau=np.full(3, 0.5),
            phi_local=np.full((3, 3, 2), 0.5),
            phi_global=np.full((3, 2), 0.5),
        )
        e_step_doc(params, doc, state, sweeps=5, rel_tol=0.0)
        assert state.zeta[0] == state.zeta[1] == state.zeta[2]
        np.testing.assert_allclose(state.zeta, 1.0 / 3, atol=1e-15)


class TestMStep:
    def test_mixture_weights_are_mean_responsibilities(self):
        corpus = Corpus(
            docs=[Document([0], [2]), Document([1], [3])], vocab_size=2
        )
        cfg = HyperConfig(2, 1, 1, prior_update="fixed")
        params, states = init_model(cfg, corpus)
        states[0].zeta = np.array([1.0, 0.0])
        states[1].zeta = np.array([0.0, 1.0])
        new = m_step(params, states, corpus, cfg)
        np.testing.assert_allclose(new.pi, [0.5, 0.5], atol=1e-15)

    def test_topic_rows_follow_expected_counts(self):
        corpus = Corpus(docs=[Document([0, 2], [4, 6])], vocab_size=3)
        cfg = HyperConfig(1, 1, 1, prior_update="fixed")
        params, states = init_model(cfg, corpus)
        states[0].tau = np.array([0.5, 0.25])
        new = m_step(params, states, corpus, cfg)
        raw_local = np.array([4 * 0.5, 0.0, 6 * 0.25]) + TOPIC_SMOOTHING
        raw_global = np.array([4 * 0.5, 0.0, 6 * 0.75]) + TOPIC_SMOOTHING
        np.testing.assert_allclose(
            new.local_topics[0, 0], raw_local / raw_local.sum(), rtol=1e-12
        )
        np.testing.assert_allclose(
            new.global_topics[0], raw_global / raw_global.sum(), rtol=1e-12
        )

    def test_empty_cluster_topics_frozen_with_warning(self, caplog):
        corpus = Corpus(
            docs=[Document([0], [2]), Document([1], [3])], vocab_size=2
        )
        cfg = HyperConfig(2, 1, 1, prior_update="every_iter")
        params, states = init_model(cfg, corpus)
        for st in states:
            st.zeta = np.array([1.0, 0.0])
        with caplog.at_level(logging.WARNING, logger="mgctm.inference"):
            new = m_step(params, states, corpus, cfg)
        np.testing.assert_array_equal(
            new.local_topics[1], params.local_topics[1]
        )
        np.testing.assert_array_equal(new.local_priors[1], params.local_priors[1])
        np.testing.assert_allclose(new.pi, [1.0, 0.0], atol=1e-15)
        assert any("near-zero responsibility" in r.message for r in caplog.records)

    def test_fixed_priors_do_not_move(self):
        corpus = small_fit_corpus(seed=2)
        cfg = HyperConfig(2, 2, 2, prior_update="fixed", seed=2)
        params, states = init_model(cfg, corpus)
        for doc, st in zip(corpus.docs, states):
            e_step_doc(params, doc, st, sweeps=2, rel_tol=0.0)
        new = m_step(params, states, corpus, cfg)
        np.testing.assert_array_equal(new.gamma, params.gamma)
        np.testing.assert_array_equal(new.local_priors, params.local_priors)
        np.testing.assert_array_equal(new.global_prior, params.global_prior)

    def test_updated_priors_stay_positive_and_move(self):
        corpus = small_fit_corpus(seed=5)
        cfg = HyperConfig(2, 2, 2, prior_update="every_iter", seed=5)
        params, states = init_model(cfg, corpus)
        for doc, st in zip(corpus.docs, states):
            e_step_doc(params, doc, st, sweeps=3, rel_tol=0.0)
        new = m_step(params, states, corpus, cfg)
        new.validate()
        assert not np.array_equal(new.gamma, params.gamma)
        assert (new.local_priors > 0).all()
        assert (new.global_prior > 0).all()


PARAM_FIELDS = (
    "pi", "gamma", "local_priors", "global_prior", "local_topics", "global_topics",
)
EMPTY_WARNING = "have near-zero responsibility; freezing their topics"


class TestMStepMatchesReference:
    """The M-step gives the bytes of the three-pass reference, whose sums
    over documents run over whole documents-first copies."""

    @pytest.mark.parametrize("form", ["list", "store"])
    @pytest.mark.parametrize("prior_update", ["fixed", "every_iter"])
    @pytest.mark.parametrize(
        "shape, empty",
        [
            pytest.param((1, 1, 1), None, id="J1K1R1"),
            pytest.param((3, 2, 3), None, id="J3K2R3"),
            # topic axes of 8 or more, where a last-axis sum adds pairwise
            pytest.param((12, 9, 8), None, id="J12K9R8"),
            pytest.param((3, 2, 3), 1, id="J3K2R3-cluster-1-empty"),
        ],
    )
    def test_same_bytes(self, shape, empty, prior_update, form, caplog, monkeypatch):
        num_j, num_k, num_r = shape
        params = random_model_params(num_j, num_k, num_r, 30, seed=3)
        corpus, _ = sample_corpus(params, 40, 30, seed=3)
        cfg = HyperConfig(
            num_j, num_k, num_r, max_em_iters=1, e_step_iters=2, prior_update=prior_update
        )
        params, states, _ = fit(cfg, corpus)
        store = states.store
        if empty is not None:
            store.zeta[0] += store.zeta[empty]
            store.zeta[empty] = 0.0
        want = oracles.reference_m_step(params, store, corpus, cfg)

        # each Dirichlet solve records whether the warning came before it
        solves = []
        real_solve = inference_mod.dirichlet_mle

        def solve(*args, **kwargs):
            solves.append(any(EMPTY_WARNING in r.getMessage() for r in caplog.records))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(inference_mod, "dirichlet_mle", solve)
        with caplog.at_level(logging.WARNING, logger="mgctm.inference"):
            got = m_step(params, states if form == "list" else store, corpus, cfg)
        for name in PARAM_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        warnings = [r.getMessage() for r in caplog.records if EMPTY_WARNING in r.getMessage()]
        assert warnings == ([] if empty is None else [f"clusters [{empty}] {EMPTY_WARNING}"])
        num_solves = 0 if prior_update == "fixed" else num_j - (empty is not None) + 2
        assert solves == [empty is not None] * num_solves

    def test_peak_memory_below_a_clusters_by_rows_array(self):
        # J-heavy: a (J, rows) float array alone would take 8 * J * rows bytes
        num_j = 16
        params = random_model_params(num_j, 1, 1, 50, seed=0)
        corpus, _ = sample_corpus(params, 1250, 100, seed=1)
        cfg = HyperConfig(num_j, 1, 1, prior_update="every_iter")
        params, states = init_model(cfg, corpus)
        store = states.store
        rows = store.words.size
        assert rows > 15_000
        tracemalloc.start()
        try:
            m_step(params, store, corpus, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * num_j * rows

    def test_fit_holds_no_per_document_states_at_the_m_step(self, monkeypatch):
        # init_model's DocStates list is not read after its store is taken
        real = inference_mod.m_step
        alive = []

        def checked(params, states, corpus, config):
            gc.collect()
            alive.append(
                [o for o in gc.get_objects() if isinstance(o, DocStates) and o.store is states]
            )
            return real(params, states, corpus, config)

        monkeypatch.setattr(inference_mod, "m_step", checked)
        corpus = small_fit_corpus(seed=1)
        labels = np.arange(corpus.num_docs) % 2
        fit(HyperConfig(2, 2, 2, max_em_iters=2, seed=1), corpus, init_labels=labels)
        assert alive == [[], []]


class TestFit:
    def test_zero_iterations_returns_initial_model(self):
        corpus = small_fit_corpus(seed=1)
        cfg = HyperConfig(2, 2, 2, max_em_iters=0, seed=1)
        init_params, init_states = init_model(cfg, corpus)
        params, states, report = fit(
            cfg, corpus, initial=(init_params, init_states)
        )
        np.testing.assert_array_equal(params.local_topics, init_params.local_topics)
        np.testing.assert_array_equal(params.pi, init_params.pi)
        assert report.iterations_run == 0
        assert report.converged is False
        assert len(report.elbo_trace) == 1

    def test_deterministic_across_runs_and_thread_counts(self):
        corpus = small_fit_corpus(seed=4)
        cfg = HyperConfig(2, 2, 2, max_em_iters=4, elbo_rel_tol=0.0, seed=4)
        p1, s1, r1 = fit(cfg, corpus)
        p2, s2, r2 = fit(cfg, corpus)
        p3, s3, r3 = fit(cfg, corpus, threads=3)
        assert r1.elbo_trace == r2.elbo_trace == r3.elbo_trace
        np.testing.assert_array_equal(p1.local_topics, p2.local_topics)
        np.testing.assert_array_equal(p1.local_topics, p3.local_topics)
        for a, b in zip(s1, s3):
            np.testing.assert_array_equal(a.zeta, b.zeta)
            np.testing.assert_array_equal(a.tau, b.tau)

    def test_trace_monotone_and_converged_flag(self):
        corpus = small_fit_corpus(seed=6)
        cfg = HyperConfig(2, 2, 2, max_em_iters=8, elbo_rel_tol=0.0, seed=6)
        _, _, report = fit(cfg, corpus)
        assert report.iterations_run == 8
        assert report.converged is False
        trace = np.array(report.elbo_trace)
        assert (
            np.diff(trace) >= -1e-6 * np.maximum(1.0, np.abs(trace[:-1]))
        ).all()
        assert report.wall_time > 0

        relaxed = HyperConfig(2, 2, 2, max_em_iters=50, elbo_rel_tol=1e-3, seed=6)
        _, _, report2 = fit(relaxed, corpus)
        assert report2.converged is True
        assert report2.iterations_run < 50

    def test_initial_objects_not_mutated(self):
        corpus = small_fit_corpus(seed=7)
        cfg = HyperConfig(2, 2, 2, max_em_iters=2, seed=7)
        init_params, init_states = init_model(cfg, corpus)
        pi_before = init_params.pi.copy()
        states_before = [st.copy() for st in init_states]
        fit(cfg, corpus, initial=(init_params, init_states))
        np.testing.assert_array_equal(init_params.pi, pi_before)
        # init_model's states are views into one store; none is written
        assert len(init_states) == len(states_before)
        for d, (st, before) in enumerate(zip(init_states, states_before)):
            assert_states_equal(st, before, d)

    @pytest.mark.parametrize(
        "name", ["zeta off the simplex", "lam zero", "tau above 1", "phi_local row off 1"]
    )
    def test_invalid_initial_state_rejected_with_validate_text(self, name):
        corpus = small_fit_corpus(seed=8)
        cfg = HyperConfig(2, 2, 2, seed=8)
        params, states = init_model(cfg, corpus)
        broken = [st.copy() for st in states]
        CORRUPTIONS[name](broken[5])
        CORRUPTIONS["tau below 0"](broken[11])
        want = validate_error(broken[5].validate)
        assert want is not None
        assert validate_error(lambda: fit(cfg, corpus, initial=(params, broken))) == want

    def test_empty_corpus_rejected(self):
        cfg = HyperConfig(2, 2, 2)
        with pytest.raises(DegenerateInputError, match="empty corpus"):
            fit(cfg, Corpus(docs=[], vocab_size=3))

    def test_initial_shape_validation(self):
        corpus = small_fit_corpus(seed=8)
        cfg = HyperConfig(2, 2, 2, seed=8)
        good_params, good_states = init_model(cfg, corpus)

        wrong_vocab = random_model_params(2, 2, 2, corpus.vocab_size + 1)
        with pytest.raises(DegenerateInputError, match="vocabulary"):
            fit(cfg, corpus, initial=(wrong_vocab, good_states))

        wrong_shape = random_model_params(3, 2, 2, corpus.vocab_size)
        with pytest.raises(DegenerateInputError, match="config shape"):
            fit(cfg, corpus, initial=(wrong_shape, good_states))

        with pytest.raises(DegenerateInputError, match="per document"):
            fit(cfg, corpus, initial=(good_params, good_states[:-1]))

        broken = [s.copy() for s in good_states]
        broken[0].tau = np.full(broken[0].tau.size + 1, 0.5)
        with pytest.raises(DegenerateInputError, match="match document"):
            fit(cfg, corpus, initial=(good_params, broken))

    @pytest.mark.parametrize("shape", [(2, 3, 2), (2, 2, 3)])
    def test_initial_params_of_another_local_or_global_count_rejected(self, shape):
        corpus = small_fit_corpus(seed=8)
        params, states = init_model(HyperConfig(*shape, seed=8), corpus)
        cfg = HyperConfig(2, 2, 2, max_em_iters=1, seed=8)
        with pytest.raises(DegenerateInputError, match="config shape"):
            fit(cfg, corpus, initial=(params, states))

    def test_labels_used_with_default_config(self):
        corpus = small_fit_corpus(seed=10)
        labels = np.arange(corpus.num_docs) % 2
        cfg = HyperConfig(2, 2, 2, max_em_iters=2, elbo_rel_tol=0.0, seed=10)
        params, states, report = fit(cfg, corpus, init_labels=labels)
        want = fit(cfg, corpus, initial=init_model(cfg, corpus, labels))
        np.testing.assert_array_equal(params.local_topics, want[0].local_topics)
        assert report.elbo_trace == want[2].elbo_trace
        for got, ref in zip(states, want[1]):
            assert_states_equal(got, ref)
        start = fit(HyperConfig(2, 2, 2, max_em_iters=0), corpus, init_labels=labels)[1]
        for lab, st in zip(labels, start):
            assert st.zeta[lab] == 0.9

    def test_bound_decrease_raises_with_details(self, monkeypatch):
        corpus = small_fit_corpus(seed=9)
        cfg = HyperConfig(2, 2, 2, max_em_iters=3, seed=9)
        force_corpus_bounds(monkeypatch, [0.0, -10.0])
        with pytest.raises(NumericalError, match="decreased") as err:
            fit(cfg, corpus)
        details = err.value.details
        assert details["iteration"] == 1
        assert details["previous"] == 0.0
        assert details["current"] == -10.0
        assert tuple(details["breakdown"]) == ELBO_TERM_NAMES
        assert details["trace"] == [0.0, -10.0]

    def test_decrease_within_slack_tolerated(self, monkeypatch):
        corpus = small_fit_corpus(seed=9)
        cfg = HyperConfig(
            2, 2, 2, max_em_iters=2, elbo_rel_tol=0.0, seed=9
        )
        force_corpus_bounds(monkeypatch, [0.0, -1e-8, -2e-8])
        _, _, report = fit(cfg, corpus)
        assert report.elbo_trace == [0.0, -1e-8, -2e-8]


def call_with_states(name, params, corpus, states):
    """Run the API function ``name`` on caller-supplied ``states``."""
    doc, state = corpus.docs[0], states[0]
    cfg = HyperConfig(2, 2, 2, max_em_iters=1)
    calls = {
        "fit": lambda: fit(cfg, corpus, initial=(params, states)),
        "doc_elbo": lambda: doc_elbo(params, doc, state),
        "e_step_doc": lambda: e_step_doc(params, doc, state, sweeps=2),
        "update_block": lambda: update_block(params, doc, state, "zeta"),
        "elbo": lambda: elbo(params, states, corpus),
        "elbo_breakdown": lambda: elbo_breakdown(params, states, corpus),
        "m_step": lambda: m_step(params, states, corpus, cfg),
    }
    return calls[name]()


PER_DOC_CALLS = ("doc_elbo", "e_step_doc", "update_block")


class TestCallerStatesChecked:
    """Every list of caller states is checked where it is gathered; word
    ids and sweep counts where the per-document functions take them."""

    @pytest.mark.parametrize(
        "name", PER_DOC_CALLS + ("fit", "elbo", "elbo_breakdown", "m_step")
    )
    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_states_of_another_model_shape_rejected(self, name, shape):
        corpus = small_fit_corpus(seed=12, num_docs=6)
        params = random_model_params(2, 2, 2, corpus.vocab_size, seed=12)
        _, states = init_model(HyperConfig(*shape, seed=12), corpus)
        with pytest.raises(DegenerateInputError, match="does not match document"):
            call_with_states(name, params, corpus, states)

    # fit's case is in TestFit.test_initial_shape_validation
    @pytest.mark.parametrize("name", ["elbo", "elbo_breakdown", "m_step"])
    def test_one_state_per_document(self, name):
        corpus = small_fit_corpus(seed=12, num_docs=6)
        params = random_model_params(2, 2, 2, corpus.vocab_size, seed=12)
        _, states = init_model(HyperConfig(2, 2, 2, seed=12), corpus)
        with pytest.raises(DegenerateInputError, match="one variational state per doc"):
            call_with_states(name, params, corpus, states[:-1])

    @pytest.mark.parametrize("name", PER_DOC_CALLS)
    @pytest.mark.parametrize("word_ids", [[0, 10], [0, 12], [-1, 3]])
    def test_word_ids_outside_the_model_vocabulary_rejected(self, name, word_ids):
        params = random_model_params(2, 2, 2, 10, seed=1)
        corpus = Corpus([Document([0, 3], [2, 1])], 13)
        _, states = init_model(HyperConfig(2, 2, 2), corpus)
        # the per-document functions take a Document on its own, and a
        # Document may hold ids a Corpus refuses (a negative one)
        corpus.docs[0] = Document(word_ids, [2, 1])
        with pytest.raises(DimensionError, match=r"vocabulary \[0, 10\)"):
            call_with_states(name, params, corpus, states)

    def test_e_step_doc_rejects_negative_sweeps(self):
        params = random_model_params(2, 2, 2, 10, seed=1)
        corpus, _ = sample_corpus(params, 1, 8, seed=1)
        _, states = init_model(HyperConfig(2, 2, 2), corpus)
        before = states[0].copy()
        with pytest.raises(ConfigError, match="sweeps must be >= 0"):
            e_step_doc(params, corpus.docs[0], states[0], sweeps=-1)
        assert_states_equal(states[0], before)
        assert e_step_doc(params, corpus.docs[0], states[0], sweeps=0) == 0


class TestInferDocStates:
    def test_deterministic_and_improves_on_symmetric_start(self):
        params = random_model_params(2, 2, 2, 10, seed=13)
        corpus, _ = sample_corpus(params, 6, 18, seed=13)
        states_a = infer_doc_states(params, corpus, sweeps=20)
        states_b = infer_doc_states(params, corpus, sweeps=20, threads=2)
        for a, b in zip(states_a, states_b):
            np.testing.assert_array_equal(a.zeta, b.zeta)
            np.testing.assert_array_equal(a.mu_local, b.mu_local)
        cfg = HyperConfig(2, 2, 2)
        _, fresh = init_model(cfg, corpus)
        for doc, st, base in zip(corpus.docs, states_a, fresh):
            base.zeta = np.full(2, 0.5)
            assert doc_elbo(params, doc, st) >= doc_elbo(params, doc, base) - 1e-9

    def test_same_bits_for_any_batch_size_and_thread_count(self, monkeypatch):
        params, corpus = ragged_corpus(33)
        runs = []
        # 144 cells: batches of at most 24 rows at J = K = R = 2, 1-4 documents
        for chunk_cells in (None, 144):
            if chunk_cells is not None:
                monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", chunk_cells)
            for threads in (None, 2, 3):
                runs.append(infer_doc_states(params, corpus, sweeps=40, threads=threads))
        for states in runs[1:]:
            assert len(states) == corpus.num_docs
            for got, want in zip(states, runs[0]):
                assert_states_equal(got, want)

    def test_empty_corpus(self):
        params = random_model_params(2, 2, 2, 10, seed=13)
        assert infer_doc_states(params, Corpus(docs=[], vocab_size=10)) == []

    def test_rejects_invalid_params(self):
        params = random_model_params(2, 2, 2, 10, seed=13)
        corpus, _ = sample_corpus(params, 3, 8, seed=13)
        params.pi = np.array([0.7, 0.7])
        with pytest.raises(ValueError, match="pi must be a probability vector"):
            infer_doc_states(params, corpus)

    @pytest.mark.parametrize("corpus_vocab", [8, 12])
    def test_rejects_vocabulary_mismatch(self, corpus_vocab):
        # at 12 the last word id is past the model's topics
        params = random_model_params(2, 2, 2, 10, seed=13)
        corpus = Corpus([Document([0, corpus_vocab - 1], [2, 1])], corpus_vocab)
        want = "^model and corpus vocabulary sizes differ$"
        with pytest.raises(DimensionError, match=want):
            infer_doc_states(params, corpus)

    def test_rejects_negative_sweeps(self):
        params = random_model_params(2, 2, 2, 10, seed=13)
        corpus, _ = sample_corpus(params, 3, 8, seed=13)
        with pytest.raises(ConfigError, match="sweeps must be >= 0"):
            infer_doc_states(params, corpus, sweeps=-1)
        # no sweep at all is allowed: the symmetric start comes back
        states = infer_doc_states(params, corpus, sweeps=0)
        assert all((st.tau == 0.5).all() and (st.zeta == 0.5).all() for st in states)


class TestThreadsAtLongAxes:
    """Two threads give the bits of one at J, K and R all >= 8, where every
    topic-axis sum has 8 or more terms."""

    def run(self, monkeypatch, threads):
        # (fitted params, training states, trace, held-out states, the
        # sweep counts of every E-step call by batch)
        counts = {}

        def recording(work, start, sweeps):
            first = work.docs.start
            ran = _coordinate_ascent(work, start, sweeps)
            counts.setdefault(first, []).append(ran)
            return ran

        # 40 rows of J * K + R = 81 cells: four batches of 3-4 documents
        monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", 81 * 40)
        monkeypatch.setattr(inference_mod, "_coordinate_ascent", recording)
        params = random_model_params(8, 9, 9, 40, seed=71)
        corpus, _ = sample_corpus(params, 14, lambda rng: int(rng.integers(5, 30)), seed=71)
        cfg = HyperConfig(8, 9, 9, max_em_iters=2, e_step_iters=6, elbo_rel_tol=0.0, seed=71)
        fitted, states, report = fit(cfg, corpus, threads=threads)
        held = infer_doc_states(fitted, corpus, sweeps=15, threads=threads)
        return fitted, states, report.elbo_trace, held, counts

    def test_fit_and_infer_doc_states(self, monkeypatch):
        one = self.run(monkeypatch, None)
        two = self.run(monkeypatch, 2)
        for name in ("pi", "local_priors", "global_prior", "local_topics", "global_topics"):
            assert same_bits(getattr(one[0], name), getattr(two[0], name)), name
        assert same_bits(one[2], two[2])
        for got, want in zip(one[1] + one[3], two[1] + two[3]):
            for field in STATE_FIELDS:
                assert same_bits(getattr(got, field), getattr(want, field)), field
        assert one[4].keys() == two[4].keys() and len(one[4]) == 4
        for first, ran in one[4].items():
            assert len(ran) == len(two[4][first]) == 3  # 2 EM iterations, 1 inference
            for a, b in zip(ran, two[4][first]):
                np.testing.assert_array_equal(a, b)
        # documents stopped early, at different sweeps
        held_ran = np.concatenate([ran[-1] for ran in one[4].values()])
        assert (held_ran < 15).any() and np.unique(held_ran).size > 1


def working_set(kind):
    """(store, make, doc fields, row fields): a ragged corpus's store and
    the working set over all of it, for ``_Batch`` or ``_LdaBatch``."""
    params, corpus = ragged_corpus(41)
    if kind == "mgctm":
        store = infer_doc_states(params, corpus, sweeps=2).store
        fields = ("zeta", "lam", "mu_l", "mu_g"), ("tau", "phi_l", "phi_g")
        return store, lambda: _Batch(params, store), *fields
    rng = np.random.default_rng(41)
    doc_ptr, words, counts = flat_docs(corpus.docs)
    num_topics = 3
    store = SimpleNamespace(
        doc_ptr=doc_ptr,
        words=words,
        counts=counts,
        gamma=rng.uniform(0.1, 3.0, (corpus.num_docs, num_topics)),
        phi=rng.dirichlet(np.ones(num_topics), size=words.size),
    )
    beta = rng.dirichlet(np.ones(corpus.vocab_size), size=num_topics).T
    log_beta = np.log(beta)
    docs = slice(0, corpus.num_docs)
    return store, lambda: _LdaBatch(0.1, beta, log_beta, store, docs), ("gamma",), ("phi",)


def doc_bytes(arrays, axis, doc_names, row_names, i, rows):
    # document i's state in ``arrays`` (a store or a working set, documents
    # and rows along ``axis``), as bytes
    def part(name, index):
        return np.moveaxis(getattr(arrays, name), axis, 0)[index].tobytes()

    return [part(name, i) for name in doc_names] + [part(name, rows) for name in row_names]


class TestWorkingSet:
    @pytest.mark.parametrize("kind", ["mgctm", "lda"])
    def test_scatter_without_updates_leaves_store_unchanged(self, kind):
        store, make, doc_names, row_names = working_set(kind)
        before = {name: getattr(store, name).copy() for name in doc_names + row_names}
        make().scatter()
        for name, arr in before.items():
            assert getattr(store, name).tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("kind", ["mgctm", "lda"])
    def test_write_back_after_compact_writes_only_finished_documents(self, kind):
        store, make, doc_names, row_names = working_set(kind)
        ptr = store.doc_ptr
        work = make()
        axis = work.ROW_AXIS
        work.sweep()
        kept = np.arange(work.num_docs) % 3 != 1
        work.compact(kept)
        work.sweep()
        done = np.arange(work.num_docs) % 2 == 0
        before = SimpleNamespace(
            **{name: getattr(store, name).copy() for name in doc_names + row_names}
        )
        running = work.num_docs
        work.write_back(done)
        assert work.num_docs == running
        finished = dict(zip(np.flatnonzero(kept)[done], np.flatnonzero(done)))
        moved = 0
        for i in range(ptr.size - 1):
            rows = slice(ptr[i], ptr[i + 1])
            got = doc_bytes(store, axis, doc_names, row_names, i, rows)
            old = doc_bytes(before, axis, doc_names, row_names, i, rows)
            if i in finished:
                k = finished[i]
                rows = slice(work.bounds[k], work.bounds[k + 1])
                assert got == doc_bytes(work, axis, doc_names, row_names, k, rows), i
                moved += got != old
            else:
                assert got == old, i
        # the sweeps moved finished documents, so the check has teeth
        assert moved >= 3

    @pytest.mark.parametrize("kind", ["mgctm", "lda"])
    def test_state_fields_are_views_of_the_store(self, kind):
        store, make, doc_names, row_names = working_set(kind)
        work = make()
        for name in doc_names + row_names:
            assert np.shares_memory(getattr(work, name), getattr(store, name)), name

    @pytest.mark.parametrize("kind", ["mgctm", "lda"])
    def test_sweep_without_bound_leaves_the_same_state(self, kind):
        _, make, _, _ = working_set(kind)
        want, got = make(), make()
        want.sweep()
        assert got.sweep(bound=False) is None
        for name in want.STATE:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("kind", ["mgctm", "lda"])
    @pytest.mark.parametrize("sweeps", [1, 3])
    def test_last_allowed_sweep_takes_no_bound(self, monkeypatch, kind, sweeps):
        _, make, _, _ = working_set(kind)
        work = make()
        real = type(work).sweep
        calls = []

        def sweep(self, bound=True):
            calls.append(bound)
            return real(self, bound)

        monkeypatch.setattr(type(work), "sweep", sweep)
        # a relative tolerance of -inf lets no document stop early
        ran = _coordinate_ascent(work, np.zeros(work.num_docs), sweeps, -np.inf)
        np.testing.assert_array_equal(ran, sweeps)
        assert calls == [True] * (sweeps - 1) + [False]

    def test_sweep_reads_no_stored_phi(self):
        # the phi blocks replace phi unread, so a sweep from a store whose
        # phi is NaN leaves the same state as one from the real phi
        store, make, _, _ = working_set("mgctm")
        want = make()
        want.sweep()
        want = {name: getattr(want, name).tobytes() for name in _Batch.STATE}
        for name in ("phi_l", "phi_g"):
            getattr(store, name)[...] = np.nan
        got = make()
        got.sweep()
        for name in _Batch.STATE:
            assert getattr(got, name).tobytes() == want[name], name

    def test_corpus_bound_leaves_store_unchanged(self):
        params, corpus = ragged_corpus(41)
        states = infer_doc_states(params, corpus, sweeps=2)
        before = copy.deepcopy(states.store)
        elbo(params, states.store, corpus)
        for name, value in vars(before).items():
            assert getattr(states.store, name).tobytes() == value.tobytes(), name


STATE_SOURCES = ["infer_doc_states", "fit", "init_model"]


def returned_states(source):
    # (params, corpus, states) from ``source``, one of the functions that
    # hand out states as views
    params, corpus = ragged_corpus(35)
    cfg = HyperConfig(2, 2, 2, max_em_iters=2, elbo_rel_tol=0.0, seed=5)
    if source == "infer_doc_states":
        return params, corpus, infer_doc_states(params, corpus, sweeps=5)
    if source == "fit":
        fitted, states, _ = fit(cfg, corpus)
        return fitted, corpus, states
    initial, states = init_model(cfg, corpus)
    return initial, corpus, states


class TestReturnedStatesAreViews:
    @pytest.mark.parametrize("source", STATE_SOURCES)
    def test_writes_stay_in_their_document(self, source):
        states = returned_states(source)[2]
        before = [st.copy() for st in states]
        for i, st in enumerate(states):
            for field in STATE_FIELDS:
                getattr(st, field)[...] = -1.0 - i
            for j in range(i + 1, len(states)):
                assert_states_equal(states[j], before[j], (source, i, j))
        for i, st in enumerate(states):
            for field in STATE_FIELDS:
                assert (getattr(st, field) == -1.0 - i).all(), (source, i, field)
        # and each write landed in the one store the states share
        np.testing.assert_array_equal(
            states.store.zeta[0], -1.0 - np.arange(len(states))
        )

    @pytest.mark.parametrize("source", STATE_SOURCES)
    def test_copy_detaches(self, source):
        states = returned_states(source)[2]
        detached = states[3].copy()
        kept = detached.copy()
        for field in STATE_FIELDS:
            getattr(states[3], field)[...] = 7.0
        assert_states_equal(detached, kept)
        for field in STATE_FIELDS:
            getattr(detached, field)[...] = 3.0
            assert (getattr(states[3], field) == 7.0).all()


class TestCorpusBoundMatchesReference:
    """elbo reads the store's layout right: it matches the scalar-loop
    oracle on the states each source returns, given as a list or a store."""

    @pytest.mark.parametrize("as_store", [False, True], ids=["list", "store"])
    @pytest.mark.parametrize("source", STATE_SOURCES)
    def test_elbo_matches_reference(self, source, as_store):
        params, corpus, states = returned_states(source)
        want = oracles.reference_corpus_bound(params, corpus, states)
        got = elbo(params, states.store if as_store else states, corpus)
        assert math.isclose(got, want, rel_tol=1e-10), (got, want)


class TestRaggedBatches:
    def test_empty_tiny_and_long_documents_across_batches(self, monkeypatch):
        # Empty documents (one of them last), a one-term document and one
        # document far longer than the rest, spread over several batches:
        # at most 20 rows of 6 cells, so the 30-term document is alone.
        monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", 120)
        params = random_model_params(2, 2, 2, 60, seed=31)
        sampled, _ = sample_corpus(params, 5, 10, seed=31)
        long_doc = Document(np.arange(0, 60, 2), np.arange(1, 31))
        docs = [
            sampled.docs[0],
            Document([7], [3]),
            Document([], []),
            long_doc,
            *sampled.docs[1:],
            Document([], []),
        ]
        corpus = Corpus(docs=docs, vocab_size=60)

        states = infer_doc_states(params, corpus, sweeps=8, threads=2)
        ref = sum(
            oracles.reference_doc_bound(params, doc, st)
            for doc, st in zip(docs, states)
        )
        assert math.isclose(elbo(params, states, corpus), ref, rel_tol=1e-10)

        for doc, got in zip(docs, states):
            m = doc.word_ids.size
            alone = DocVariational(
                zeta=np.full(2, 0.5),
                lam=np.ones(2),
                mu_local=np.ones((2, 2)),
                mu_global=np.ones(2),
                tau=np.full(m, 0.5),
                phi_local=np.full((m, 2, 2), 0.5),
                phi_global=np.full((m, 2), 0.5),
            )
            e_step_doc(params, doc, alone, sweeps=8)
            for field in ("zeta", "lam", "mu_local", "mu_global", "tau",
                          "phi_local", "phi_global"):
                np.testing.assert_allclose(
                    getattr(got, field), getattr(alone, field),
                    rtol=1e-12, atol=1e-12, err_msg=field,
                )

        _, _, report = fit(
            HyperConfig(2, 2, 2, max_em_iters=4, elbo_rel_tol=0.0, seed=2),
            corpus,
            threads=2,
        )
        trace = np.array(report.elbo_trace)
        assert (
            np.diff(trace) >= -1e-6 * np.maximum(1.0, np.abs(trace[:-1]))
        ).all()


def edge_case_params(gamma):
    # Topics with exact zeros (log beta = -inf) and with 1e-320 entries
    # (phi underflows to 0 at finite scores), a cluster with pi = 0.
    rng = np.random.default_rng(3)
    v_dim = 8
    local = rng.dirichlet(np.ones(v_dim), size=(3, 2))
    local[0, 1, :4] = 0.0
    local[1, 0, 2:] = 1e-320
    glob = rng.dirichlet(np.ones(v_dim), size=2)
    glob[1, 5:] = 0.0
    return ModelParams(
        pi=np.array([0.6, 0.4, 0.0]),
        gamma=np.array(gamma),
        local_priors=rng.uniform(0.5, 2.0, (3, 2)),
        global_prior=rng.uniform(0.5, 2.0, 2),
        local_topics=local / local.sum(axis=-1, keepdims=True),
        global_topics=glob / glob.sum(axis=-1, keepdims=True),
    )


def edge_case_batch(params):
    # A long document, a one-term document, an empty one and a short one;
    # phi starts at the topics' word posteriors (zero where beta is), and
    # tau and zeta sit at 0 or 1 in places.
    rng = np.random.default_rng(5)
    docs = [
        Document(np.arange(8), [1, 2, 3, 1, 1, 4, 2, 1]),
        Document([3], [2]),
        Document([], []),
        Document([1, 6], [5, 1]),
    ]
    states = []
    for doc in docs:
        state = oracles.random_doc_state(params, doc.word_ids.size, rng)
        local = params.local_topics[:, :, doc.word_ids].transpose(2, 0, 1)
        state.phi_local = local / local.sum(axis=-1, keepdims=True)
        glob = params.global_topics[:, doc.word_ids].T
        state.phi_global = glob / glob.sum(axis=-1, keepdims=True)
        states.append(state)
    states[0].tau[[4, 5]] = [0.0, 1.0]
    states[0].zeta = np.array([1.0, 0.0, 0.0])
    states[3].zeta = np.array([0.0, 1.0, 0.0])
    states[3].tau[:] = 1.0
    return batch_of(params, docs, states)


class TestCollapsedSweepBound:
    @pytest.mark.parametrize("gamma", [[1.5, 0.8], [1e20, 1.0], [1.0, 1e20]])
    def test_equals_full_bound_after_each_sweep(self, gamma):
        batch = edge_case_batch(edge_case_params(gamma))
        for _ in range(5):
            collapsed = batch.sweep()
            full = batch.bound_terms().sum(axis=1)
            assert np.isfinite(full).all()
            np.testing.assert_allclose(collapsed, full, rtol=1e-10, atol=0)
        assert (batch.phi_l == 0).any()
        assert (batch.zeta == 0).any() and (batch.zeta == 1).any()
        if gamma[0] > 1e10:
            # the coin prior saturates tau to exactly 1 (phi_g is uniform)
            assert (batch.tau == 1).all()
        else:
            # tau stays at 1 where the start put it on a word the second
            # global topic cannot emit
            assert (batch.phi_g == 0).any() and (batch.tau == 1).any()

    def test_equals_full_bound_on_random_instances(self):
        for seed in range(20):
            rng = np.random.default_rng([31, seed])
            params = oracles.random_small_params(rng)
            docs = [
                oracles.random_small_doc(rng, params.vocab_size, max_tokens=10)
                for _ in range(3)
            ]
            states = [
                oracles.random_doc_state(params, doc.word_ids.size, rng)
                for doc in docs
            ]
            batch = batch_of(params, docs, states)
            for _ in range(5):
                collapsed = batch.sweep()
                np.testing.assert_allclose(
                    collapsed, batch.bound_terms().sum(axis=1), rtol=1e-10, atol=0,
                    err_msg=str(seed),
                )


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def zero_topic_entry(params, word):
    # params with local topic (0, 0) and global topic 0 unable to emit ``word``
    params = ModelParams(**vars(params))
    params.local_topics = params.local_topics.copy()
    params.global_topics = params.global_topics.copy()
    for row in (params.local_topics[0, 0], params.global_topics[0]):
        row[word] = 0.0
        row /= row.sum()
    return params


def kernel_instances():
    """(name, params, docs, states) covering the kernels' edge cases."""
    for seed in range(6):
        rng = np.random.default_rng([47, seed])
        dims = {}
        if seed == 0:
            dims = dict(num_j=3, num_k=2, num_r=3)
        elif seed == 1:
            dims = dict(num_j=1, num_k=1, num_r=1)
        elif seed == 2:
            dims = dict(num_j=2, num_k=9, num_r=2)
        elif seed == 3:
            dims = dict(num_j=3, num_k=9, num_r=9)
        params = oracles.random_small_params(rng, **dims)
        docs = [
            oracles.random_small_doc(rng, params.vocab_size, max_tokens=12)
            for _ in range(4)
        ]
        docs.insert(2, Document([], []))
        states = [
            oracles.random_doc_state(params, doc.word_ids.size, rng) for doc in docs
        ]
        yield f"random {seed}", params, docs, states
        if seed in (0, 3):
            # tau exactly 0 and 1, zeta with exact zeros, and a topic entry
            # of 0 (log -inf) on a word the documents hold
            word = int(docs[0].word_ids[0])
            states = [st.copy() for st in states]
            states[0].tau[0] = 0.0
            states[0].tau[-1] = 1.0
            states[1].tau[:] = 1.0
            states[3].tau[:] = 0.0
            j = params.num_clusters
            states[0].zeta = np.eye(j)[0]
            states[3].zeta = np.eye(j)[j - 1]
            yield f"edges {seed}", zero_topic_entry(params, word), docs, states


def oracle_pair(params, docs, states):
    # the package's working set and the broadcast oracle on the same states
    batch = batch_of(params, docs, states)
    fields = ("zeta", "lam", "mu_l", "mu_g", "tau", "phi_l", "phi_g")
    store = batch.store
    state = {name: np.moveaxis(getattr(store, name), -1, 0) for name in fields}
    oracle = oracles.BroadcastBatch(params, store.doc_ptr, store.words, store.counts, state)
    return batch, oracle, fields


def rows_first(batch, name):
    # a working-set array with its row or document axis first, as the
    # oracle keeps it
    return np.moveaxis(getattr(batch, name), batch.ROW_AXIS, 0)


class TestBroadcastOracle:
    """The E-step kernels against oracles.BroadcastBatch, bit for bit."""

    # the intermediates each block keeps for the collapsed bound
    KEPT = {
        "phi_local": ("s_l", "lse_l"),
        "phi_global": ("s_g", "lse_g"),
        "tau": ("px_l", "px_g"),
        "zeta": ("px_l_new",),
    }

    @pytest.mark.parametrize("instance", list(kernel_instances()), ids=lambda i: i[0])
    def test_each_block_has_broadcast_bits(self, instance):
        name, params, docs, states = instance
        batch, oracle, fields = oracle_pair(params, docs, states)
        for sweep in range(3):
            for block in E_STEP_BLOCKS:
                batch.update(block)
                oracle.update(block)
                for field in fields + self.KEPT.get(block, ()):
                    assert same_bits(rows_first(batch, field), getattr(oracle, field)), (
                        name, sweep, block, field
                    )

    @pytest.mark.parametrize("instance", list(kernel_instances()), ids=lambda i: i[0])
    def test_sweep_bounds_have_broadcast_bits(self, instance):
        name, params, docs, states = instance
        batch, oracle, fields = oracle_pair(params, docs, states)
        for sweep in range(4):
            got, want = batch.sweep(), oracle.sweep()
            assert same_bits(got, want), (name, sweep)
            for field in fields:
                assert same_bits(rows_first(batch, field), getattr(oracle, field)), (
                    name, sweep, field
                )

    def test_instances_reach_the_edge_cases(self):
        names = set()
        for name, params, docs, states in kernel_instances():
            batch, _, _ = oracle_pair(params, docs, states)
            names.add(name)
            if name.startswith("edges"):
                assert np.isneginf(batch.lb_l).any() and np.isneginf(batch.lb_g).any()
                assert (batch.tau == 0).any() and (batch.tau == 1).any()
                assert (batch.zeta == 0).any()
        shapes = {
            (p.num_clusters, p.local_topics_per_cluster, p.num_global_topics)
            for _, p, _, _ in kernel_instances()
        }
        assert (1, 1, 1) in shapes
        assert any(k >= 9 for _, k, _ in shapes) and any(r >= 9 for _, _, r in shapes)
        assert {"edges 0", "edges 3"} <= names


class TestSymmetricStartBound:
    """infer_doc_states starts from a closed-form bound of the symmetric state."""

    def symmetric(self, params, docs):
        store = inference_mod._symmetric_store(params, docs)
        log_topics = inference_mod._log_topics(params)
        closed = inference_mod._symmetric_bounds(params, store, log_topics)
        return closed, _Batch(params, store, log_topics=log_topics).bound()

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_full_bound(self, seed):
        rng = np.random.default_rng([53, seed])
        dims = [{}, dict(num_k=1), dict(num_r=1), dict(num_j=1, num_k=1, num_r=1)]
        params = oracles.random_small_params(rng, **dims[seed % 4])
        docs = [
            oracles.random_small_doc(rng, params.vocab_size, max_tokens=20)
            for _ in range(6)
        ]
        docs.insert(3, Document([], []))
        closed, full = self.symmetric(params, docs)
        assert np.isfinite(full).all()
        np.testing.assert_allclose(closed, full, rtol=1e-12, atol=0)

    def test_zero_topic_entry_gives_minus_inf_in_both(self):
        rng = np.random.default_rng(59)
        params = oracles.random_small_params(rng, num_j=2, num_k=2, num_r=2, num_v=6)
        docs = [Document([0, 3], [2, 1]), Document([1, 4], [1, 5]), Document([], [])]
        closed, full = self.symmetric(zero_topic_entry(params, 3), docs)
        assert closed[0] == full[0] == -np.inf
        np.testing.assert_allclose(closed[1:], full[1:], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("threads", [None, 2])
    @pytest.mark.parametrize("zero_entry", [False, True])
    def test_same_sweeps_and_states_as_a_start_from_full_bounds(
        self, monkeypatch, threads, zero_entry
    ):
        params, corpus = ragged_corpus(37)
        if zero_entry:
            params = zero_topic_entry(params, int(corpus.docs[0].word_ids[0]))

        def run(loop):
            counts = {}

            def recording(work, start, sweeps):
                first = work.docs.start
                counts[first] = loop(work, start, sweeps)
                return counts[first]

            monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", 200)  # 1-5 documents
            monkeypatch.setattr(inference_mod, "_coordinate_ascent", recording)
            states = infer_doc_states(params, corpus, sweeps=40, threads=threads)
            return states, np.concatenate([counts[k] for k in sorted(counts)])

        got, ran = run(_coordinate_ascent)
        want, want_ran = run(
            lambda work, start, sweeps: _coordinate_ascent(work, None, sweeps)
        )
        np.testing.assert_array_equal(ran, want_ran)
        assert (ran < 40).any() and np.unique(ran).size > 2
        for a, b in zip(got, want):
            for field in STATE_FIELDS:
                assert same_bits(getattr(a, field), getattr(b, field)), field


def validation_instance():
    rng = np.random.default_rng(41)
    params = oracles.random_small_params(rng, num_j=3, num_k=2, num_r=3, num_v=9)
    docs = [
        oracles.random_small_doc(rng, params.vocab_size, max_tokens=8)
        for _ in range(4)
    ]
    docs.insert(1, Document([], []))
    states = [
        oracles.random_doc_state(params, doc.word_ids.size, rng) for doc in docs
    ]
    return params, docs, states


def validate_error(check):
    # the ValueError text check() raises, or None when it accepts
    try:
        check()
    except ValueError as err:
        return str(err)
    return None


def set_entry(field, index, value):
    def corrupt(state):
        arr = getattr(state, field).copy()
        arr[index] = value
        setattr(state, field, arr)
    return corrupt


def scale_entry(field, index, factor):
    def corrupt(state):
        arr = getattr(state, field).copy()
        arr[index] *= factor
        setattr(state, field, arr)
    return corrupt


CORRUPTIONS = {
    "zeta off the simplex": scale_entry("zeta", 0, 1.5),
    "zeta negative": lambda st: setattr(st, "zeta", np.array([1.5, -0.5, 0.0])),
    "lam zero": set_entry("lam", 1, 0.0),
    "mu_local negative": set_entry("mu_local", (2, 1), -1.0),
    "mu_global zero": set_entry("mu_global", 0, 0.0),
    "tau below 0": set_entry("tau", 0, -1e-12),
    "tau above 1": set_entry("tau", -1, 1.0 + 1e-12),
    "phi_local row off 1": scale_entry("phi_local", (0, 1), 1.01),
    "phi_local negative": lambda st: setattr(
        st, "phi_local", np.tile([-0.5, 1.5], st.phi_local.shape[:2] + (1,))
    ),
    "phi_global row off 1": scale_entry("phi_global", -1, 0.9),
    "phi_global negative": lambda st: setattr(
        st, "phi_global", np.tile([-1.0, 1.0, 1.0], (st.tau.size, 1))
    ),
    # accepted by validate, so they must pass here too
    "tau NaN": set_entry("tau", 0, np.nan),
    "zeta sum within tolerance": scale_entry("zeta", 0, 1.0 + 1e-10),
    "phi_local row sum within tolerance": scale_entry("phi_local", (0, 2), 1.0 + 1e-10),
}


class TestBatchValidation:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("doc", [0, 4])
    def test_same_verdict_and_text_as_validate(self, name, doc):
        params, docs, states = validation_instance()
        CORRUPTIONS[name](states[doc])
        want = validate_error(states[doc].validate)
        if not name.endswith(("NaN", "tolerance")):
            assert want is not None
        assert validate_error(batch_of(params, docs, states).scatter) == want
        assert validate_error(_as_store(params, docs, states).validate) == want

    def test_first_failing_document_is_reported(self):
        params, docs, states = validation_instance()
        CORRUPTIONS["lam zero"](states[4])
        CORRUPTIONS["phi_global row off 1"](states[2])
        CORRUPTIONS["tau below 0"](states[2])
        want = validate_error(states[2].validate)
        assert want == "tau entries must lie in [0, 1]"
        assert validate_error(batch_of(params, docs, states).scatter) == want
        assert validate_error(_as_store(params, docs, states).validate) == want

    def test_random_perturbations_match_validate(self):
        # Perturb every field around the tolerances; the batch raises
        # exactly when some state fails, with the first failing state's text.
        params, docs, base = validation_instance()
        rng = np.random.default_rng(43)
        verdicts = set()
        for _ in range(200):
            states = [st.copy() for st in base]
            for st in states:
                for field in STATE_FIELDS:
                    arr = getattr(st, field)
                    pick = rng.random(arr.shape) < 0.1
                    noise = rng.choice([-2e-9, -5e-10, 5e-10, 2e-9], arr.shape)
                    moved = arr * (1.0 + noise) + noise * 1e-3
                    setattr(st, field, np.where(pick, moved, arr))
            errors = [validate_error(st.validate) for st in states]
            want = next((e for e in errors if e is not None), None)
            verdicts.add(want is None)
            assert validate_error(batch_of(params, docs, states).scatter) == want
            assert validate_error(_as_store(params, docs, states).validate) == want
        assert verdicts == {True, False}


def inject(value=None, shift=None):
    # set the first entry of a state field to ``value``, or move it by
    # ``shift`` times SIMPLEX_ATOL
    def corrupt(state, field):
        arr = getattr(state, field).copy()
        flat = arr.reshape(-1)
        flat[0] = value if shift is None else flat[0] + shift * SIMPLEX_ATOL
        setattr(state, field, arr)
    return corrupt


SIMPLEX_FIELDS = ("zeta", "phi_local", "phi_global")
# per kind of field: values each check must judge as validate does
INJECTIONS = {
    "nan": inject(np.nan),
    "+inf": inject(np.inf),
    "-inf": inject(-np.inf),
    "negative": inject(-1e-300),
    "-0.0": inject(-0.0),
}
SIMPLEX_INJECTIONS = {
    "sum just inside above": inject(shift=0.5),
    "sum just inside below": inject(shift=-0.5),
    "sum just outside above": inject(shift=2.0),
    "sum just outside below": inject(shift=-2.0),
}
BOUND_INJECTIONS = {
    "zero": inject(0.0),
    "smallest positive": inject(5e-324),
    "one": inject(1.0),
    "just above one": inject(np.nextafter(1.0, 2.0)),
}


def injections(field):
    extra = SIMPLEX_INJECTIONS if field in SIMPLEX_FIELDS else BOUND_INJECTIONS
    return {**INJECTIONS, **extra}


class TestValidateFlatInjections:
    """validate_flat against DocVariational.validate, one field at a time."""

    def checked_docs(self, monkeypatch, check):
        # (error text of check(), the documents it checked one by one)
        seen = []
        real = model_mod._doc_state

        def recording(flat, i, rows):
            seen.append(int(i))
            return real(flat, i, rows)

        monkeypatch.setattr(model_mod, "_doc_state", recording)
        return validate_error(check), seen

    @pytest.mark.parametrize("field", STATE_FIELDS)
    @pytest.mark.parametrize("doc", [0, 4])
    def test_same_document_fails_with_the_same_text(self, monkeypatch, field, doc):
        verdicts = set()
        for kind, corrupt in injections(field).items():
            params, docs, states = validation_instance()
            corrupt(states[doc], field)
            want = validate_error(states[doc].validate)
            verdicts.add(want is None)
            for make, check in ((batch_of, "scatter"), (_as_store, "validate")):
                got, seen = self.checked_docs(
                    monkeypatch, getattr(make(params, docs, states), check)
                )
                assert got == want, (kind, make.__name__)
                assert seen == ([] if want is None else [doc]), (kind, make.__name__)
        assert verdicts == {True, False}


def ragged_corpus(seed):
    # Empty documents (one of them last), a one-term document and one
    # document far longer than the rest.
    params = random_model_params(2, 2, 2, 60, seed=seed)
    sampled, _ = sample_corpus(params, 9, 12, seed=seed)
    docs = [
        sampled.docs[0],
        Document([7], [3]),
        Document([], []),
        Document(np.arange(0, 60, 2), np.arange(1, 31)),
        *sampled.docs[1:],
        Document([], []),
    ]
    return params, Corpus(docs=docs, vocab_size=60)


def run_recording_sweeps(monkeypatch, loop, run):
    """run() with the E-step loop replaced by ``loop``; also returns the
    per-document sweep counts of every call, in call order."""
    counts = []

    def recording(*args, **kwargs):
        ran = loop(*args, **kwargs)
        counts.append(np.array(ran))
        return ran

    monkeypatch.setattr(inference_mod, "_coordinate_ascent", recording)
    return run(), np.concatenate(counts)


class TestMatchesFullBoundLoop:
    """The E-step against oracles.reference_coordinate_ascent, which runs
    the same blocks but takes the full bound after every sweep."""

    @pytest.mark.parametrize("chunk_cells", [None, 144])
    def test_infer_doc_states(self, monkeypatch, chunk_cells):
        if chunk_cells is not None:
            monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", chunk_cells)
        params, corpus = ragged_corpus(33)
        sweeps = 40

        def run():
            return infer_doc_states(params, corpus, sweeps=sweeps)

        got, ran = run_recording_sweeps(monkeypatch, _coordinate_ascent, run)
        want, ref_ran = run_recording_sweeps(
            monkeypatch, oracles.reference_coordinate_ascent, run
        )
        np.testing.assert_array_equal(ran, ref_ran)
        # documents stopped early, at different sweeps
        assert (ran < sweeps).any() and np.unique(ran[ran > 0]).size > 2
        for a, b in zip(got, want):
            assert_states_equal(a, b)

    @pytest.mark.parametrize("chunk_cells", [None, 144])
    def test_fit(self, monkeypatch, chunk_cells):
        if chunk_cells is not None:
            monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", chunk_cells)
        _, corpus = ragged_corpus(34)
        cfg = HyperConfig(
            2, 2, 2, max_em_iters=4, e_step_iters=15, elbo_rel_tol=0.0, seed=3
        )

        def run():
            return fit(cfg, corpus)

        (params, states, report), ran = run_recording_sweeps(
            monkeypatch, _coordinate_ascent, run
        )
        (ref_params, ref_states, ref_report), ref_ran = run_recording_sweeps(
            monkeypatch, oracles.reference_coordinate_ascent, run
        )
        np.testing.assert_array_equal(ran, ref_ran)
        assert (ran < cfg.e_step_iters).any() and (ran == cfg.e_step_iters).any()
        np.testing.assert_allclose(
            report.elbo_trace, ref_report.elbo_trace, rtol=1e-10, atol=0
        )
        for a, b in zip(states, ref_states):
            assert_states_equal(a, b)
        for name in ("pi", "gamma", "local_priors", "global_prior",
                     "local_topics", "global_topics"):
            np.testing.assert_array_equal(
                getattr(params, name), getattr(ref_params, name), err_msg=name
            )


class TestModelLevelInvariants:
    def test_fit_beats_uniform_topics_model(self):
        gen = random_model_params(2, 2, 2, 12, seed=20)
        corpus, _ = sample_corpus(gen, 40, 30, seed=20)
        tokens = sum(doc.length for doc in corpus.docs)

        v = corpus.vocab_size
        uniform = ModelParams(
            pi=np.full(2, 0.5),
            gamma=np.ones(2),
            local_priors=np.ones((2, 3)),
            global_prior=np.ones(2),
            local_topics=np.full((2, 3, v), 1.0 / v),
            global_topics=np.full((2, v), 1.0 / v),
        )
        uniform_states = infer_doc_states(uniform, corpus, sweeps=30)
        uniform_per_token = elbo(uniform, uniform_states, corpus) / tokens

        cfg = HyperConfig(
            2, 3, 2, max_em_iters=25, elbo_rel_tol=0.0, seed=0,
            e_step_iters=5,
        )
        _, _, report = fit(cfg, corpus)
        assert report.elbo_trace[-1] / tokens >= uniform_per_token

    def test_extreme_coin_prior_pins_local_pathway(self):
        gen = random_model_params(2, 2, 2, 10, seed=21)
        corpus, _ = sample_corpus(gen, 12, 20, seed=21)
        cfg = HyperConfig(
            2, 2, 2, max_em_iters=6, e_step_iters=5, elbo_rel_tol=0.0,
            seed=1, prior_update="fixed",
        )
        params, states = init_model(cfg, corpus)
        params.gamma = np.array([1e6, 1.0])
        fitted, fstates, _ = fit(cfg, corpus, initial=(params, states))
        residual = np.mean([1.0 - st.tau.mean() for st in fstates])
        assert residual <= 1e-5
        # The share of expected emissions routed to the global pathway
        # is negligible next to the local share.
        global_mass = sum(
            float((doc.counts * (1.0 - st.tau)).sum())
            for doc, st in zip(corpus.docs, fstates)
        )
        total = sum(doc.length for doc in corpus.docs)
        assert global_mass <= 1e-4 * total

    def test_saturated_coin_prior_leaves_global_topics_at_fallback(self):
        # With the coin prior pinned hard enough the local-pathway
        # probability saturates to exactly 1.0, the global topics see
        # zero expected counts, and re-estimation leaves them at the
        # all-smoothing fallback: exactly uniform rows.
        gen = random_model_params(2, 2, 2, 10, seed=22)
        corpus, _ = sample_corpus(gen, 10, 15, seed=22)
        cfg = HyperConfig(
            2, 2, 2, max_em_iters=4, e_step_iters=5, elbo_rel_tol=0.0,
            seed=1, prior_update="fixed",
        )
        params, states = init_model(cfg, corpus)
        params.gamma = np.array([1e20, 1.0])
        fitted, fstates, _ = fit(cfg, corpus, initial=(params, states))
        for st in fstates:
            np.testing.assert_array_equal(st.tau, np.ones_like(st.tau))
            np.testing.assert_array_equal(st.mu_global, params.global_prior)
        v = corpus.vocab_size
        np.testing.assert_allclose(
            fitted.global_topics, np.full((2, v), 1.0 / v), rtol=0, atol=1e-12
        )


class TestBatchCuts:
    """E-step batches end where their cells would pass CHUNK_CELLS, and no
    cut moves a bit of any result."""

    def test_empty_corpus_has_no_batch(self):
        assert _batch_slices(np.zeros(1, dtype=np.int64), 6) == []

    def test_document_over_the_limit_is_alone(self, monkeypatch):
        monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", 60)  # 10 rows of 6 cells
        doc_ptr = np.cumsum([0, 4, 11, 0, 3, 12, 5, 5])
        slices = _batch_slices(doc_ptr, 6)
        assert [(s.start, s.stop) for s in slices] == [(0, 1), (1, 2), (2, 4), (4, 5), (5, 7)]

    @pytest.mark.parametrize("seed", range(5))
    def test_slices_cover_every_document_once_and_are_full(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", int(rng.integers(20, 200)))
        sizes = rng.integers(0, 30, 200) * (rng.random(200) > 0.2)
        doc_ptr = np.concatenate([[0], np.cumsum(sizes)])
        cells_per_row = int(rng.integers(1, 8))
        slices = _batch_slices(doc_ptr, cells_per_row)
        covered = np.concatenate([np.arange(s.start, s.stop) for s in slices])
        np.testing.assert_array_equal(covered, np.arange(sizes.size))

        def cells(lo, hi):
            return (doc_ptr[hi] - doc_ptr[lo]) * cells_per_row

        for s, after in zip(slices, slices[1:] + [None]):
            assert cells(s.start, s.stop) <= corpus_mod.CHUNK_CELLS or s.stop == s.start + 1
            if after is not None:  # the next document would not have fit
                assert cells(s.start, s.stop + 1) > corpus_mod.CHUNK_CELLS

    def test_no_cut_and_no_thread_count_moves_a_bit(self, monkeypatch, tmp_path):
        params, corpus = ragged_corpus(35)
        cfg = HyperConfig(2, 2, 2, max_em_iters=3, e_step_iters=6, elbo_rel_tol=0.0, seed=5)
        runs = []
        # 72 cells: at most 12 rows of J * K + R = 6, 1-3 documents a batch
        for chunk_cells in (corpus_mod.CHUNK_CELLS, 72):
            monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", chunk_cells)
            lda, lda_report = fit_lda(corpus, 3, seed=5, max_em_iters=3, elbo_rel_tol=0.0)
            lda_run = [lda.topics, lda.doc_theta, lda_report.elbo_trace]
            for threads in (None, 2, 3):
                fitted, states, report = fit(cfg, corpus, threads=threads)
                path = tmp_path / "model.json"
                save_model(fitted, path, report=report)
                held = infer_doc_states(fitted, corpus, sweeps=20, threads=threads)
                runs.append(
                    [getattr(fitted, name) for name in
                     ("pi", "gamma", "local_priors", "global_prior",
                      "local_topics", "global_topics")]
                    + [getattr(st, field) for st in states + held for field in STATE_FIELDS]
                    + [report.elbo_trace, np.frombuffer(path.read_bytes(), np.uint8)]
                    + lda_run
                )
        for run in runs[1:]:
            assert len(run) == len(runs[0])
            for got, want in zip(run, runs[0]):
                assert same_bits(got, want)

    def test_a_document_alone_in_its_batch_keeps_its_bits_at_long_axes(self, monkeypatch):
        # At J, K and R >= 8 a batch of one document sums its topic axes in
        # the order a batch of many does (numerics.sum_in_order).
        params = random_model_params(8, 9, 9, 40, seed=71)
        corpus, _ = sample_corpus(params, 14, lambda rng: int(rng.integers(5, 30)), seed=71)
        cfg = HyperConfig(8, 9, 9, max_em_iters=2, e_step_iters=6, elbo_rel_tol=0.0, seed=71)
        runs = []
        # one batch, then one row of J * K + R = 81 cells: a document a batch
        for chunk_cells in (corpus_mod.CHUNK_CELLS, 81):
            monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", chunk_cells)
            fitted, states, report = fit(cfg, corpus)
            held = infer_doc_states(fitted, corpus, sweeps=15)
            runs.append(
                [report.elbo_trace]
                + [getattr(st, field) for st in states + held for field in STATE_FIELDS]
            )
        for got, want in zip(*runs):
            assert same_bits(got, want)

    def test_e_step_memory_is_set_by_chunk_cells(self):
        # At J = 16, K = 8, R = 4 a row has 132 cells; 300 documents of
        # ~100 terms are ~60 batches, where 256-document ones were 2.
        params = random_model_params(16, 8, 4, 3000, seed=3)
        corpus, _ = sample_corpus(params, 300, 110, seed=3)
        log_topics = _log_topics(params)
        tracemalloc.start()
        try:
            store = _symmetric_store(params, corpus.docs)
            start = _symmetric_bounds(params, store, log_topics)
            slices = _batch_slices(store.doc_ptr, 16 * 8 + 4)
            batch = functools.partial(_Batch, params, store, log_topics=log_topics)
            _run_e_step(batch, slices, start, sweeps=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.words.size > 25_000 and len(slices) > 40
        store_bytes = sum(a.nbytes for a in vars(store).values() if isinstance(a, np.ndarray))
        assert peak < store_bytes + 32 * corpus_mod.CHUNK_CELLS * 8
