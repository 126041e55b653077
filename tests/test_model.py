import numpy as np
import pytest

import mgctm.corpus as corpus_mod
import mgctm.model as model_mod
import oracles
from mgctm.corpus import Document
from mgctm.errors import ConfigError, DegenerateInputError, DimensionError
from mgctm.evaluation import ClusterLabels
from mgctm.model import (
    DocVariational,
    HyperConfig,
    ModelParams,
    HiddenAssignments,
    VariationalStore,
    init_model,
    perturbed_uniform_rows,
    predict_cluster,
    random_model_params,
    _choice_cdf,
    sample_corpus,
    top_words,
)


def tiny_params():
    return random_model_params(2, 2, 2, 6, seed=3)


class TestHyperConfig:
    def test_defaults_accepted(self):
        cfg = HyperConfig(3, 2, 2)
        assert cfg.max_em_iters == 100
        assert cfg.e_step_iters == 20
        assert cfg.elbo_rel_tol == 1e-5
        assert cfg.prior_update == "every_iter"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clusters": 0},
            {"local_topics_per_cluster": 0},
            {"num_global_topics": 0},
            {"max_em_iters": -1},
            {"e_step_iters": 0},
            {"elbo_rel_tol": -1e-9},
            {"elbo_rel_tol": float("nan")},
            {"elbo_rel_tol": float("inf")},
            {"prior_update": "sometimes"},
            {"seed": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(num_clusters=2, local_topics_per_cluster=2, num_global_topics=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            HyperConfig(**base)

    def test_zero_em_iters_allowed(self):
        assert HyperConfig(2, 2, 2, max_em_iters=0).max_em_iters == 0


class TestModelParams:
    def test_random_model_params_validate(self):
        params = tiny_params()
        params.validate()
        assert params.num_clusters == 2
        assert params.local_topics_per_cluster == 2
        assert params.num_global_topics == 2
        assert params.vocab_size == 6
        np.testing.assert_allclose(params.gamma, [6.0, 2.0])

    @pytest.mark.parametrize(
        "shape, seed, message",
        [
            ((0, 2, 2, 6), 0, "must be >= 1"),
            ((2, 0, 2, 6), 0, "must be >= 1"),
            ((2, 2, 0, 6), 0, "must be >= 1"),
            ((2, 2, 2, 0), 0, "must be >= 1"),
            ((2, 2, 2, 6), -1, "seed must be >= 0"),
        ],
    )
    def test_random_model_params_rejects_empty_shape_and_negative_seed(
        self, shape, seed, message
    ):
        with pytest.raises(ConfigError, match=message):
            random_model_params(*shape, seed=seed)

    def test_bad_pi_rejected(self):
        params = tiny_params()
        params.pi = np.array([0.9, 0.3])
        with pytest.raises(ValueError, match="pi"):
            params.validate()

    def test_nonpositive_prior_rejected(self):
        params = tiny_params()
        params.global_prior = np.array([0.5, 0.0])
        with pytest.raises(ValueError, match="> 0"):
            params.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_rejected(self, value):
        for name in ("gamma", "local_priors", "global_prior"):
            params = tiny_params()
            getattr(params, name).flat[-1] = value
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                params.validate()

    def test_negative_topic_entry_rejected(self):
        params = tiny_params()
        params.local_topics[0, 0, 0] = -params.local_topics[0, 0, 0]
        with pytest.raises(ValueError, match="negative"):
            params.validate()

    def test_unnormalized_topic_row_rejected(self):
        params = tiny_params()
        params.global_topics[1] *= 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            params.validate()

    @pytest.mark.parametrize(
        "name, shape, message",
        [
            # K is read off local_priors, so the topics disagree with it
            ("local_priors", (2, 3), "local_topics shape mismatch"),
            ("local_priors", (3, 2), "local_priors shape mismatch"),
            ("global_topics", (3, 6), "global_topics shape mismatch"),
        ],
    )
    def test_shape_mismatch_rejected(self, name, shape, message):
        params = tiny_params()
        setattr(params, name, np.full(shape, 1.0 / shape[-1]))
        with pytest.raises(DimensionError, match=message):
            params.validate()

    def test_gamma_shape_rejected(self):
        params = tiny_params()
        params.gamma = np.ones(3)
        with pytest.raises(DimensionError):
            params.validate()

    def test_permute_clusters_roundtrip(self):
        params = random_model_params(3, 2, 2, 5, seed=1)
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)
        back = params.permute_clusters(perm).permute_clusters(inv)
        np.testing.assert_array_equal(back.pi, params.pi)
        np.testing.assert_array_equal(back.local_topics, params.local_topics)
        permuted = params.permute_clusters(perm)
        np.testing.assert_array_equal(permuted.pi, params.pi[perm])
        np.testing.assert_array_equal(
            permuted.local_priors, params.local_priors[perm]
        )
        np.testing.assert_array_equal(
            permuted.global_topics, params.global_topics
        )


class TestDocVariational:
    def make_state(self):
        return DocVariational(
            zeta=np.array([0.2, 0.8]),
            lam=np.array([1.0, 2.0]),
            mu_local=np.ones((2, 2)),
            mu_global=np.ones(2),
            tau=np.array([0.5, 0.25]),
            phi_local=np.full((2, 2, 2), 0.5),
            phi_global=np.full((2, 2), 0.5),
        )

    def test_valid_state_passes(self):
        self.make_state().validate()

    def test_tau_outside_unit_interval_rejected(self):
        state = self.make_state()
        state.tau[0] = 1.5
        with pytest.raises(ValueError, match="tau"):
            state.validate()

    def test_nonpositive_mu_rejected(self):
        state = self.make_state()
        state.mu_local[0, 0] = 0.0
        with pytest.raises(ValueError):
            state.validate()

    def test_copy_is_deep_for_arrays(self):
        state = self.make_state()
        clone = state.copy()
        clone.zeta[0] = 0.7
        clone.phi_local[0, 0, 0] = 0.9
        assert state.zeta[0] == 0.2
        assert state.phi_local[0, 0, 0] == 0.5

    def test_permute_clusters_moves_cluster_axes_only(self):
        state = self.make_state()
        state.mu_local = np.array([[1.0, 2.0], [3.0, 4.0]])
        state.phi_local = np.array([[[1.0, 0.0], [0.0, 1.0]]] * 2)
        out = state.permute_clusters(np.array([1, 0]))
        np.testing.assert_array_equal(out.zeta, [0.8, 0.2])
        np.testing.assert_array_equal(out.mu_local, [[3.0, 4.0], [1.0, 2.0]])
        np.testing.assert_array_equal(
            out.phi_local[0], [[0.0, 1.0], [1.0, 0.0]]
        )
        np.testing.assert_array_equal(out.tau, state.tau)
        np.testing.assert_array_equal(out.mu_global, state.mu_global)


class TestGather:
    """VariationalStore.gather is where every caller's list of states is
    checked: one state per document, each shaped like its document and
    the model."""

    def states(self):
        # J=2, K=3, R=4 over documents of 2, 0 and 1 terms
        docs = [Document([0, 3], [1, 2]), Document([], []), Document([1], [5])]
        store = VariationalStore.symmetric(docs, np.full((2, 3), 0.5), 3, 4)
        return docs, [store.state(i).copy() for i in range(3)]

    def test_no_documents(self):
        store = VariationalStore.gather([], [], 2, 3, 4)
        assert store.num_docs == 0
        assert store.phi_l.shape == (2, 3, 0) and store.mu_l.shape == (2, 3, 0)

    def test_arrays_are_c_contiguous(self):
        # so that an E-step batch, views of them, reduces as on any store
        docs, states = self.states()
        store = VariationalStore.gather(docs, states, 2, 3, 4)
        for name in ("zeta", "lam", "mu_l", "mu_g", "tau", "phi_l", "phi_g"):
            assert getattr(store, name).flags.c_contiguous, name

    def test_one_state_per_document(self):
        docs, states = self.states()
        with pytest.raises(DegenerateInputError, match="one variational state per doc"):
            VariationalStore.gather(docs, states[:2], 2, 3, 4)

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("zeta", (3,)),
            ("lam", (3,)),
            ("mu_local", (2, 2)),
            ("mu_global", (3,)),
            ("tau", (2,)),
            ("phi_local", (1, 3, 3)),
            ("phi_global", (1, 1, 4)),
        ],
    )
    def test_each_field_shape_checked(self, name, shape):
        docs, states = self.states()
        setattr(states[2], name, np.ones(shape))
        want = f"variational state 2 does not match document 2 .*{name} has shape"
        with pytest.raises(DegenerateInputError, match=want):
            VariationalStore.gather(docs, states, 2, 3, 4)


class TestSampler:
    def test_deterministic_given_seed(self):
        params = tiny_params()
        a, ha = sample_corpus(params, 5, 20, seed=42)
        b, hb = sample_corpus(params, 5, 20, seed=42)
        for da, db in zip(a.docs, b.docs):
            assert da.entries == db.entries
            assert da.label == db.label
        np.testing.assert_array_equal(ha.cluster, hb.cluster)
        np.testing.assert_array_equal(ha.omega, hb.omega)
        c, _ = sample_corpus(params, 5, 20, seed=43)
        assert any(
            da.entries != dc.entries for da, dc in zip(a.docs, c.docs)
        )

    def test_labels_and_lengths(self):
        params = tiny_params()
        corpus, hidden = sample_corpus(params, 8, 15, seed=0)
        assert corpus.num_docs == 8
        for d, doc in enumerate(corpus.docs):
            assert doc.length == 15
            assert doc.label == int(hidden.cluster[d])
        assert corpus.labels() is not None

    def test_hidden_assignments_are_consistent(self):
        params = tiny_params()
        corpus, hidden = sample_corpus(params, 6, 30, seed=5)
        assert isinstance(hidden, HiddenAssignments)
        for d in range(corpus.num_docs):
            delta = hidden.indicator[d]
            z_l = hidden.local_z[d]
            z_g = hidden.global_z[d]
            assert delta.shape == z_l.shape == z_g.shape
            assert set(np.unique(delta)).issubset({0, 1})
            assert (z_l[delta == 1] >= 0).all()
            assert (z_g[delta == 1] == -1).all()
            assert (z_g[delta == 0] >= 0).all()
            assert (z_l[delta == 0] == -1).all()
            assert 0.0 <= hidden.omega[d] <= 1.0

    def test_degenerate_mixture_pins_cluster(self):
        params = tiny_params()
        params.pi = np.array([0.0, 1.0])
        corpus, hidden = sample_corpus(params, 10, 5, seed=2)
        assert (hidden.cluster == 1).all()
        assert all(doc.label == 1 for doc in corpus.docs)

    def test_point_mass_topics_emit_one_word(self):
        row = np.zeros(6)
        row[4] = 1.0
        params = ModelParams(
            pi=np.array([1.0]),
            gamma=np.array([3.0, 3.0]),
            local_priors=np.ones((1, 2)),
            global_prior=np.ones(1),
            local_topics=np.tile(row, (1, 2, 1)),
            global_topics=np.tile(row, (1, 1)),
        )
        corpus, _ = sample_corpus(params, 4, 12, seed=9)
        for doc in corpus.docs:
            assert doc.entries == [(4, 12)]

    def test_symmetric_coin_balances_pathways(self):
        params = tiny_params()
        params.gamma = np.array([40.0, 40.0])
        _, hidden = sample_corpus(params, 100, 200, seed=12)
        frac = np.concatenate(hidden.indicator).mean()
        assert abs(frac - 0.5) < 0.03

    def test_callable_doc_length(self):
        params = tiny_params()
        corpus, _ = sample_corpus(
            params, 20, lambda rng: int(rng.integers(3, 9)), seed=1
        )
        lengths = {doc.length for doc in corpus.docs}
        assert lengths <= set(range(3, 9))
        assert len(lengths) > 1

    def test_invalid_sizes_rejected(self):
        params = tiny_params()
        with pytest.raises(ConfigError):
            sample_corpus(params, 0, 10)
        with pytest.raises(ConfigError):
            sample_corpus(params, 3, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            sample_corpus(tiny_params(), 3, 10, seed=-1)


def _sparse_params():
    """Point-mass rows and rows with zero-probability words, first and last."""
    local = np.zeros((2, 2, 8))
    local[0, 0, 3] = 1.0
    local[0, 1, 1:7] = 1.0 / 6
    local[1, 0, :4] = [0.5, 0.0, 0.25, 0.25]
    local[1, 1, 7] = 1.0
    glob = np.zeros((2, 8))
    glob[0, 0] = 1.0
    glob[1, 2:5] = [0.2, 0.0, 0.8]
    return ModelParams(
        pi=np.array([0.4, 0.6]),
        gamma=np.array([2.0, 2.0]),
        local_priors=np.full((2, 2), 0.7),
        global_prior=np.full(2, 0.7),
        local_topics=local,
        global_topics=glob,
    )


def _zero_pi_params():
    params = random_model_params(3, 2, 2, 10, seed=4)
    params.pi = np.array([0.5, 0.0, 0.5])
    return params


def _random_length(rng):
    return int(rng.integers(1, 40))


def _one_pathway_params(gamma):
    def make():
        params = random_model_params(2, 2, 2, 10, seed=6)
        params.gamma = np.array(gamma)
        return params

    return make


# omega ~ Beta(gamma) sits so near 0 (or 1) that every coin picks one pathway
_all_global_params = _one_pathway_params([1e-3, 1e3])
_all_local_params = _one_pathway_params([1e3, 1e-3])


class TestSamplerMatchesPerTokenReference:
    """``sample_corpus`` equals the per-token ``rng.choice`` process bit for bit."""

    @pytest.mark.parametrize(
        "make_params, num_docs, doc_length",
        [
            pytest.param(lambda: random_model_params(1, 1, 1, 5, seed=0), 12, 9, id="J=K=R=1"),
            pytest.param(_sparse_params, 15, 25, id="point-mass-and-zero-words"),
            pytest.param(_zero_pi_params, 20, 10, id="pi-with-zero"),
            pytest.param(tiny_params, 30, 1, id="length-1"),
            pytest.param(tiny_params, 25, _random_length, id="callable-length"),
            pytest.param(
                lambda: random_model_params(2, 2, 2, 20000, seed=5), 6, 120, id="V=20000"
            ),
            pytest.param(
                lambda: random_model_params(2, 9, 9, 40, seed=6), 10, 60, id="K=R=9"
            ),
            pytest.param(_all_global_params, 20, 30, id="no-local-tokens"),
            pytest.param(_all_local_params, 20, 30, id="no-global-tokens"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical(self, make_params, num_docs, doc_length, seed):
        params = make_params()
        corpus, hidden = sample_corpus(params, num_docs, doc_length, seed=seed)
        ref_corpus, ref_hidden = oracles.reference_sample_corpus(
            params, num_docs, doc_length, seed=seed
        )
        assert corpus.vocab_size == ref_corpus.vocab_size
        assert corpus.num_docs == ref_corpus.num_docs
        for doc, ref in zip(corpus.docs, ref_corpus.docs):
            assert type(doc.label) is type(ref.label) and doc.label == ref.label
            for got, want in ((doc.word_ids, ref.word_ids), (doc.counts, ref.counts)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        for name in ("cluster", "omega", "indicator", "local_z", "global_z"):
            got, want = getattr(hidden, name), getattr(ref_hidden, name)
            if isinstance(want, np.ndarray):
                got, want = [got], [want]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize(
        "make_params, indicator", [(_all_global_params, 0), (_all_local_params, 1)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_skewed_gamma_uses_one_pathway(self, make_params, indicator, seed):
        _, hidden = sample_corpus(make_params(), 20, 30, seed=seed)
        assert all((ind == indicator).all() for ind in hidden.indicator)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_over_several_blocks(self, monkeypatch, seed):
        calls = []
        lookup = model_mod._lookup_block

        def counted(*args):
            calls.append(len(args[-1]))
            return lookup(*args)

        monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", 50)
        monkeypatch.setattr(model_mod, "_lookup_block", counted)
        self.test_bit_identical(tiny_params, 25, _random_length, seed)
        assert len(calls) > 3 and sum(calls) == 25

    @pytest.mark.parametrize("block_tokens", [corpus_mod.CHUNK_CELLS, 2])
    def test_zero_length_raises_after_earlier_draws(self, monkeypatch, block_tokens):
        monkeypatch.setattr(corpus_mod, "CHUNK_CELLS", block_tokens)

        def recording(states, rngs):
            def length(rng):
                states.append(rng.bit_generator.state)
                rngs.append(rng)
                return 0 if len(states) == 4 else 7

            return length

        got, want, rngs = [], [], []
        with pytest.raises(ConfigError, match="document length must be >= 1"):
            sample_corpus(tiny_params(), 6, recording(got, rngs), seed=3)
        with pytest.raises(ConfigError, match="document length must be >= 1"):
            oracles.reference_sample_corpus(tiny_params(), 6, recording(want, []), seed=3)
        # documents 0-2 made every draw of the per-token process, document 3 none
        assert len(got) == 4 and got == want
        assert rngs[-1].bit_generator.state == got[-1]

    def test_topic_count_is_searchsorted_right(self):
        # zero-probability topics repeat cdf entries; some u hit entries exactly
        cdf = _choice_cdf(
            [[0.25, 0.0, 0.25, 0.5], [0.0, 0.0, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0]]
        )
        rng = np.random.default_rng(0)
        u = np.concatenate([[0.0, 0.25, 0.5, 0.75], rng.random(40)])
        rows = rng.integers(0, 3, u.size)
        want = [cdf[r].searchsorted(x, side="right") for r, x in zip(rows, u)]
        np.testing.assert_array_equal(model_mod._count_at_most(cdf, rows, u), want)

    @pytest.mark.parametrize(
        "row, accepted",
        [
            ([0.5, np.nan, 0.5], False),
            ([1.2, -0.2], False),
            ([0.5, 0.4], False),
            ([0.5, 0.5 + 2e-8], False),
            ([0.5, 0.5 + 1e-8], True),
            ([0.0, 1.0, 0.0], True),
        ],
    )
    def test_row_checks_match_choice(self, row, accepted):
        rng = np.random.default_rng(0)
        if accepted:
            cdf = _choice_cdf(row)
            assert cdf[-1] == 1.0
            assert rng.choice(len(row), p=row) == cdf.searchsorted(
                np.random.default_rng(0).random(), side="right"
            )
            return
        with pytest.raises(ValueError):
            rng.choice(len(row), p=row)
        with pytest.raises(ValueError):
            _choice_cdf(row)


class TestInitModel:
    def make_corpus(self):
        corpus, _ = sample_corpus(tiny_params(), 6, 10, seed=8)
        return corpus

    def test_shapes_and_symmetric_fields(self):
        corpus = self.make_corpus()
        cfg = HyperConfig(3, 2, 4, seed=1)
        params, states = init_model(cfg, corpus)
        params.validate()
        assert params.local_topics.shape == (3, 2, corpus.vocab_size)
        assert params.global_topics.shape == (4, corpus.vocab_size)
        assert len(states) == corpus.num_docs
        for doc, st in zip(corpus.docs, states):
            st.validate()
            m = doc.word_ids.size
            assert st.tau.shape == (m,)
            np.testing.assert_array_equal(st.lam, [1.0, 1.0])
            np.testing.assert_array_equal(st.tau, np.full(m, 0.5))
            np.testing.assert_allclose(st.phi_local, 0.5)
            np.testing.assert_allclose(st.phi_global, 0.25)

    def test_seed_determinism(self):
        corpus = self.make_corpus()
        cfg = HyperConfig(2, 2, 2, seed=5)
        p1, s1 = init_model(cfg, corpus)
        p2, s2 = init_model(cfg, corpus)
        np.testing.assert_array_equal(p1.local_topics, p2.local_topics)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.zeta, b.zeta)
        p3, _ = init_model(HyperConfig(2, 2, 2, seed=6), corpus)
        assert not np.array_equal(p1.local_topics, p3.local_topics)

    def test_single_cluster_fixes_responsibility(self):
        corpus = self.make_corpus()
        _, states = init_model(HyperConfig(1, 2, 2), corpus)
        for st in states:
            np.testing.assert_array_equal(st.zeta, [1.0])

    def test_from_labels_weights(self):
        # labels are used whenever they are given, with a default config
        corpus = self.make_corpus()
        cfg = HyperConfig(3, 2, 2)
        labels = np.array([0, 1, 2, 0, 1, 2])
        _, states = init_model(cfg, corpus, init_labels=labels)
        for lab, st in zip(labels, states):
            assert st.zeta[lab] == 0.9
            np.testing.assert_allclose(np.delete(st.zeta, lab), 0.05)

    def test_labels_leave_the_topic_draws_alone(self):
        corpus = self.make_corpus()
        cfg = HyperConfig(2, 2, 2, seed=4)
        labels = ClusterLabels(np.array([0, 1, 1, 0, 1, 0]), 2)
        p_random, _ = init_model(cfg, corpus)
        p_labels, states = init_model(cfg, corpus, init_labels=labels)
        np.testing.assert_array_equal(p_labels.local_topics, p_random.local_topics)
        np.testing.assert_array_equal(p_labels.global_topics, p_random.global_topics)
        assert [int(np.argmax(st.zeta)) for st in states] == [0, 1, 1, 0, 1, 0]

    def test_from_labels_range_checked(self):
        corpus = self.make_corpus()
        cfg = HyperConfig(2, 2, 2)
        with pytest.raises(ConfigError):
            init_model(cfg, corpus, init_labels=np.array([0, 1, 2, 0, 1, 0]))

    def test_from_labels_length_checked(self):
        corpus = self.make_corpus()
        cfg = HyperConfig(2, 2, 2)
        with pytest.raises(ConfigError, match="every document"):
            init_model(cfg, corpus, init_labels=np.array([0, 1]))


class TestPerturbedUniformRows:
    def test_rows_are_near_uniform_distributions(self):
        rng = np.random.default_rng(0)
        rows = perturbed_uniform_rows((4, 3, 10), rng)
        assert rows.shape == (4, 3, 10)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
        assert rows.min() >= 0.95 / 10
        assert np.abs(rows - 0.1).max() <= 0.05 + 1e-12
        flat = rows.reshape(12, 10)
        assert np.unique(flat, axis=0).shape[0] == 12


class TestPredictCluster:
    def test_argmax(self):
        state = DocVariational(
            zeta=np.array([0.1, 0.7, 0.2]),
            lam=np.ones(2),
            mu_local=np.ones((3, 1)),
            mu_global=np.ones(1),
            tau=np.zeros(0),
            phi_local=np.zeros((0, 3, 1)),
            phi_global=np.zeros((0, 1)),
        )
        assert predict_cluster(state) == 1

    def test_tie_takes_lowest_index(self):
        state = DocVariational(
            zeta=np.array([0.4, 0.4, 0.2]),
            lam=np.ones(2),
            mu_local=np.ones((3, 1)),
            mu_global=np.ones(1),
            tau=np.zeros(0),
            phi_local=np.zeros((0, 3, 1)),
            phi_global=np.zeros((0, 1)),
        )
        assert predict_cluster(state) == 0


class TestTopWords:
    def make_params(self):
        local = np.zeros((2, 1, 4))
        local[0, 0] = [0.1, 0.2, 0.3, 0.4]
        local[1, 0] = [0.7, 0.1, 0.1, 0.1]
        glob = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]])
        return ModelParams(
            pi=np.array([0.5, 0.5]),
            gamma=np.array([1.0, 1.0]),
            local_priors=np.ones((2, 1)),
            global_prior=np.ones(2),
            local_topics=local,
            global_topics=glob,
        )

    def test_local_ranking(self):
        params = self.make_params()
        assert top_words(params, "local", 0, cluster=0, n=2) == [3, 2]
        assert top_words(params, "local", 0, cluster=1, n=4) == [0, 1, 2, 3]

    def test_global_ranking(self):
        params = self.make_params()
        assert top_words(params, "global", 1, n=3) == [0, 1, 2]

    def test_uniform_ties_break_by_ascending_id(self):
        params = self.make_params()
        assert top_words(params, "global", 0, n=4) == [0, 1, 2, 3]

    def test_n_capped_at_vocab(self):
        params = self.make_params()
        assert len(top_words(params, "global", 0, n=99)) == 4

    def test_negative_n_rejected(self):
        # a negative slice end would drop the least probable words instead
        params = self.make_params()
        assert top_words(params, "global", 0, n=0) == []
        with pytest.raises(ConfigError, match="n >= 0"):
            top_words(params, "global", 0, n=-1)

    def test_errors(self):
        params = self.make_params()
        with pytest.raises(IndexError):
            top_words(params, "local", 0)
        with pytest.raises(IndexError):
            top_words(params, "local", 0, cluster=2)
        with pytest.raises(IndexError):
            top_words(params, "local", 1, cluster=0)
        with pytest.raises(IndexError):
            top_words(params, "global", 2)
        with pytest.raises(IndexError):
            top_words(params, "sideways", 0)
