import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgctm.cli as cli_mod
import oracles
from mgctm.baselines import LdaModel, fit_lda, lda_naive_cluster, theta_kmeans
from mgctm.cli import main
from mgctm.corpus import Corpus, Document, load_bow, load_labels, save_bow, save_labels, save_vocab
from mgctm.errors import NumericalError
from mgctm.evaluation import clustering_accuracy, nmi
from mgctm.model import HyperConfig, VariationalStore, init_model, random_model_params
from mgctm.serialize import load_hidden, load_model, save_hidden, save_lda, save_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_two_block_corpus(tmp_path, docs_per_block=6):
    """Corpus whose two halves use disjoint four-word vocabularies."""
    rows = []
    num_docs = 2 * docs_per_block
    for d in range(num_docs):
        base = 0 if d < docs_per_block else 4
        for w in range(base, base + 4):
            rows.append(f"{d + 1} {w + 1} {2 if w == base else 1}")
    bow = tmp_path / "corpus.bow"
    bow.write_text(f"{num_docs} 8 {len(rows)}\n" + "\n".join(rows) + "\n")
    labels = tmp_path / "corpus.labels"
    labels.write_text(
        "\n".join("0" if d < docs_per_block else "1" for d in range(num_docs)) + "\n"
    )
    vocab = tmp_path / "corpus.vocab"
    vocab.write_text("\n".join(f"w{i}" for i in range(8)) + "\n")
    return {"bow": str(bow), "labels": str(labels), "vocab": str(vocab)}


def synth_args(tmp_path, **over):
    paths = {
        "corpus": str(tmp_path / "s.bow"),
        "vocab": str(tmp_path / "s.vocab"),
        "labels": str(tmp_path / "s.labels"),
    }
    opts = {
        "clusters": 2,
        "local_topics": 1,
        "global_topics": 1,
        "vocab_size": 12,
        "docs": 18,
        "doc_length": 25,
        "seed": 5,
    }
    opts.update(over)
    argv = [
        "synth",
        "--corpus", paths["corpus"],
        "--vocab", paths["vocab"],
        "--labels", paths["labels"],
        "--clusters", str(opts["clusters"]),
        "--local-topics", str(opts["local_topics"]),
        "--global-topics", str(opts["global_topics"]),
        "--vocab-size", str(opts["vocab_size"]),
        "--docs", str(opts["docs"]),
        "--doc-length", str(opts["doc_length"]),
        "--seed", str(opts["seed"]),
    ]
    return argv, paths


class TestSynth:
    def test_writes_loadable_corpus(self, tmp_path, capsys):
        argv, paths = synth_args(tmp_path)
        hidden = str(tmp_path / "s.hidden")
        code, out, err = run(capsys, *argv, "--hidden", hidden)
        assert code == 0
        assert out == "documents=18 vocab=12\n"
        corpus = load_bow(
            paths["corpus"], vocab_path=paths["vocab"], labels_path=paths["labels"]
        )
        assert corpus.num_docs == 18
        assert corpus.vocab.tokens[0] == "w0"
        truth = load_labels(paths["labels"])
        np.testing.assert_array_equal(corpus.labels(), truth)
        loaded = load_hidden(hidden)
        np.testing.assert_array_equal(loaded.cluster, truth)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        argv, paths = synth_args(tmp_path)
        assert run(capsys, *argv)[0] == 0
        first = {k: open(v, "rb").read() for k, v in paths.items()}
        assert run(capsys, *argv)[0] == 0
        second = {k: open(v, "rb").read() for k, v in paths.items()}
        assert first == second

    def test_files_match_per_token_reference(self, tmp_path, capsys):
        opts = dict(clusters=3, local_topics=2, global_topics=3, vocab_size=40, docs=30)
        argv, paths = synth_args(tmp_path, **opts)
        paths["hidden"] = str(tmp_path / "s.hidden")
        assert run(capsys, *argv, "--hidden", paths["hidden"])[0] == 0

        params = random_model_params(3, 2, 3, 40, seed=5)
        corpus, hidden = oracles.reference_sample_corpus(params, 30, 25, seed=5)
        ref = {k: str(tmp_path / f"ref.{k}") for k in paths}
        oracles.reference_save_bow(corpus, ref["corpus"])
        save_vocab([f"w{i}" for i in range(40)], ref["vocab"])
        save_labels([doc.label for doc in corpus.docs], ref["labels"])
        save_hidden(hidden, ref["hidden"])
        for key, path in paths.items():
            assert open(path, "rb").read() == open(ref[key], "rb").read(), key

    def test_zero_docs_rejected_without_output(self, tmp_path, capsys):
        argv, paths = synth_args(tmp_path, docs=0)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err
        assert not (tmp_path / "s.bow").exists()

    def test_params_file_source(self, tmp_path, capsys):
        params = random_model_params(2, 2, 1, 9, seed=1)
        model_path = str(tmp_path / "gen.json")
        save_model(params, model_path)
        code, out, _ = run(
            capsys,
            "synth",
            "--corpus", str(tmp_path / "p.bow"),
            "--vocab", str(tmp_path / "p.vocab"),
            "--labels", str(tmp_path / "p.labels"),
            "--params", model_path,
            "--docs", "7",
            "--doc-length", "11",
        )
        assert code == 0
        assert out == "documents=7 vocab=9\n"

    def test_missing_required_flag(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "synth",
            "--corpus", str(tmp_path / "x.bow"),
            "--vocab", str(tmp_path / "x.vocab"),
            "--labels", str(tmp_path / "x.labels"),
            "--clusters", "2",
            "--local-topics", "1",
            "--global-topics", "1",
            "--vocab-size", "5",
            "--doc-length", "10",
        )
        assert code == 2
        assert "--docs is required" in err


class TestRefusedSeedsAndShapes:
    """A negative seed or an empty synth shape exits 2 with one stderr
    line, before any output file is written."""

    def refused(self, capsys, argv, outputs, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err, err
        assert not [path for path in outputs if os.path.exists(path)]

    def test_train(self, tmp_path, capsys):
        argv, model_path, _ = TestTrain().train_args(tmp_path, capsys, seed=-1)
        self.refused(capsys, argv, [model_path], "--seed must be >= 0")

    def test_eval(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        argv = [
            "eval", "--method", "kmeans", "--corpus", paths["bow"],
            "--labels", paths["labels"], "--seed", "-1",
        ]
        self.refused(capsys, argv, [], "--seed must be >= 0")

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"seed": -1}, "--seed must be >= 0"),
            ({"clusters": 0}, "must be >= 1"),
            ({"vocab_size": 0}, "must be >= 1"),
        ],
    )
    def test_synth(self, tmp_path, capsys, over, message):
        argv, paths = synth_args(tmp_path, **over)
        self.refused(capsys, argv, list(paths.values()), message)

    def test_bench(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        out = str(tmp_path / "r.tsv")
        argv = [
            "bench", "--corpus", paths["bow"], "--labels", paths["labels"],
            "--methods", "kmeans", "--seeds=1,-1", "--out", out,
        ]
        self.refused(capsys, argv, [out], "--seeds entries must be >= 0")

    def test_bench_zero_clusters(self, tmp_path, capsys):
        # refused before the LDA fit that would run first
        paths = write_two_block_corpus(tmp_path)
        out = str(tmp_path / "r.tsv")
        argv = [
            "bench", "--corpus", paths["bow"], "--labels", paths["labels"],
            "--methods", "lda-naive,kmeans", "--clusters", "0", "--out", out,
        ]
        self.refused(capsys, argv, [out], "error: --clusters must be >= 1")


class TestTrain:
    def train_args(self, tmp_path, capsys, model="model.json", **over):
        argv, paths = synth_args(tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        model_path = str(tmp_path / model)
        flags = {
            "clusters": "2",
            "local-topics": "1",
            "global-topics": "1",
            "max-em-iters": "3",
            "e-step-iters": "3",
            "tol": "0",
        }
        flags.update({k.replace("_", "-"): str(v) for k, v in over.items()})
        argv = ["train", "--corpus", paths["corpus"], "--model", model_path]
        for key, value in flags.items():
            argv += [f"--{key}", value]
        return argv, model_path, paths

    def test_prints_trace_and_saves_model(self, tmp_path, capsys):
        argv, model_path, _ = self.train_args(tmp_path, capsys)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        for i, line in enumerate(lines[:4]):
            assert re.fullmatch(rf"iter={i} elbo=-?\d+\.\d{{6}}", line)
        assert lines[4] == "converged=false iterations=3"
        values = [float(l.split("elbo=")[1]) for l in lines[:4]]
        assert values == sorted(values)
        params, report = load_model(model_path)
        assert report.iterations_run == 3
        assert len(report.elbo_trace) == 4
        params.validate()

    def test_fit_states_freed_before_the_model_is_written(self, tmp_path, capsys, monkeypatch):
        # a corpus-sized store would stay alive through the model's encoding
        argv, model_path, _ = self.train_args(tmp_path, capsys)
        # held, so that no new store can take one of their ids
        stores = {id(o): o for o in gc.get_objects() if isinstance(o, VariationalStore)}
        real = cli_mod.serialize.save_model
        alive = []

        def save_model(*args, **kwargs):
            gc.collect()
            alive.extend(
                o for o in gc.get_objects()
                if isinstance(o, VariationalStore) and id(o) not in stores
            )
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod.serialize, "save_model", save_model)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert alive == []
        assert Path(model_path).is_file()

    def test_zero_iterations_saves_initial_model(self, tmp_path, capsys):
        argv, model_path, paths = self.train_args(tmp_path, capsys, max_em_iters="0")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        saved, _ = load_model(model_path)
        corpus = load_bow(paths["corpus"])
        config = HyperConfig(2, 1, 1, seed=0)
        expected, _ = init_model(config, corpus)
        np.testing.assert_array_equal(saved.local_topics, expected.local_topics)
        np.testing.assert_array_equal(saved.global_topics, expected.global_topics)
        np.testing.assert_array_equal(saved.pi, expected.pi)

    def test_non_finite_tol_rejected(self, tmp_path, capsys):
        argv, model_path, _ = self.train_args(tmp_path, capsys, tol="nan")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "elbo_rel_tol must be finite" in err
        assert not os.path.exists(model_path)

    def test_missing_corpus_flag_writes_nothing(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, _, err = run(
            capsys,
            "train",
            "--model", model_path,
            "--clusters", "2",
            "--local-topics", "1",
            "--global-topics", "1",
        )
        assert code == 2
        assert "--corpus is required" in err
        assert not (tmp_path / "m.json").exists()

    def test_nonexistent_corpus_path(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(tmp_path / "missing.bow"),
            "--model", str(tmp_path / "m.json"),
            "--clusters", "2",
            "--local-topics", "1",
            "--global-topics", "1",
        )
        assert code == 2
        assert "error:" in err

    def test_lda_naive_init(self, tmp_path, capsys):
        argv, model_path, _ = self.train_args(
            tmp_path, capsys, **{"init": "lda-naive", "max_em_iters": "2"}
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "converged=" in out

    def test_numerical_failure_exits_1_without_model_file(
        self, tmp_path, capsys, monkeypatch
    ):
        argv, model_path, _ = self.train_args(tmp_path, capsys)

        def failing_fit(*args, **kwargs):
            raise NumericalError("bound decreased from -1 to -2 at iteration 1")

        monkeypatch.setattr(cli_mod, "fit", failing_fit)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: bound decreased from -1 to -2 at iteration 1\n"
        assert not os.path.exists(model_path)

    def test_config_file_fills_unset_flags(self, tmp_path, capsys):
        argv, paths = synth_args(tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "format": "run-config",
                    "version": 1,
                    "clusters": 2,
                    "local_topics": 1,
                    "global_topics": 1,
                    "max_em_iters": 2,
                    "e_step_iters": 2,
                    "tol": 0.0,
                }
            )
        )
        model_path = str(tmp_path / "m.json")
        code, out, _ = run(
            capsys,
            "train",
            "--corpus", paths["corpus"],
            "--model", model_path,
            "--config", str(config_path),
        )
        assert code == 0
        assert out.count("iter=") == 3

        # An explicit flag beats the config file.
        code, out, _ = run(
            capsys,
            "train",
            "--corpus", paths["corpus"],
            "--model", model_path,
            "--config", str(config_path),
            "--max-em-iters", "1",
        )
        assert code == 0
        assert out.count("iter=") == 2

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"format": "run-config", "version": 1, "bogus": 3})
        )
        code, _, err = run(
            capsys,
            "train",
            "--corpus", "whatever.bow",
            "--model", "m.json",
            "--config", str(config_path),
        )
        assert code == 2
        assert "unknown keys" in err

    def test_config_bad_json_and_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "train", "--config", str(bad))
        assert code == 2
        assert "not valid JSON" in err

        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": "something-else", "version": 1}))
        code, _, err = run(capsys, "train", "--config", str(wrong))
        assert code == 2
        assert "run-config" in err

    @pytest.mark.parametrize(
        "key, value, text",
        [
            ("max_em_iters", 2.5, "max_em_iters must be an integer, not 2.5"),
            ("max_em_iters", True, "max_em_iters must be an integer, not true"),
            ("seed", "3", 'seed must be an integer, not "3"'),
            ("tol", "0", 'tol must be a number, not "0"'),
            ("init", "kmeans", 'init must be one of random, lda-naive, not "kmeans"'),
            ("corpus", 5, "corpus must be a string, not 5"),
        ],
    )
    def test_config_value_of_the_wrong_type_rejected(self, tmp_path, capsys, key, value, text):
        argv, paths = synth_args(tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"format": "run-config", "version": 1, "clusters": 2, key: value})
        )
        model_path = tmp_path / "m.json"
        code, out, err = run(
            capsys,
            "train",
            "--corpus", paths["corpus"],
            "--model", str(model_path),
            "--local-topics", "1",
            "--global-topics", "1",
            "--config", str(config_path),
        )
        assert code == 2 and out == ""
        assert err == f"error: {config_path}: {text}\n"
        assert not model_path.exists()

    def test_config_values_take_their_flags_types(self, tmp_path, capsys):
        # an integer for a float flag, and null for an unset flag, are taken
        argv, paths = synth_args(tmp_path)
        assert main(argv) == 0
        capsys.readouterr()
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "format": "run-config", "version": 1, "clusters": 2,
                    "local_topics": 1, "global_topics": 1, "max_em_iters": 2,
                    "tol": 0, "threads": None, "init": "random",
                }
            )
        )
        code, out, _ = run(
            capsys,
            "train",
            "--corpus", paths["corpus"],
            "--model", str(tmp_path / "m.json"),
            "--config", str(config_path),
        )
        assert code == 0
        assert out.count("iter=") == 3

    def test_every_flag_type_has_a_config_kind(self):
        parser = cli_mod.build_parser()
        for command in ("train", "eval", "topics", "synth", "bench"):
            flags = cli_mod._flag_actions(parser, command)
            assert "config" in flags and "help" not in flags
            for action in flags.values():
                assert action.type in cli_mod._CONFIG_KINDS, (command, action.dest)

    def test_unknown_flag_returns_parse_error(self, capsys):
        code = main(["train", "--frobnicate", "1"])
        capsys.readouterr()
        assert code == 2


class TestEval:
    def test_kmeans_on_separable_corpus(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        code, out, _ = run(
            capsys,
            "eval",
            "--method", "kmeans",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
        )
        assert code == 0
        assert out == "ac=100.00\nnmi=100.00\n"

    def test_single_cluster_scores_zero_nmi(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        code, out, _ = run(
            capsys,
            "eval",
            "--method", "kmeans",
            "--clusters", "1",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
        )
        assert code == 0
        assert out == "ac=50.00\nnmi=0.00\n"

    @pytest.mark.parametrize("method", ["lda-naive", "lda-kmeans"])
    def test_lda_methods_fit_on_the_fly(self, tmp_path, capsys, method):
        # short documents, so that neither method scores 100
        argv, paths = synth_args(
            tmp_path, clusters=4, global_topics=2, docs=40, doc_length=3
        )
        assert main(argv) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "eval",
            "--method", method,
            "--corpus", paths["corpus"],
            "--labels", paths["labels"],
            "--lda-topics", "3",
            "--seed", "4",
        )
        assert code == 0
        corpus = load_bow(paths["corpus"])
        truth = np.asarray(load_labels(paths["labels"]))
        k = len(np.unique(truth))
        if method == "lda-naive":
            pred = lda_naive_cluster(fit_lda(corpus, k, seed=4)[0])
        else:
            pred = theta_kmeans(fit_lda(corpus, 3, seed=4)[0], k, seed=4)
        ac = 100.0 * clustering_accuracy(pred, truth)
        assert ac < 100.0
        assert out == f"ac={ac:.2f}\nnmi={100.0 * nmi(pred, truth):.2f}\n"

    def test_mgctm_train_then_eval(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        model_path = str(tmp_path / "m.json")
        code, _, _ = run(
            capsys,
            "train",
            "--corpus", paths["bow"],
            "--model", model_path,
            "--clusters", "2",
            "--local-topics", "1",
            "--global-topics", "1",
            "--max-em-iters", "12",
            "--e-step-iters", "5",
            "--tol", "0",
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "eval",
            "--method", "mgctm",
            "--model", model_path,
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
        )
        assert code == 0
        match = re.fullmatch(r"ac=(\d+\.\d{2})\nnmi=(\d+\.\d{2})\n", out)
        assert match
        assert float(match.group(1)) >= 90.0

    def test_mgctm_vocab_mismatch(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        model_path = str(tmp_path / "m.json")
        save_model(random_model_params(2, 1, 1, 5), model_path)
        code, _, err = run(
            capsys,
            "eval",
            "--method", "mgctm",
            "--model", model_path,
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
        )
        assert code == 2
        assert "vocabulary sizes differ" in err

    def test_lda_naive_from_saved_model(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        theta = np.zeros((12, 2)) + 0.1
        theta[:6, 0] = 5.0
        theta[6:, 1] = 5.0
        lda_path = str(tmp_path / "lda.json")
        save_lda(LdaModel(np.full((2, 8), 0.125), theta, 0.1), lda_path)
        code, out, _ = run(
            capsys,
            "eval",
            "--method", "lda-naive",
            "--model", lda_path,
            "--labels", paths["labels"],
        )
        assert code == 0
        assert out == "ac=100.00\nnmi=100.00\n"

    def test_prediction_label_count_mismatch(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        theta = np.ones((5, 2))
        lda_path = str(tmp_path / "lda.json")
        save_lda(LdaModel(np.full((2, 8), 0.125), theta, 0.1), lda_path)
        code, _, err = run(
            capsys,
            "eval",
            "--method", "lda-naive",
            "--model", lda_path,
            "--labels", paths["labels"],
        )
        assert code == 2
        assert "5 predictions for 12 labels" in err

    def test_empty_labels_rejected(self, tmp_path, capsys):
        labels = tmp_path / "empty.labels"
        labels.write_text("")
        code, _, err = run(
            capsys, "eval", "--method", "kmeans", "--labels", str(labels)
        )
        assert code == 2
        assert "empty" in err

    def test_method_required(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        code, _, err = run(capsys, "eval", "--labels", paths["labels"])
        assert code == 2
        assert "--method is required" in err

    @pytest.mark.parametrize(
        "method, flags, message",
        [
            pytest.param("mgctm", [], "error: --model is required", id="model"),
            pytest.param(
                "kmeans", ["--clusters", "0"], "error: --clusters must be >= 1", id="clusters"
            ),
        ],
    )
    def test_flag_faults_reported_before_the_corpus_read(
        self, tmp_path, capsys, method, flags, message
    ):
        # the corpus read would refuse this one-line labels file
        paths = write_two_block_corpus(tmp_path)
        labels = tmp_path / "short.labels"
        labels.write_text("0\n")
        code, out, err = run(
            capsys, "eval", "--method", method, "--corpus", paths["bow"],
            "--labels", str(labels), *flags,
        )
        assert code == 2
        assert out == ""
        assert err == message + "\n"


class TestTopics:
    def make_model(self, tmp_path):
        local = np.zeros((2, 1, 4))
        local[0, 0] = [0.0, 0.0, 0.0, 1.0]
        local[1, 0] = [0.1, 0.2, 0.3, 0.4]
        glob = np.array([[0.25, 0.25, 0.25, 0.25]])
        from mgctm.model import ModelParams

        params = ModelParams(
            pi=np.array([0.5, 0.5]),
            gamma=np.array([1.0, 1.0]),
            local_priors=np.ones((2, 1)),
            global_prior=np.ones(1),
            local_topics=local,
            global_topics=glob,
        )
        model_path = str(tmp_path / "m.json")
        save_model(params, model_path)
        vocab_path = tmp_path / "v.vocab"
        vocab_path.write_text("ant\nbee\ncat\ndog\n")
        return model_path, str(vocab_path)

    def test_full_listing(self, tmp_path, capsys):
        model_path, vocab_path = self.make_model(tmp_path)
        code, out, _ = run(
            capsys,
            "topics",
            "--model", model_path,
            "--vocab", vocab_path,
            "--top-n", "2",
        )
        assert code == 0
        assert out.split("\n") == [
            "# global topics",
            "topic 0: ant bee",
            "# cluster 0 local topics",
            "topic 0: dog ant",
            "# cluster 1 local topics",
            "topic 0: dog cat",
            "",
        ]

    def test_negative_top_n_rejected(self, tmp_path, capsys):
        model_path, vocab_path = self.make_model(tmp_path)
        code, out, err = run(
            capsys,
            "topics",
            "--model", model_path,
            "--vocab", vocab_path,
            "--top-n", "-1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --top-n must be >= 0\n"

    def test_scope_global_only(self, tmp_path, capsys):
        model_path, vocab_path = self.make_model(tmp_path)
        code, out, _ = run(
            capsys,
            "topics",
            "--model", model_path,
            "--vocab", vocab_path,
            "--scope", "global",
        )
        assert code == 0
        assert "# global topics" in out
        assert "local topics" not in out

    def test_scope_local_single_cluster(self, tmp_path, capsys):
        model_path, vocab_path = self.make_model(tmp_path)
        code, out, _ = run(
            capsys,
            "topics",
            "--model", model_path,
            "--vocab", vocab_path,
            "--scope", "local",
            "--cluster", "1",
        )
        assert code == 0
        assert "# cluster 1 local topics" in out
        assert "# cluster 0" not in out
        assert "# global topics" not in out

    def test_top_n_capped_at_vocab(self, tmp_path, capsys):
        model_path, vocab_path = self.make_model(tmp_path)
        code, out, _ = run(
            capsys,
            "topics",
            "--model", model_path,
            "--vocab", vocab_path,
            "--scope", "global",
            "--top-n", "99",
        )
        assert code == 0
        assert "topic 0: ant bee cat dog" in out

    def test_cluster_out_of_range(self, tmp_path, capsys):
        model_path, vocab_path = self.make_model(tmp_path)
        code, _, err = run(
            capsys,
            "topics",
            "--model", model_path,
            "--vocab", vocab_path,
            "--cluster", "7",
        )
        assert code == 2
        assert "out of range" in err

    def test_vocab_size_mismatch(self, tmp_path, capsys):
        model_path, _ = self.make_model(tmp_path)
        short = tmp_path / "short.vocab"
        short.write_text("ant\nbee\n")
        code, _, err = run(
            capsys, "topics", "--model", model_path, "--vocab", str(short)
        )
        assert code == 2
        assert "model expects 4" in err


class TestBadModelFile:
    """A model file that fails its checks exits 2 with one stderr line."""

    def broken_model(self, tmp_path, field, value):
        path = tmp_path / "m.json"
        save_model(random_model_params(2, 1, 1, 8, seed=3), str(path))
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        return str(path)

    def assert_one_line_error(self, code, err, message):
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    def test_topics_invalid_parameters(self, tmp_path, capsys):
        model = self.broken_model(tmp_path, "pi", [0.9, 0.9])
        paths = write_two_block_corpus(tmp_path)
        code, out, err = run(capsys, "topics", "--model", model, "--vocab", paths["vocab"])
        assert out == ""
        self.assert_one_line_error(code, err, "pi must be a probability vector")

    def test_eval_bad_base64(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        model = self.broken_model(
            tmp_path, "global_topics", {"dtype": "<f8", "shape": [1, 8], "data": "@@@@"}
        )
        code, _, err = run(
            capsys,
            "eval",
            "--method", "mgctm",
            "--model", model,
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
        )
        self.assert_one_line_error(code, err, "global_topics: array data is not valid base64")

    def test_synth_params_ragged_list(self, tmp_path, capsys):
        model = self.broken_model(tmp_path, "local_priors", [[1.0], [1.0, 2.0]])
        argv, paths = synth_args(tmp_path)
        code, _, err = run(capsys, *argv, "--params", model)
        self.assert_one_line_error(code, err, "local_priors: not a numeric array")
        assert not any(os.path.exists(p) for p in paths.values())

    def test_eval_lda_wrong_dtype(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        lda_path = tmp_path / "lda.json"
        save_lda(LdaModel(np.full((2, 8), 0.125), np.ones((12, 2)), 0.1), str(lda_path))
        payload = json.loads(lda_path.read_text())
        payload["doc_theta"]["dtype"] = "<i8"
        lda_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys,
            "eval",
            "--method", "lda-naive",
            "--model", str(lda_path),
            "--labels", paths["labels"],
        )
        self.assert_one_line_error(code, err, "doc_theta: array dtype '<i8' where '<f8' expected")


    def test_eval_mgctm_non_finite_prior(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        model = self.broken_model(tmp_path, "gamma", [float("nan"), 1.0])
        code, _, err = run(
            capsys,
            "eval",
            "--method", "mgctm",
            "--model", model,
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
        )
        self.assert_one_line_error(code, err, "gamma must be finite and > 0")

    @pytest.mark.parametrize("method", ["lda-naive", "lda-kmeans"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("doc_theta", np.ones((12, 3)), "doc_theta must have one column per topic"),
            ("alpha", -0.5, "alpha must be finite and > 0"),
        ],
    )
    def test_eval_lda_bad_values(self, tmp_path, capsys, method, field, value, message):
        paths = write_two_block_corpus(tmp_path)
        lda_path = str(tmp_path / "lda.json")
        model = LdaModel(np.full((2, 8), 0.125), np.ones((12, 2)), 0.1)
        setattr(model, field, value)
        save_lda(model, lda_path)
        code, _, err = run(
            capsys,
            "eval",
            "--method", method,
            "--model", lda_path,
            "--labels", paths["labels"],
        )
        self.assert_one_line_error(code, err, message)


class TestBench:
    @pytest.mark.parametrize("flag, value", [("--max-em-iters", "-1"), ("--tol", "-0.5")])
    def test_lda_negative_schedule_rejected(self, tmp_path, capsys, flag, value):
        paths = write_two_block_corpus(tmp_path)
        code, out, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "lda-naive",
            "--out", str(tmp_path / "report.tsv"),
            flag, value,
        )
        assert code == 2
        assert err.count("\n") == 1 and "must be >= 0" in err

    def test_config_lda_topics_of_the_wrong_type_rejected(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        report = tmp_path / "report.tsv"
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"format": "run-config", "version": 1, "lda_topics": "abc"})
        )
        code, out, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "lda-kmeans",
            "--out", str(report),
            "--config", str(config_path),
        )
        assert code == 2 and out == ""
        assert err == f'error: {config_path}: lda_topics must be an integer, not "abc"\n'
        assert not report.exists()

    @pytest.mark.parametrize("method", ["mgctm", "lda-naive", "lda-kmeans"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, method):
        paths = write_two_block_corpus(tmp_path)
        report = tmp_path / "report.tsv"
        code, out, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", method,
            "--out", str(report),
            "--tol", "nan",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "elbo_rel_tol must be finite" in err
        assert not report.exists()

    def test_two_methods_two_seeds(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        out_path = tmp_path / "report.tsv"
        code, out, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "kmeans,lda-naive",
            "--seeds", "0,1",
            "--out", str(out_path),
            "--max-em-iters", "15",
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "method\tseed\tac\tnmi\tstatus"
        assert lines[1] == "kmeans\t0\t100.00\t100.00\tok"
        assert lines[2] == "kmeans\t1\t100.00\t100.00\tok"
        assert lines[3] == "kmeans\tmean\t100.00\t100.00\tok"
        assert lines[4].startswith("lda-naive\t0\t")
        assert lines[6].startswith("lda-naive\tmean\t")
        assert len(lines) == 7
        assert "kmeans.ac=100.00" in out
        assert "kmeans.nmi=100.00" in out
        assert "lda-naive.ac=" in out

    def test_duplicate_method_warned_and_deduped(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        out_path = tmp_path / "report.tsv"
        code, _, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "kmeans,kmeans",
            "--out", str(out_path),
        )
        assert code == 0
        assert "duplicate method 'kmeans' ignored" in err
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        out_path = tmp_path / "report.tsv"
        argv = (
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "kmeans,lda-kmeans",
            "--lda-topics", "2",
            "--max-em-iters", "10",
            "--out", str(out_path),
        )
        assert run(capsys, *argv)[0] == 0
        first = out_path.read_bytes()
        assert run(capsys, *argv)[0] == 0
        assert out_path.read_bytes() == first

    def test_mgctm_method_runs(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        out_path = tmp_path / "report.tsv"
        code, out, _ = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "mgctm",
            "--max-em-iters", "5",
            "--out", str(out_path),
        )
        assert code == 0
        assert "mgctm.ac=" in out
        lines = out_path.read_text().strip().split("\n")
        assert lines[1].startswith("mgctm\t0\t")

    def test_partial_failure_reports_and_exits_nonzero(self, tmp_path, capsys):
        rows = ["1 1 2", "1 2 1", "2 3 2", "2 4 1"]
        bow = tmp_path / "tiny.bow"
        bow.write_text("2 4 4\n" + "\n".join(rows) + "\n")
        labels = tmp_path / "tiny.labels"
        labels.write_text("0\n1\n")
        out_path = tmp_path / "report.tsv"
        code, out, err = run(
            capsys,
            "bench",
            "--corpus", str(bow),
            "--labels", str(labels),
            "--methods", "kmeans,lda-naive",
            "--clusters", "3",
            "--max-em-iters", "5",
            "--out", str(out_path),
        )
        assert code == 1
        assert "kmeans seed=0 failed" in err
        lines = out_path.read_text().strip().split("\n")
        assert "kmeans\t0\t-\t-\tfailed" in lines
        assert "kmeans\tmean\t-\t-\tfailed" in lines
        assert any(l.startswith("lda-naive\t0\t") and l.endswith("ok") for l in lines)
        assert "kmeans.ac=" not in out
        assert "lda-naive.ac=" in out

    def test_tfidf_built_once_across_seeds(self, tmp_path, capsys, monkeypatch):
        import mgctm.corpus as corpus_mod

        argv, paths = synth_args(tmp_path, docs=30)
        assert run(capsys, *argv)[0] == 0
        calls = []
        real = corpus_mod.tfidf_csr

        def counting(corpus):
            calls.append(corpus.num_docs)
            return real(corpus)

        monkeypatch.setattr(corpus_mod, "tfidf_csr", counting)
        out_path = tmp_path / "report.tsv"
        code, _, _ = run(
            capsys,
            "bench",
            "--corpus", paths["corpus"],
            "--labels", paths["labels"],
            "--methods", "kmeans,lda-naive,lda-kmeans",
            "--lda-topics", "3",
            "--seeds", "0,1,2",
            "--max-em-iters", "10",
            "--out", str(out_path),
        )
        assert code == 0
        assert calls == [30]
        # the report written when tf-idf was rebuilt for every seed
        assert out_path.read_bytes() == (
            b"method\tseed\tac\tnmi\tstatus\n"
            b"kmeans\t0\t100.00\t100.00\tok\n"
            b"kmeans\t1\t100.00\t100.00\tok\n"
            b"kmeans\t2\t100.00\t100.00\tok\n"
            b"kmeans\tmean\t100.00\t100.00\tok\n"
            b"lda-naive\t0\t100.00\t100.00\tok\n"
            b"lda-naive\t1\t80.00\t43.25\tok\n"
            b"lda-naive\t2\t100.00\t100.00\tok\n"
            b"lda-naive\tmean\t93.33\t81.08\tok\n"
            b"lda-kmeans\t0\t96.67\t81.56\tok\n"
            b"lda-kmeans\t1\t100.00\t100.00\tok\n"
            b"lda-kmeans\t2\t100.00\t100.00\tok\n"
            b"lda-kmeans\tmean\t98.89\t93.85\tok\n"
        )

    def test_unknown_method_rejected(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        code, _, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "qmeans",
            "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 2
        assert "unknown method" in err

    def test_empty_method_list_rejected(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        code, _, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", ",",
            "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 2
        assert "selected nothing" in err

    def test_bad_seed_list_rejected(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        code, _, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", paths["labels"],
            "--methods", "kmeans",
            "--seeds", "0,x",
            "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 2
        assert "--seeds must be integers" in err

    def test_label_count_mismatch_rejected(self, tmp_path, capsys):
        paths = write_two_block_corpus(tmp_path)
        bad_labels = tmp_path / "bad.labels"
        bad_labels.write_text("0\n1\n")
        code, _, err = run(
            capsys,
            "bench",
            "--corpus", paths["bow"],
            "--labels", str(bad_labels),
            "--methods", "kmeans",
            "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 2
        assert "labels file has 2 entries for 12 documents" in err


class TestDroppedDocument:
    """eval and bench on a corpus with an empty document print what they
    print on the corpus without that document and its label."""

    @pytest.fixture
    def corpora(self, tmp_path):
        """(full, reduced) corpus paths; the full corpus's document 4 is
        empty and labelled with a class no kept document has."""
        reduced = write_two_block_corpus(tmp_path)
        bow = load_bow(reduced["bow"])
        bow.docs.insert(3, Document([], []))
        labels = load_labels(reduced["labels"]).tolist()
        labels.insert(3, 7)
        full = {"bow": str(tmp_path / "full.bow"), "labels": str(tmp_path / "full.labels")}
        save_bow(bow, full["bow"])
        save_labels(labels, full["labels"])
        assert load_bow(full["bow"]).dropped_docs == 1
        return full, reduced

    @pytest.mark.parametrize("method", ["mgctm", "kmeans", "lda-naive", "lda-kmeans"])
    def test_eval(self, tmp_path, capsys, corpora, method):
        full, reduced = corpora
        model = []
        if method == "mgctm":
            model = ["--model", str(tmp_path / "m.json")]
            code, _, _ = run(
                capsys, "train", "--corpus", reduced["bow"], *model,
                "--clusters", "2", "--local-topics", "1", "--global-topics", "1",
                "--max-em-iters", "5",
            )
            assert code == 0
        outs = []
        for paths in (full, reduced):
            code, out, _ = run(
                capsys, "eval", "--method", method, "--corpus", paths["bow"],
                "--labels", paths["labels"], "--lda-topics", "2", *model,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_bench(self, tmp_path, capsys, corpora):
        results = []
        for paths in corpora:
            report = tmp_path / "report.tsv"
            code, out, _ = run(
                capsys, "bench", "--corpus", paths["bow"], "--labels", paths["labels"],
                "--methods", "mgctm,kmeans,lda-naive,lda-kmeans", "--seeds", "0,1",
                "--lda-topics", "2", "--max-em-iters", "5", "--out", str(report),
            )
            assert code == 0
            results.append((out, report.read_bytes()))
        assert results[0] == results[1]


class TestWideVocabulary:
    """k-means scoring clusters a sparse tf-idf: on 500 documents over
    V = 1,000,000 a dense one would take 3.73 GiB, more than the 3 GiB
    address space the child process gives itself."""

    # the child caps its own address space, then runs one CLI command
    CAPPED_MAIN = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
        "from mgctm.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )

    @pytest.fixture(scope="class")
    def wide_corpus(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("wide")
        rng = np.random.default_rng(0)
        docs = [
            Document(np.sort(rng.choice(10**6, 20, replace=False)), rng.integers(1, 4, 20))
            for _ in range(500)
        ]
        paths = {"corpus": str(tmp / "wide.bow"), "labels": str(tmp / "wide.labels")}
        save_bow(Corpus(docs, 10**6), paths["corpus"])
        save_labels(np.arange(500) % 2, paths["labels"])
        return tmp, paths

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--method", "kmeans"], ["bench", "--methods", "kmeans", "--seeds", "0"]],
        ids=["eval", "bench"],
    )
    def test_kmeans_runs_under_a_3_gib_address_space(self, wide_corpus, argv):
        tmp, paths = wide_corpus
        argv = argv + ["--corpus", paths["corpus"], "--labels", paths["labels"]]
        if argv[0] == "bench":
            argv += ["--out", str(tmp / "bench.tsv")]
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        result = subprocess.run(
            [sys.executable, "-c", self.CAPPED_MAIN, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
