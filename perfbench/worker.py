"""Benchmark child process.

``--mode setup`` imports mgctm, ingests the corpus and label files and
reports when it got there. ``--mode run`` does the same, then repeats
rounds of the five stages a user goes through (ingest, train, eval,
bench baselines, synth) until the next round would overrun
``--seconds``. It prints one JSON line.

Every round repeats the same deterministic work, so a stage's output is
checked in full the first time it succeeds, and in later rounds must
reproduce that output bit for bit (compared by digest). That keeps the
checks' cost out of all but the first round.

The parent starts this process with its address space capped
(RLIMIT_AS), so running out of memory raises MemoryError inside a stage
and counts as a failed operation instead of taking the machine down.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks

STAGES = ("ingest", "train", "infer", "baselines", "synth")
MIB = 1024.0 * 1024.0


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    return parser.parse_args()


def digest(*items):
    """SHA-256 over bytes, arrays (dtype, shape and data) and plain values."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, bytes):
            h.update(item)
        elif hasattr(item, "tobytes"):
            h.update(repr((item.dtype.str, item.shape)).encode())
            h.update(item.tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def load_corpora(corpus_mod, workdir):
    """Ingest as the CLI does: load_bow and load_labels on both corpora."""
    def path(name):
        return os.path.join(workdir, name)

    return {
        "train": corpus_mod.load_bow(path("train.bow")),
        "train_labels": corpus_mod.load_labels(path("train.labels")),
        "heldout": corpus_mod.load_bow(path("heldout.bow")),
        "heldout_labels": corpus_mod.load_labels(path("heldout.labels")),
    }


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class Stages:
    """The five stages and their checks, over one workload's inputs.

    Each stage returns (timed figures, digest of its outputs or None) and
    runs its full checks when ``self.full`` is set.
    """

    def __init__(self, mgctm, spec, inputs, workdir, data):
        self.m = mgctm
        self.dir = workdir
        self.spec = spec
        self.inp = inputs
        self.tracer = None
        shape = spec["shape"]
        self.k = shape["J"]
        self.vocab_size = shape["V"]
        self.seed = spec["seed"]
        self.paths = {
            name: os.path.join(workdir, name) for name in ("model.json", "synth.bow")
        }
        self.synth_params = mgctm.model.ModelParams(
            **{key: inputs["synth_" + key] for key in
               ("pi", "gamma", "local_priors", "global_prior", "local_topics", "global_topics")}
        )
        self.train_triples = tuple(inputs["train_" + f] for f in ("doc", "word", "count"))
        self.held_triples = tuple(inputs["heldout_" + f] for f in ("doc", "word", "count"))
        self.train_tokens = int(self.train_triples[2].sum())
        self.data = data
        self.full = True

    @contextlib.contextmanager
    def checking(self):
        """Calls into mgctm made inside are not traced."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def ingest(self):
        start = time.perf_counter()
        self.data = d = load_corpora(self.m.corpus, self.dir)
        elapsed = time.perf_counter() - start
        # as cheap as a digest, so checked in full every round
        checks.check_corpus_equals(d["train"], self.train_triples, self.vocab_size, "train")
        checks.check_corpus_equals(d["heldout"], self.held_triples, self.vocab_size, "heldout")
        checks.check_labels_equal(d["train_labels"], self.inp["train_labels"], "train")
        checks.check_labels_equal(d["heldout_labels"], self.inp["heldout_labels"], "heldout")
        return {"ingest_s": elapsed}, None

    def train(self):
        m, spec = self.m, self.spec
        shape = spec["shape"]
        config = m.model.HyperConfig(
            num_clusters=shape["J"],
            local_topics_per_cluster=shape["K"],
            num_global_topics=shape["R"],
            max_em_iters=spec["em_iters"],
            e_step_iters=spec["e_step_iters"],
            elbo_rel_tol=0.0,
            seed=self.seed,
        )
        start = time.perf_counter()
        params, states, report = m.inference.fit(config, self.data["train"], threads=1)
        m.serialize.save_model(params, self.paths["model.json"], report=report)
        elapsed = time.perf_counter() - start

        zeta = np.stack([s.zeta for s in states])
        outputs = digest(file_bytes(self.paths["model.json"]), zeta, report.elbo_trace)
        if self.full:
            with self.checking():
                self.check_train(params, states, report, zeta)
        return {
            "train_s": elapsed,
            "nll_bound_per_token": -report.elbo_trace[-1] / self.train_tokens,
            "model_bytes": os.path.getsize(self.paths["model.json"]),
        }, outputs

    def check_train(self, params, states, report, zeta):
        m, corpus = self.m, self.data["train"]
        checks.check_monotone(report.elbo_trace, "train bound")
        for d in self.inp["check_docs"]:
            doc, state = corpus.docs[d], states[d]
            checks.check_close(
                m.inference.doc_elbo(params, doc, state),
                checks.reference_doc_bound(params, doc.word_ids, doc.counts, state),
                checks.BOUND_RTOL,
                f"doc_elbo of training document {d}",
            )
        checks.check_simplex(params.local_topics, "local topics")
        checks.check_simplex(params.global_topics, "global topics")
        checks.check_simplex(params.pi, "pi")
        checks.check_simplex(zeta, "zeta")
        loaded, _ = m.serialize.load_model(self.paths["model.json"])
        for name in ("pi", "gamma", "local_priors", "global_prior",
                     "local_topics", "global_topics"):
            checks.check_same_bits(getattr(loaded, name), getattr(params, name), name)

    def infer(self):
        m = self.m
        corpus = self.data["heldout"]
        start = time.perf_counter()
        params, _ = m.serialize.load_model(self.paths["model.json"])
        states = m.inference.infer_doc_states(
            params, corpus, sweeps=self.spec["infer_sweeps"], threads=2
        )
        elapsed = time.perf_counter() - start
        pred = np.array([m.model.predict_cluster(s) for s in states])

        outputs = digest(pred, *(s.zeta for s in states), *(s.tau for s in states))
        if self.full:
            for d, (doc, state) in enumerate(zip(corpus.docs, states)):
                start_state = checks.symmetric_state(params, doc.word_ids.size, type(state))
                before = checks.reference_doc_bound(params, doc.word_ids, doc.counts, start_state)
                after = checks.reference_doc_bound(params, doc.word_ids, doc.counts, state)
                checks.require(
                    after >= before - 1e-9 * max(1.0, abs(before)),
                    f"held-out document {d}: bound fell from {before!r} to {after!r}",
                )
        return {
            "infer_docs_per_s": corpus.num_docs / elapsed,
            "infer_ac": checks.reference_accuracy(pred, self.data["heldout_labels"]),
        }, outputs

    def baselines(self):
        m, spec, seed, k = self.m, self.spec, self.seed, self.k
        corpus, truth = self.data["train"], self.data["train_labels"]
        restarts = spec["kmeans_restarts"]
        lda_opts = {"max_em_iters": spec["lda_iters"], "elbo_rel_tol": 0.0}
        start = time.perf_counter()
        weights = m.corpus.tfidf_vectors(corpus)
        km_labels, centers, _ = m.baselines.kmeans(weights, k, seed=seed, restarts=restarts)
        lda, lda_report = m.baselines.fit_lda(corpus, k, seed=seed, **lda_opts)
        naive = m.baselines.lda_naive_cluster(lda)
        lda_km = m.baselines.lda_kmeans(
            corpus, k, num_topics=spec["lda_topics"], seed=seed, restarts=restarts, **lda_opts
        )
        preds = {"kmeans": km_labels, "lda-naive": naive, "lda-kmeans": lda_km}
        scores = {
            name: (m.evaluation.clustering_accuracy(p, truth), m.evaluation.nmi(p, truth))
            for name, p in preds.items()
        }
        elapsed = time.perf_counter() - start

        outputs = digest(weights, centers, lda.topics, lda.doc_theta, *preds.values(), scores)
        if self.full:
            checks.check_nearest_center(weights, km_labels, centers, "tf-idf k-means")
            checks.check_monotone(lda_report.elbo_trace, "LDA objective")
            for name, p in preds.items():
                checks.check_scores(np.asarray(p), truth, *scores[name], name)
            checks.check_tfidf_rows(
                weights, self.train_triples, corpus.num_docs, self.vocab_size,
                self.inp["check_rows"],
            )
        return {"baselines_s": elapsed}, outputs

    def synth(self):
        m = self.m
        requested = [int(n) for n in self.inp["synth_lengths"]]
        lengths = iter(requested)
        start = time.perf_counter()
        corpus, hidden = m.model.sample_corpus(
            self.synth_params, len(requested), lambda rng: next(lengths), seed=self.seed
        )
        m.corpus.save_bow(corpus, self.paths["synth.bow"])
        elapsed = time.perf_counter() - start

        outputs = digest(
            file_bytes(self.paths["synth.bow"]),
            *hidden.indicator, *hidden.local_z, *hidden.global_z,
        )
        if self.full:
            checks.check_sampled(corpus, hidden, requested)
            with self.checking():
                loaded = m.corpus.load_bow(self.paths["synth.bow"])
            checks.check_same_corpus(loaded, corpus, "synth round trip")
        return {"synth_tokens_per_s": sum(requested) / elapsed}, outputs


def import_package(src):
    sys.path.insert(0, src)
    import mgctm

    here = os.path.dirname(os.path.abspath(mgctm.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise SystemExit(f"mgctm imported from {here}, not from {src}")
    for name in ("corpus", "model", "inference", "baselines", "evaluation", "serialize"):
        __import__("mgctm." + name)
    return mgctm


def run_rounds(stages, seconds, tracer):
    """Whole rounds of all five stages until the next would overrun."""
    rounds, failed, check_failures = [], 0, []
    first_outputs = {}
    begin = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - begin + longest <= seconds:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.round = len(rounds)
        if os.path.exists(stages.paths["model.json"]):
            os.unlink(stages.paths["model.json"])
        figures = {}
        for name in STAGES:
            stages.full = name not in first_outputs
            try:
                if tracer is not None:
                    with tracer.span("stage." + name):
                        figs, outputs = getattr(stages, name)()
                else:
                    figs, outputs = getattr(stages, name)()
                checks.require(
                    first_outputs.setdefault(name, outputs) == outputs,
                    "output differs from the first round's",
                )
                figures.update(figs)
            except checks.CheckFailed as exc:
                failed += 1
                check_failures.append(f"{name}: {exc}")
                print(f"check failed in {name}: {exc}", file=sys.stderr)
            except Exception:  # a stage that raises is a failed operation
                failed += 1
                traceback.print_exc(file=sys.stderr)
        rounds.append(figures)
        longest = max(longest, time.perf_counter() - round_start)
    return rounds, failed, check_failures


def layer_metrics(tracer, stages, rounds):
    """Per-layer figures: medians over rounds of per-round totals."""
    m = stages.m
    per_round = [tracer.round_layers(r) for r in range(len(rounds))]

    def med(fn):
        return statistics.median(fn(r) for r in per_round)

    def secs(name):
        return med(lambda r: r["secs"].get(name, 0.0))

    def calls(name):
        return med(lambda r: r["calls"].get(name, 0))

    train = stages.data["train"]
    shape = stages.spec["shape"]
    cells = shape["J"] * shape["K"]
    terms = np.array([doc.word_ids.size for doc in train.docs])
    useful = int(terms.sum()) * cells
    batches = getattr(m.inference, "_iter_batches", None)
    if batches is not None:
        padded = sum((hi - lo) * m_max * cells for lo, hi, m_max in batches(train))
    else:
        padded = useful
    return {
        "corpus.load_bow_s": (secs("corpus.load_bow"), "s"),
        "corpus.triples": (int(stages.train_triples[0].size + stages.held_triples[0].size), "count"),
        "corpus.save_bow_s": (secs("corpus.save_bow"), "s"),
        "corpus.tfidf_s": (secs("corpus.tfidf"), "s"),
        "corpus.tfidf_dense_mb": (train.num_docs * train.vocab_size * 8 / MIB, "MB"),
        "model.init_model_s": (secs("model.init_model"), "s"),
        "model.sample_corpus_s": (secs("model.sample_corpus"), "s"),
        "model.sampled_tokens": (int(stages.inp["synth_lengths"].sum()), "count"),
        "inference.e_step_s": (secs("inference.e_step"), "s"),
        "inference.m_step_s": (secs("inference.m_step"), "s"),
        "inference.elbo_s": (secs("inference.elbo"), "s"),
        "inference.elbo_calls": (calls("inference.elbo"), "count"),
        "inference.useful_cells": (useful, "count"),
        "inference.padded_cells": (int(padded), "count"),
        "inference.pad_ratio": (padded / useful, "ratio"),
        "inference.infer_s": (secs("inference.infer"), "s"),
        "numerics.dirichlet_mle_s": (secs("numerics.dirichlet_mle"), "s"),
        "numerics.dirichlet_mle_calls": (calls("numerics.dirichlet_mle"), "count"),
        "baselines.fit_lda_s": (secs("baselines.fit_lda"), "s"),
        "baselines.lda_iters": (med(lambda r: r["lda_iters"]), "count"),
        "baselines.lda_iter_s": (med(lambda r: r["lda_wall"] / max(r["lda_iters"], 1)), "s"),
        "baselines.kmeans_s": (secs("baselines.kmeans"), "s"),
        "baselines.theta_kmeans_s": (secs("baselines.theta_kmeans"), "s"),
        "evaluation.score_s": (secs("evaluation.score"), "s"),
        "serialize.save_model_s": (secs("serialize.save_model"), "s"),
        "serialize.load_model_s": (secs("serialize.load_model"), "s"),
        "serialize.model_bytes": (int(rounds[0].get("model_bytes", 0)), "bytes"),
    }


def main():
    args = parse_args()
    mgctm = import_package(args.src)
    data = load_corpora(mgctm.corpus, args.dir)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(args.dir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with np.load(os.path.join(args.dir, "inputs.npz")) as npz:
        inputs = {key: npz[key] for key in npz.files}
    stages = Stages(mgctm, spec, inputs, args.dir, data)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mgctm)
        stages.tracer = tracer
    rounds, failed, check_failures = run_rounds(stages, args.seconds, tracer)
    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": len(rounds) * len(STAGES),
        "failed": failed,
        "check_failures": check_failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
        result["layers"] = layer_metrics(tracer, stages, rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
