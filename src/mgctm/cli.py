"""Command-line entry point.

Subcommands: train (fit a model and persist it with its fit report),
eval (score a clustering method against ground-truth labels), topics
(print each topic's most probable words), synth (sample a corpus from
known parameters), and bench (run several methods over several seeds
and write a delimited comparison table).

Flag values can also come from a JSON config file ({"format":
"run-config", "version": 1, ...}) passed via --config; flags given on
the command line win over the file. Validation problems exit with
status 2 before any output file is touched; numerical failures during
fitting exit with status 1. All file writes are atomic.
"""

import argparse
import json
import sys

import numpy as np

from . import baselines, corpus as corpus_mod, serialize
from .errors import (
    ConfigError,
    CorpusFormatError,
    DegenerateInputError,
    DimensionError,
    EstimationError,
    NumericalError,
)
from .evaluation import clustering_accuracy, nmi
from .inference import fit, infer_doc_states
from .model import HyperConfig, predict_cluster, random_model_params, top_words

VALIDATION_EXIT = 2
FAILURE_EXIT = 1

_METHODS = ("mgctm", "lda-naive", "lda-kmeans", "kmeans")


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


class CliError(Exception):
    pass


def _add_shared(parser):
    parser.add_argument("--corpus", help="bag-of-words file")
    parser.add_argument("--vocab", help="vocabulary file, one token per line")
    parser.add_argument("--labels", help="labels file, one integer per line")
    parser.add_argument("--model", help="model file")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--threads", type=int, help="E-step worker threads")
    parser.add_argument("--config", help="JSON run-config file with defaults")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mgctm",
        description="Document clustering with cluster-local and shared global topics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a corpus")
    _add_shared(p_train)
    p_train.add_argument("--clusters", type=int, help="number of clusters J")
    p_train.add_argument("--local-topics", type=int, help="local topics per cluster K")
    p_train.add_argument("--global-topics", type=int, help="shared global topics R")
    p_train.add_argument("--max-em-iters", type=int, help="EM iteration cap (default 100)")
    p_train.add_argument("--e-step-iters", type=int, help="coordinate sweeps per document (default 20)")
    p_train.add_argument("--tol", type=float, help="relative bound tolerance (default 1e-5; 0 disables)")
    p_train.add_argument("--init", choices=["random", "lda-naive"], help="initialization (default random)")
    p_train.add_argument("--prior-update", choices=["every-iter", "fixed"], help="prior re-estimation (default every-iter)")

    p_eval = sub.add_parser("eval", help="score a clustering against true labels")
    _add_shared(p_eval)
    p_eval.add_argument("--method", choices=_METHODS, help="clustering method")
    p_eval.add_argument("--clusters", type=int, help="cluster count (default: distinct true labels)")
    p_eval.add_argument("--lda-topics", type=int, help="LDA topic count for lda-kmeans (default 60)")

    p_topics = sub.add_parser("topics", help="print each topic's top words")
    _add_shared(p_topics)
    p_topics.add_argument("--top-n", type=int, help="words per topic (default 10)")
    p_topics.add_argument("--scope", choices=["all", "local", "global"], help="which topics (default all)")
    p_topics.add_argument("--cluster", type=int, help="restrict local topics to one cluster")

    p_synth = sub.add_parser("synth", help="sample a corpus from known parameters")
    _add_shared(p_synth)
    p_synth.add_argument("--params", help="model file with generating parameters")
    p_synth.add_argument("--clusters", type=int, help="clusters for generated parameters")
    p_synth.add_argument("--local-topics", type=int, help="local topics per cluster")
    p_synth.add_argument("--global-topics", type=int, help="global topics")
    p_synth.add_argument("--vocab-size", type=int, help="vocabulary size")
    p_synth.add_argument("--docs", type=int, help="number of documents")
    p_synth.add_argument("--doc-length", type=int, help="tokens per document")
    p_synth.add_argument("--hidden", help="output file for true latent assignments")

    p_bench = sub.add_parser("bench", help="compare methods over seeds")
    _add_shared(p_bench)
    p_bench.add_argument("--methods", help="comma-separated method list")
    p_bench.add_argument("--seeds", help="comma-separated seed list (default: the shared seed)")
    p_bench.add_argument("--out", help="output TSV report path")
    p_bench.add_argument("--clusters", type=int, help="cluster count (default: distinct true labels)")
    p_bench.add_argument("--local-topics", type=int, help="local topics per cluster (default 1)")
    p_bench.add_argument("--global-topics", type=int, help="global topics (default 1)")
    p_bench.add_argument("--lda-topics", type=int, help="LDA topic count for lda-kmeans (default 60)")
    p_bench.add_argument("--max-em-iters", type=int, help="EM iteration cap (default 100)")
    p_bench.add_argument("--tol", type=float, help="relative bound tolerance (default 1e-5)")
    p_bench.add_argument("--init", choices=["random", "lda-naive"], help="model initialization (default random)")
    return parser


_DEFAULTS = {
    "seed": 0,
    "threads": None,
    "max_em_iters": 100,
    "e_step_iters": 20,
    "tol": 1e-5,
    "init": "random",
    "prior_update": "every-iter",
    "top_n": 10,
    "scope": "all",
    "lda_topics": 60,
}


# the JSON values a flag of each argparse type takes from a run-config
_CONFIG_KINDS = {int: ("an integer", int), float: ("a number", (int, float)), None: ("a string", str)}


def _apply_config(ns, flags):
    """Fill unset flags from the --config file, then from defaults.

    ``flags`` maps the subcommand's flag destinations to their argparse
    actions. A file value must have its flag's type, as a JSON value (a
    bool is no integer), and be one of its choices; null leaves the flag
    unset.
    """
    values = {}
    if ns.config is not None:
        with open(ns.config, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{ns.config}: not valid JSON ({exc})") from exc
        if not isinstance(payload, dict) or payload.get("format") != "run-config":
            raise ConfigError(f"{ns.config}: expected a run-config JSON object")
        if payload.get("version") != 1:
            raise ConfigError(f"{ns.config}: unsupported version")
        values = {k: v for k, v in payload.items() if k not in ("format", "version")}
        unknown = [k for k in values if k not in flags]
        if unknown:
            raise ConfigError(f"{ns.config}: unknown keys {unknown}")
        for key, value in values.items():
            if value is not None:
                values[key] = _config_value(ns.config, key, value, flags[key])
    for key, value in values.items():
        if getattr(ns, key) is None:
            setattr(ns, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(ns, key) and getattr(ns, key) is None:
            setattr(ns, key, value)


def _config_value(path, key, value, action):
    # ``value`` of run-config key ``key`` as its flag ``action`` would
    # parse it; ConfigError when the flag would refuse it
    kind, accepted = _CONFIG_KINDS[action.type]
    try:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise TypeError
        value = value if action.type is None else action.type(value)
    except (TypeError, OverflowError):
        raise ConfigError(f"{path}: {key} must be {kind}, not {json.dumps(value)}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ConfigError(f"{path}: {key} must be one of {choices}, not {json.dumps(value)}")
    return value


def _flag_actions(parser, command):
    """{destination: argparse action} of the flags of subcommand ``command``."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    return {a.dest: a for a in actions if a.option_strings and a.dest != "help"}


def _require(ns, *names):
    for name in names:
        if getattr(ns, name) is None:
            raise CliError(f"--{name.replace('_', '-')} is required")


def _load_corpus(ns):
    _require(ns, "corpus")
    return corpus_mod.load_bow(ns.corpus, vocab_path=ns.vocab, labels_path=ns.labels)


def _check_clusters(ns):
    """Refuse --clusters below 1; reads no file."""
    if ns.clusters is not None and ns.clusters < 1:
        raise CliError("--clusters must be >= 1")


def _cluster_count(ns, truth):
    """--clusters, by default the number of distinct true labels.

    ``truth`` is never empty: both commands refuse an empty labels file
    and a corpus whose documents are all empty.
    """
    _check_clusters(ns)
    return ns.clusters if ns.clusters is not None else len(np.unique(truth))


def _fit_mgctm(ns, corpus, k, seed, **schedule):
    """Fit MGCTM with the shared shape, schedule and --init flags.

    ``schedule`` holds the HyperConfig fields a subcommand sets beyond
    those; the rest keep HyperConfig's defaults.
    """
    config = HyperConfig(
        num_clusters=k,
        local_topics_per_cluster=ns.local_topics,
        num_global_topics=ns.global_topics,
        max_em_iters=ns.max_em_iters,
        elbo_rel_tol=ns.tol,
        seed=seed,
        **schedule,
    )
    init_labels = None
    if ns.init == "lda-naive":
        lda, _ = baselines.fit_lda(corpus, k, seed=seed)
        init_labels = baselines.lda_naive_cluster(lda)
    return fit(config, corpus, init_labels=init_labels, threads=ns.threads)


def cmd_train(ns):
    _require(ns, "corpus", "model", "clusters", "local_topics", "global_topics")
    corpus = _load_corpus(ns)
    params, states, report = _fit_mgctm(
        ns,
        corpus,
        ns.clusters,
        ns.seed,
        e_step_iters=ns.e_step_iters,
        prior_update=ns.prior_update.replace("-", "_"),
    )
    for i, value in enumerate(report.elbo_trace):
        print(f"iter={i} elbo={value:.6f}")
    print(f"converged={str(report.converged).lower()} iterations={report.iterations_run}")
    del states  # corpus-sized, and the model's encoding needs the room
    serialize.save_model(params, ns.model, report=report)
    return 0


def _lda_labels(method, lda, k, seed):
    """Cluster labels from a fitted LDA: the argmax topic for lda-naive,
    k-means on the topic proportions for lda-kmeans."""
    if method == "lda-naive":
        return baselines.lda_naive_cluster(lda)
    return baselines.theta_kmeans(lda, k, seed=seed)


def _eval_predictions(ns, corpus, k):
    """Run the requested method and return its predicted labels.

    ``corpus`` is the loaded --corpus, or None without one.
    """
    if ns.method == "mgctm":
        _require(ns, "model", "corpus")
        params, _ = serialize.load_model(ns.model)
        states = infer_doc_states(params, corpus, threads=ns.threads)
        return np.array([predict_cluster(s) for s in states], dtype=np.int64)
    if ns.method == "kmeans":
        _require(ns, "corpus")
        vectors = corpus_mod.tfidf_csr(corpus)
        labels, _, _ = baselines.kmeans(vectors, k, seed=ns.seed)
        return labels
    # the two LDA routes accept a fitted model file or fit on the fly
    if ns.model is not None:
        lda, _ = serialize.load_lda(ns.model)
    else:
        _require(ns, "corpus")
        topics = k if ns.method == "lda-naive" else ns.lda_topics
        lda, _ = baselines.fit_lda(corpus, topics, seed=ns.seed)
    return _lda_labels(ns.method, lda, k, ns.seed)


def cmd_eval(ns):
    _require(ns, "method", "labels")
    # with a corpus, the labels of the documents it kept; without one,
    # only a fitted LDA model file can give the predictions
    corpus = None
    if ns.corpus is not None:
        # flag faults are reported before the corpus read, which reads
        # the labels too, so that they win over any file fault
        _check_clusters(ns)
        if ns.method == "mgctm":
            _require(ns, "model")
        corpus = _load_corpus(ns)
        truth = corpus.labels()
    else:
        truth = corpus_mod.load_labels(ns.labels)
        if truth.size == 0:
            raise DimensionError("labels file is empty")
    pred = _eval_predictions(ns, corpus, _cluster_count(ns, truth))
    if pred.shape[0] != truth.shape[0]:
        raise DimensionError(
            f"{pred.shape[0]} predictions for {truth.shape[0]} labels"
        )
    print(f"ac={100.0 * clustering_accuracy(pred, truth):.2f}")
    print(f"nmi={100.0 * nmi(pred, truth):.2f}")
    return 0


def cmd_topics(ns):
    _require(ns, "model", "vocab")
    params, _ = serialize.load_model(ns.model)
    vocab = corpus_mod.load_vocab(ns.vocab)
    if len(vocab) != params.vocab_size:
        raise DimensionError(
            f"vocabulary has {len(vocab)} tokens, model expects {params.vocab_size}"
        )
    if ns.cluster is not None and not 0 <= ns.cluster < params.num_clusters:
        raise CliError(f"--cluster {ns.cluster} out of range")
    if ns.top_n < 0:
        raise CliError("--top-n must be >= 0")

    def words(scope, topic, cluster=None):
        ids = top_words(params, scope, topic, cluster=cluster, n=ns.top_n)
        return " ".join(vocab.tokens[i] for i in ids)

    if ns.scope in ("all", "global"):
        print("# global topics")
        for t in range(params.num_global_topics):
            print(f"topic {t}: {words('global', t)}")
    if ns.scope in ("all", "local"):
        clusters = (
            [ns.cluster]
            if ns.cluster is not None
            else range(params.num_clusters)
        )
        for j in clusters:
            print(f"# cluster {j} local topics")
            for t in range(params.local_topics_per_cluster):
                print(f"topic {t}: {words('local', t, cluster=j)}")
    return 0


def cmd_synth(ns):
    from .model import sample_corpus

    _require(ns, "corpus", "vocab", "labels", "docs", "doc_length")
    if ns.params is not None:
        params, _ = serialize.load_model(ns.params)
    else:
        _require(ns, "clusters", "local_topics", "global_topics", "vocab_size")
        params = random_model_params(
            ns.clusters,
            ns.local_topics,
            ns.global_topics,
            ns.vocab_size,
            seed=ns.seed,
        )
    corpus, hidden = sample_corpus(params, ns.docs, ns.doc_length, seed=ns.seed)
    corpus_mod.save_bow(corpus, ns.corpus)
    corpus_mod.save_vocab([f"w{i}" for i in range(corpus.vocab_size)], ns.vocab)
    corpus_mod.save_labels([doc.label for doc in corpus.docs], ns.labels)
    if ns.hidden is not None:
        serialize.save_hidden(hidden, ns.hidden)
    print(f"documents={corpus.num_docs} vocab={corpus.vocab_size}")
    return 0


def _bench_predictions(method, corpus, k, seed, ns, vectors):
    if method == "mgctm":
        _, states, _ = _fit_mgctm(ns, corpus, k, seed)
        return np.array([predict_cluster(s) for s in states], dtype=np.int64)
    if method in ("lda-naive", "lda-kmeans"):
        topics = k if method == "lda-naive" else ns.lda_topics
        lda, _ = baselines.fit_lda(
            corpus, topics, seed=seed, max_em_iters=ns.max_em_iters, elbo_rel_tol=ns.tol
        )
        return _lda_labels(method, lda, k, seed)
    labels, _, _ = baselines.kmeans(vectors, k, seed=seed)
    return labels


def cmd_bench(ns):
    _require(ns, "corpus", "labels", "methods", "out")
    corpus = _load_corpus(ns)
    truth = corpus.labels()
    if ns.local_topics is None:
        ns.local_topics = 1
    if ns.global_topics is None:
        ns.global_topics = 1

    methods = []
    for name in ns.methods.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _METHODS:
            raise CliError(f"unknown method {name!r} (choose from {', '.join(_METHODS)})")
        if name in methods:
            print(f"warning: duplicate method {name!r} ignored", file=sys.stderr)
            continue
        methods.append(name)
    if not methods:
        raise CliError("--methods selected nothing")
    seeds = [ns.seed]
    if ns.seeds is not None:
        try:
            seeds = [int(s) for s in ns.seeds.split(",") if s.strip()]
        except ValueError as exc:
            raise CliError(f"--seeds must be integers: {exc}") from exc
        if not seeds:
            raise CliError("--seeds selected nothing")
        if min(seeds) < 0:
            raise CliError("--seeds entries must be >= 0")
    k = _cluster_count(ns, truth)

    # only the k-means seed changes between runs, so tf-idf is built once
    vectors = corpus_mod.tfidf_csr(corpus) if "kmeans" in methods else None

    lines = ["method\tseed\tac\tnmi\tstatus"]
    any_failed = False
    summary = []
    for method in methods:
        scores = []
        for seed in seeds:
            try:
                pred = _bench_predictions(method, corpus, k, seed, ns, vectors)
                ac = 100.0 * clustering_accuracy(pred, truth)
                mi = 100.0 * nmi(pred, truth)
                scores.append((ac, mi))
                lines.append(f"{method}\t{seed}\t{ac:.2f}\t{mi:.2f}\tok")
            except (NumericalError, EstimationError, DegenerateInputError) as exc:
                any_failed = True
                _err(f"{method} seed={seed} failed: {exc}")
                lines.append(f"{method}\t{seed}\t-\t-\tfailed")
        if scores:
            mean_ac = sum(s[0] for s in scores) / len(scores)
            mean_mi = sum(s[1] for s in scores) / len(scores)
            lines.append(f"{method}\tmean\t{mean_ac:.2f}\t{mean_mi:.2f}\tok")
            summary.append((method, mean_ac, mean_mi))
        else:
            lines.append(f"{method}\tmean\t-\t-\tfailed")
    corpus_mod.atomic_write_text(ns.out, "\n".join(lines) + "\n")
    for method, mean_ac, mean_mi in summary:
        print(f"{method}.ac={mean_ac:.2f}")
        print(f"{method}.nmi={mean_mi:.2f}")
    return FAILURE_EXIT if any_failed else 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "topics": cmd_topics,
    "synth": cmd_synth,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        _apply_config(ns, _flag_actions(parser, ns.command))
        if ns.seed < 0:
            raise CliError("--seed must be >= 0")
        return _COMMANDS[ns.command](ns)
    except (
        CliError,
        ConfigError,
        CorpusFormatError,
        DegenerateInputError,
        DimensionError,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
    ) as exc:
        _err(str(exc))
        return VALIDATION_EXIT
    except (NumericalError, EstimationError) as exc:
        _err(str(exc))
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
