"""Span recording for the traced run.

The tracer replaces public functions at their module attributes with
wrappers that record a span (name, start, end, parent, round) and keeps
every span in memory until the run ends. ``src/`` is not modified: the
package calls these functions through module globals, so the wrappers
see calls made inside the package too (for example ``fit`` calling
``mgctm.inference.m_step``). Wrapped functions are called from the main
thread only; the E-step worker threads call none of them.
"""

import contextlib
import functools
import json
import time

# (module, attribute, span name): the layer boundaries the per-layer
# metrics are built from. dirichlet_mle is wrapped where m_step looks
# it up, in mgctm.inference.
WRAPPED = (
    ("corpus", "load_bow", "corpus.load_bow"),
    ("corpus", "save_bow", "corpus.save_bow"),
    ("corpus", "tfidf_vectors", "corpus.tfidf"),
    ("model", "init_model", "model.init_model"),
    ("model", "sample_corpus", "model.sample_corpus"),
    ("inference", "fit", "inference.fit"),
    ("inference", "m_step", "inference.m_step"),
    ("inference", "elbo", "inference.elbo"),
    ("inference", "infer_doc_states", "inference.infer"),
    ("inference", "dirichlet_mle", "numerics.dirichlet_mle"),
    ("baselines", "fit_lda", "baselines.fit_lda"),
    ("baselines", "kmeans", "baselines.kmeans"),
    ("baselines", "theta_kmeans", "baselines.theta_kmeans"),
    ("evaluation", "clustering_accuracy", "evaluation.score"),
    ("evaluation", "nmi", "evaluation.score"),
    ("serialize", "save_model", "serialize.save_model"),
    ("serialize", "load_model", "serialize.load_model"),
)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, round, extra]
        self.spans = []
        self._stack = []
        self.round = -1
        self.paused = False
        self._originals = []

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed call as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.round, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if name == "baselines.fit_lda":
                report = result[1]
                record[5] = [report.iterations_run, report.wall_time]
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self, package):
        for mod_name, attr, name in WRAPPED:
            self.wrap(getattr(package, mod_name), attr, name)

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd, extra) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "round": rnd, "extra": extra}
                    )
                    + "\n"
                )

    def round_layers(self, rnd):
        """Per-layer totals for one round.

        Returns {"secs": {name: seconds}, "calls": {name: count},
        "lda_iters": n, "lda_wall": seconds} from the round's spans.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        names = {i: s[0] for i, s in spans}
        out = {"secs": {}, "calls": {}, "lda_iters": 0, "lda_wall": 0.0}
        fit_children = 0.0
        for i, (name, start, end, parent, _, extra) in spans:
            dur = end - start
            parent_name = names.get(parent)
            if name == "baselines.kmeans" and parent_name == "baselines.theta_kmeans":
                continue  # counted in theta_kmeans
            out["secs"][name] = out["secs"].get(name, 0.0) + dur
            out["calls"][name] = out["calls"].get(name, 0) + 1
            if parent_name == "inference.fit":
                fit_children += dur
            if extra is not None:
                out["lda_iters"] += extra[0]
                out["lda_wall"] += extra[1]
        out["secs"]["inference.e_step"] = out["secs"].get("inference.fit", 0.0) - fit_children
        return out
