"""Benchmark entry point for mgctm.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 30 --trace 0

Run from the repository root. It writes the workload's inputs from the
seed, times the set-up of several fresh child processes, then runs the
stages in one more child for ``--seconds`` and prints one JSON result as
the last line of stdout: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_PROBES = 4  # extra fresh children timed for setup_s, besides the worker
MEM_CAP_MB = 3072  # address-space cap of each child
PROBE_TIMEOUT = 20  # seconds; the worker gets --seconds plus WORKER_SLACK
WORKER_SLACK = 60
KEEP = ("spans.jsonl", "result.json")


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # one malloc arena: otherwise memory freed by the E-step pool threads
    # stays in their own arenas, and peak RSS swings by ~25% with the seed
    env["MALLOC_ARENA_MAX"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def cap_memory():
    # runs in the child between fork and exec: caps the child's own
    # address space, so running out of memory fails a stage inside it
    cap = MEM_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_child(workdir, mode, seconds=0, trace=0):
    timeout = PROBE_TIMEOUT if mode == "setup" else seconds + WORKER_SLACK
    spawned = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--dir", workdir, "--src", SRC,
        "--spawned", repr(spawned), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        timeout=timeout, check=False, text=True, preexec_fn=cap_memory,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def prepare_inputs(workload, seed, workdir):
    import numpy as np

    import gen
    from workloads import WORKLOADS

    spec = dict(WORKLOADS[workload], seed=seed)
    rng = np.random.default_rng([seed, 20130926])
    params = gen.make_params(rng, spec["shape"])
    arrays = {"synth_" + key: value for key, value in params.items()}
    v_dim = spec["shape"]["V"]
    for part, num_docs in (("train", spec["train_docs"]), ("heldout", spec["heldout_docs"])):
        lengths = gen.length_quantiles(spec["lengths"], num_docs)
        distinct = gen.distinct_terms(spec["lengths"], lengths)
        doc_ids, word_ids, counts, labels = gen.draw_corpus(rng, params, lengths, distinct)
        gen.write_bow(os.path.join(workdir, part + ".bow"), num_docs, v_dim,
                      doc_ids, word_ids, counts)
        gen.write_labels(os.path.join(workdir, part + ".labels"), labels)
        arrays.update({part + "_doc": doc_ids, part + "_word": word_ids,
                       part + "_count": counts, part + "_labels": labels})
    arrays["synth_lengths"] = rng.permutation(
        gen.length_quantiles(spec["synth_lengths"], spec["synth_docs"])
    )
    arrays["check_docs"] = rng.choice(spec["train_docs"], size=3, replace=False)
    arrays["check_rows"] = rng.choice(spec["train_docs"], size=3, replace=False)
    np.savez(os.path.join(workdir, "inputs.npz"), **arrays)
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def median_of(rounds, key):
    values = [r[key] for r in rounds if key in r]
    return statistics.median(values) if values else None


def main():
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mgctm", "__init__.py")):
        print(f"no mgctm sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        prepare_inputs(args.workload, args.seed, workdir)
        # half the probes before the worker and half after, so setup_s
        # samples the machine over the whole run
        setups = [run_child(workdir, "setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
        res = run_child(workdir, "run", seconds=args.seconds, trace=args.trace)
        setups += [run_child(workdir, "setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
        with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(res, fh)
    finally:
        for name in os.listdir(workdir):
            if name not in KEEP:
                os.unlink(os.path.join(workdir, name))

    rounds = res["rounds"]
    setups.append(res["setup_s"])
    stage_medians = {
        "setup_s": (statistics.median(setups), "s"),
        "train_s": (median_of(rounds, "train_s"), "s"),
        "infer_docs_per_s": (median_of(rounds, "infer_docs_per_s"), "docs/s"),
        "baselines_s": (median_of(rounds, "baselines_s"), "s"),
        "synth_tokens_per_s": (median_of(rounds, "synth_tokens_per_s"), "tokens/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "nll_bound_per_token": (median_of(rounds, "nll_bound_per_token"), "nats"),
    }
    print("# rounds=%d held-out AC=%s setups=%s" % (
        len(rounds), median_of(rounds, "infer_ac"), [round(s, 4) for s in setups]))
    print("# stages " + json.dumps({k: v[0] for k, v in stage_medians.items()}))
    metrics = res["layers"] if args.trace else stage_medians
    missing = [name for name, (value, _) in metrics.items() if value is None]
    result = {
        "correct": not res["check_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if value is not None
        },
    }
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
