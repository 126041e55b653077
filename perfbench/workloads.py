"""Workload definitions.

Every workload runs every stage; the sizes decide which layer does most
of the work. ``heldout_docs`` is above the E-step batch size (256) on
every workload, so inference with two threads always spans two batches.
Stage sizes are balanced so that each timed stage takes 1-2 s of a
round: the median of each stage then rests on several seconds of work.
"""

WORKLOADS = {
    # Real-corpus shape: Zipfian words over a large vocabulary and
    # log-normal lengths, so a few documents have ~1000+ distinct terms
    # and padding to the longest one dominates the E-step and memory.
    "heavy-tail": {
        "shape": {
            "J": 2, "K": 2, "R": 2, "V": 20000,
            "zipf": 1.05, "local_share": 0.6,
        },
        "lengths": {
            "kind": "lognormal", "mu": 4.3, "sigma": 1.2, "cap": 6000,
            "heaps_k": 2.2, "heaps_beta": 0.8,
        },
        "train_docs": 300,
        "heldout_docs": 260,
        "em_iters": 1,
        "e_step_iters": 2,
        "infer_sweeps": 3,
        "lda_topics": 10,
        "lda_iters": 1,
        "kmeans_restarts": 2,
        "synth_docs": 60,
        "synth_lengths": {"kind": "uniform", "low": 20, "high": 140},
    },
    # Baselines, ingest and the sampler: many short documents, LDA with
    # 60 topics, k-means with restarts, and a short MGCTM fit. Padding is
    # under 2x, and the held-out set fills five full E-step batches.
    "compare": {
        "shape": {
            "J": 5, "K": 2, "R": 3, "V": 3000,
            "zipf": 1.0, "local_share": 0.75,
        },
        "lengths": {"kind": "uniform", "low": 10, "high": 50, "heaps_k": 0.9, "heaps_beta": 1.0},
        "train_docs": 400,
        "heldout_docs": 1500,
        "em_iters": 2,
        "e_step_iters": 8,
        "infer_sweeps": 5,
        "lda_topics": 60,
        "lda_iters": 1,
        "kmeans_restarts": 10,
        "synth_docs": 540,
        "synth_lengths": {"kind": "uniform", "low": 10, "high": 50},
    },
}
