"""The benchmark's workloads as `qeuclid verify` configurations.

Every workload runs at h = 1 with the shipped grid half-width; the benchmark
seed becomes the run's ``master_seed`` and nothing else, so one seed always
generates the same trials.

* ``moyal-registry``: all 18 moyal suites at (N, n) = (64, 64), with the
  shipped 100/200/1 trial ratio scaled by 8/100 (8 per constant-one suite,
  16 per empirical suite, 1 slope fit: 217 trials), at 2 pool workers, the
  shipped default on a 2-CPU machine. This is the traffic users run: many
  short trials, element draws keep ``quantize`` ahead of ``dequantize``, and
  pool start-up is paid on every call.
* ``classical``: the 8-suite commutative oracle config at n = 4096 with 2x
  the shipped trials (R10 once: 701 trials), at 1 worker. It never touches
  ``weyl`` or the SVD; it is the bypass workload for Moyal-kernel work. Its
  calls are short (~2 s), so a run takes the median of many of them.

The six multiplier suites at (96, 96), over a 1.36 GB table, are not a
workload of their own: every layer they stress (the ``weyl`` kernels, the
table build, ``calculus.apply_multiplier``) is measured on moyal-registry,
and on a shared 2-CPU host the time is better spent on longer runs of the
two workloads above.
"""

WORKLOADS = ("moyal-registry", "classical")


def make_config(workload: str, seed: int, out_dir: str):
    """The ``RunConfig`` of ``workload`` with master seed ``seed``.

    qeuclid is imported here, not at module level, so that ``run.py`` can read
    :data:`WORKLOADS` without the package on its path.
    """
    from qeuclid import harness
    from qeuclid.cli import default_config

    if workload == "moyal-registry":
        cfg = default_config("moyal")
        for s in cfg.suites:
            s.n_trials = max(1, s.n_trials * 8 // 100)
        cfg.workers = 2
    elif workload == "classical":
        cfg = default_config("classical")
        for s in cfg.suites:
            if harness.REGISTRY[s.theorem].mode != "slope":
                s.n_trials *= 2
        cfg.workers = 1
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    cfg.master_seed = seed
    cfg.out_dir = out_dir
    return cfg
