"""The qeuclid benchmark: `qeuclid verify` end to end, and layer by layer when traced.

    python3 perfbench/run.py --workload moyal-registry --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
Every measurement runs in a fresh process (``child.py``) in its own session,
killed with its pool workers if it outlives its timeout, so a hang or crash
shows as failed trials instead of a stuck benchmark. The workload seed becomes
``master_seed`` and nothing else.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
``SETUP_PROBES`` fresh processes), then untraced ``cmd_verify`` calls, one
after another in one fresh process, for about ``--seconds``. The first call
is a warm-up: it is gated but not timed, and at least two timed calls follow.
``--trace 1`` measures the per-layer metrics from one traced 1-worker call,
beside an untraced call at the same worker count (tracing overhead) and a
copy-bandwidth probe.

Both modes run the oracle spot-checks first and gate the outputs: repeated
calls must write byte-identical ``cases.csv``; a traced call must write the
same ``cases.csv`` as an untraced one, on moyal-registry also the same as the
2-worker call; R12 must still fail on moyal-registry and every other suite
must pass. A failed gate or crashed call gives ``"correct": false`` and exit
status 1. Without a qeuclid source tree the run exits 2 and prints no result.
The last line of standard output is the JSON result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5
#: every run ends within 180 s; a single child process is killed sooner
RUN_BUDGET_S = 170.0
CALL_TIMEOUT_S = 150.0
#: suites whose inequality fails by design, per workload; every other suite must pass
RED_BY_DESIGN = {"moyal-registry": {"R12"}, "classical": set()}

#: layers that also report their median self time per call
P50_LAYERS = ("weyl.quantize", "weyl.dequantize", "calculus.apply_multiplier", "spectra.singular_profile")


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Run:
    """One benchmark run: its scratch directory, deadline, gates and counts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = ROOT / ".perfbench-out" / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self._n = 0
        env = dict(os.environ)
        env.pop("QEUCLID_WORKERS", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)
            print(f"GATE FAILED: {message}", file=sys.stderr)

    def spawn(self, mode: str, *opts: str, timeout: float = CALL_TIMEOUT_S):
        """Run ``child.py mode`` in a fresh session; its result dict and out dir, or None."""
        self._n += 1
        out = self.dir / f"{self._n:02d}-{mode}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--out", str(out)]
        if mode != "stream":
            cmd += ["--workload", self.workload, "--seed", str(self.seed)]
        what = " ".join((mode,) + opts)
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            self.gate(False, f"{what}: no time left in the run budget")
            return None, out
        proc = subprocess.Popen(
            cmd + list(opts), cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            self.gate(False, f"{what}: timed out after {timeout:.0f} s")
            return None, out
        finally:
            _kill_group(proc.pid)  # pool workers a crashed child left behind
        if proc.returncode != 0:
            self.gate(False, f"{what}: exit {proc.returncode}: {err.strip()[-2000:]}")
            return None, out
        result = out / "result.json"
        return (json.loads(result.read_text()) if result.exists() else {}), out

    def probe(self, oracle: bool):
        res, _ = self.spawn("setup", *(["--oracle"] if oracle else []))
        if res is None:
            return None
        self.trials = res["trials"]
        for name, (err, tol) in res.get("oracle", {}).items():
            print(f"oracle {name}: error {err:.3e} (tolerance {tol:.0e})", file=sys.stderr)
            self.gate(math.isfinite(err) and err <= tol, f"oracle {name}: error {err:.3e} > {tol:.0e}")
        return res

    def check(self, res: dict, out: Path):
        """Count and gate one finished cmd_verify call; its cases.csv bytes, or None."""
        self.attempted += self.trials
        if res["rc"] not in (0, 2):
            self.gate(False, f"cmd_verify returned {res['rc']}")
            self.failed += self.trials
            return None
        cases = (out / "cases.csv").read_bytes()
        rows = cases.decode().splitlines()[1:]
        # the params column is unescaped JSON, so split from the right
        errored = sum(1 for r in rows if r.rsplit(",", 6)[-2] != "")
        self.failed += errored
        self.gate(len(rows) == self.trials, f"cases.csv has {len(rows)} rows, expected {self.trials}")
        summaries = json.loads((out / "summaries.json").read_text())["suites"]
        red = {t for t, s in summaries.items() if s["failures"] > 0}
        expect = RED_BY_DESIGN[self.workload]
        self.gate(red == expect, f"suites with failures {sorted(red)}, expected {sorted(expect)}")
        self.gate(res["rc"] == (2 if expect else 0), f"cmd_verify returned {res['rc']}")
        return cases

    def verify(self, *opts: str):
        """One cmd_verify call in its own process; (result, cases.csv bytes) or None."""
        res, out = self.spawn("verify", *opts)
        if res is None:
            self.attempted += self.trials
            self.failed += self.trials
            return None
        cases = self.check(res, out)
        if cases is None:
            return None
        res["out"] = str(out)
        return res, cases

    def loop(self, seconds: float):
        """cmd_verify calls in one process for about ``seconds``; [(result, cases.csv bytes)].

        A call cut short by a crash or the timeout counts all its trials as failed.
        """
        timeout = self.deadline - time.monotonic()
        res, out = self.spawn("loop", "--seconds", str(seconds), "--budget", str(timeout - 10), timeout=timeout)
        log = out / "calls.jsonl"
        # a line the kill cut short has no newline yet, and is dropped with the last item
        calls = [json.loads(line) for line in log.read_text().split("\n")[:-1]] if log.exists() else []
        if res is None:
            self.attempted += self.trials
            self.failed += self.trials
        checked = [(c, self.check(c, Path(c["out"]))) for c in calls]
        return [(c, cases) for c, cases in checked if cases is not None]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail_percentile(n: int) -> int:
    """The highest of p99..p50 with at least ten samples beyond it; 100 (the max) if none."""
    for p in (99, 95, 90, 75, 50):
        if n * (1 - p / 100.0) >= 10:
            return p
    return 100


def measure_end_to_end(run: Run, seconds: float) -> dict:
    probes = [run.probe(oracle=(i == 0)) for i in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes if p is not None]
    if not setups:
        return {}
    calls = run.loop(seconds)
    for _, cases in calls[1:]:
        run.gate(cases == calls[0][1], "cases.csv differs between repeats of one seed")
    calls = calls[1:]  # the first call is the warm-up
    run.gate(len(calls) >= 2, f"{len(calls)} timed calls, at least 2 needed")
    if not calls:
        return {}
    walls = [res["wall_s"] for res, _ in calls]
    return {
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(run.trials / w for w in walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res, _ in calls),
        "trial_ok_frac": 1.0 - run.failed / max(1, run.attempted),
    }


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    dur = [end - start for _, _, start, end in spans]
    covered = [0.0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def layer_metrics(run: Run, trace: dict, wall: float, untraced_wall: float, window: dict, stream: float) -> dict:
    """Per-layer metrics of one traced call.

    ``ms_p50`` is the median self time per call, except for ``harness.run_case``,
    whose ``ms_p50`` and ``ms_tail`` are inclusive trial latencies. The
    ``*_computed`` figures follow from the window (n, N) alone: the table holds
    n^2 N^2 complex doubles, and each quantize or dequantize call is one pass of
    n^2 N^2 complex multiply-adds over it.
    """
    spans = trace["spans"]
    dur, selfs = self_times(spans)
    by_layer, incl = {}, {}
    for (name, _, _, _), d, s in zip(spans, dur, selfs):
        by_layer.setdefault(name, []).append(s)
        incl.setdefault(name, []).append(d)
    run.gate(min(selfs, default=0.0) > -1e-6, "a span has negative self time")
    spanned = sum(d for (_, parent, _, _), d in zip(spans, dur) if parent < 0)
    unspanned = wall - spanned
    run.gate(abs(sum(selfs) + unspanned - wall) <= 1e-6 * max(1.0, wall), "self times do not add up to the traced wall")

    m = {}
    for name in LAYERS:
        vals = by_layer.get(name, [])
        m[f"{name}.self_s"] = sum(vals)
        if name != "cli.cmd_verify":
            m[f"{name}.calls"] = len(vals)
        if name in P50_LAYERS:
            m[f"{name}.ms_p50"] = 1e3 * statistics.median(vals) if vals else 0.0
    table_bytes = window["n"] ** 2 * window["N"] ** 2 * 16
    for name in ("weyl.quantize", "weyl.dequantize"):
        p50 = m[f"{name}.ms_p50"]
        m[f"{name}.gbps_computed"] = table_bytes / (p50 / 1e3) / 1e9 if p50 > 0 else 0.0
    q = incl.get("weyl.quantize", [])
    # the first quantize of a window builds its displacement table and checks the trace weight
    m["weyl.table_build_s"] = q[0] - statistics.median(q[1:]) if len(q) > 1 else 0.0
    m["weyl.table_mb_computed"] = table_bytes / 1e6
    m["weyl.cmadds_per_call_computed"] = window["n"] ** 2 * window["N"] ** 2
    m["weyl.share_of_wall"] = (m["weyl.quantize.self_s"] + m["weyl.dequantize.self_s"]) / wall

    draws = trace["draws"]
    m["harness.distinct_element_frac"] = len({s for s, _ in draws}) / len(draws) if draws else 0.0
    m["harness.draw_attempts_mean"] = statistics.mean(a + 1 for _, a in draws) if draws else 0.0
    trials = incl.get("harness.run_case", [])
    tail = tail_percentile(len(trials))
    m["harness.run_case.ms_p50"] = 1e3 * statistics.median(trials) if trials else 0.0
    m["harness.run_case.ms_tail"] = 1e3 * percentile(trials, tail) if trials else 0.0
    m["harness.run_case.tail_pct"] = tail
    m["harness.trial_error_frac"] = run.failed / max(1, run.attempted)
    m["mem.stream_gbps"] = stream
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = wall / untraced_wall - 1.0
    m["trace.unspanned_s"] = unspanned
    return m


def measure_layers(run: Run) -> dict:
    probe = run.probe(oracle=True)
    stream, _ = run.spawn("stream")
    if probe is None or stream is None:
        return {}
    traced = run.verify("--workers", "1", "--trace")
    plain = run.verify("--workers", "1")
    if traced is None or plain is None:
        return {}
    run.gate(traced[1] == plain[1], "traced and untraced cases.csv differ")
    if run.workload == "moyal-registry":
        pooled = run.verify("--workers", "2")
        if pooled is not None:
            run.gate(traced[1] == pooled[1], "1-worker traced and 2-worker cases.csv differ")
    trace = json.loads((Path(traced[0]["out"]) / "trace.json").read_text())
    return layer_metrics(run, trace, traced[0]["wall_s"], plain[0]["wall_s"], probe["window"], stream["stream_gbps"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qeuclid" / "__init__.py").is_file():
        print(f"no qeuclid source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    run = Run(args.workload, args.seed)
    try:
        metrics = measure_layers(run) if args.trace else measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            run.dir.parent.rmdir()
        except OSError:
            pass
    run.gate(set(metrics) == set(units), "some metrics were not measured")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
