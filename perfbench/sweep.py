"""Run the whole benchmark: every workload over several seeds, then one traced run each.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/results/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed and reports each
end-to-end metric's median and quartile spread, ``(q3 - q1) / median`` from
``statistics.quantiles(values, n=4)``, against the metric's bound in
``BENCHMARK.json``; then one ``--trace 1`` run prints every per-layer metric.
The results file keeps every raw value and the machine description. Exit
status 1 if any run failed its correctness gate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    """CPU, cache and memory of this host, as the kernel reports them."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "blas_threads": 1}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        mem_kb = int(Path("/proc/meminfo").read_text().split()[1])
        info["mem_gb"] = round(mem_kb / 2**20, 1)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    return info


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-3000:])
        return {"correct": False, "exit": proc.returncode, "metrics": (result or {}).get("metrics", {})}
    return result


def spread(values) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs per workload, seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="write every raw value and the summary here (JSON)")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        ok &= all(r["correct"] for r in runs)
        entry = {"seeds": seeds, "correct": [r["correct"] for r in runs], "end_to_end": {}}
        print(f"== {workload}: {sum(r['correct'] for r in runs)}/{len(runs)} runs correct")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            row = {"values": values, "bound": bound}
            if len(values) >= 2:
                med, q1, q3, rel = spread(values)
                row.update(median=med, q1=q1, q3=q3, spread=rel)
                flag = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
                unit = runs[0]["metrics"][name]["unit"]
                print(f"{name:16s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {rel:.4f} (bound {bound}) {flag}")
            entry["end_to_end"][name] = row
        if not args.no_trace:
            traced = run_once(workload, args.first_seed, seconds, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for k, v in traced["metrics"].items():
                print(f"  {k} {v['value']!r} {v['unit']}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
