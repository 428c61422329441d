import ast
import csv
import gc
import importlib
import json
import os
import pickle
import pkgutil
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_env

from qeuclid import cli, harness, spectra
from qeuclid.cli import RunConfig, SuiteConfig, cmd_verify, default_config, main, make_backend


def small_config(out_dir, trials=4, suites=("R2", "R15"), backend="moyal"):
    cfg = RunConfig(
        backend=backend,
        theta_h=1.0,
        fock_dim=32,
        grid_half_width=8.0,
        grid_points=48,
        master_seed=77,
        workers=1,
        out_dir=str(out_dir),
        suites=[SuiteConfig(t, trials) for t in suites],
    )
    return cfg


def run_cli(args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "qeuclid.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(**(env_extra or {})),
    )


def test_config_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    payload = json.loads(cfg.to_json())
    again = RunConfig.from_dict(payload)
    assert again.to_json() == cfg.to_json()


def test_verify_small_config_exit_zero(tmp_path):
    cfg = small_config(tmp_path / "out")
    code = cmd_verify(cfg)
    assert code == 0
    assert (tmp_path / "out" / "cases.csv").exists()
    assert (tmp_path / "out" / "summaries.json").exists()
    rows = (tmp_path / "out" / "cases.csv").read_text().strip().splitlines()
    assert rows[0].startswith("theorem,trial,seed,params")
    assert len(rows) == 1 + 2 * 4
    summary = json.loads((tmp_path / "out" / "summaries.json").read_text())
    assert set(summary["suites"]) == {"R2", "R15"}
    assert all(s["failures"] == 0 for s in summary["suites"].values())


def test_summaries_json_is_strict_json(tmp_path, monkeypatch):
    # R10 runs one trial, so its first batch is empty: its constant is written
    # as null, which strict parsers accept, where NaN is refused
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    monkeypatch.setenv("QEUCLID_WORKERS", "1")
    cfg = default_config("classical")
    cfg.out_dir = str(tmp_path / "out")
    assert cmd_verify(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summaries.json").read_text(), parse_constant=refuse)
    assert summary["suites"]["R10"]["batch_constants"][0] is None
    assert all(v is not None for s in summary["suites"].values() for v in (s["fitted_constant"], s["median_ratio"]))


def test_verify_runs_a_params_row_with_an_extra_key(tmp_path):
    # a key no suite reads is carried into the report, and the row still runs
    cfg = small_config(tmp_path / "out", suites=("R2",))
    cfg.suites[0].params_grid = [{"p": 2.0, "note": [1, "a"]}]
    assert cmd_verify(cfg) == 0
    with open(tmp_path / "out" / "cases.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [json.loads(r["params"]) for r in rows] == [{"note": [1, "a"], "p": 2.0}] * 4
    assert all(r["reason"] == "" for r in rows)


def test_no_backend_outlives_its_call(tmp_path, monkeypatch):
    # nothing a backend keeps (its rows' sides, their passes) refers back to
    # it, so it dies with its last reference, with no cyclic collection
    from qeuclid.harness import MoyalBackend, run_index, trial_plan

    made = []
    make = cli.make_backend

    def recorded(cfg):
        backend = make(cfg)
        made.append(weakref.ref(backend))
        return backend

    monkeypatch.setattr(cli, "make_backend", recorded)
    monkeypatch.setenv("QEUCLID_WORKERS", "1")
    cfg = default_config("classical")
    cfg.out_dir = str(tmp_path / "out")
    gc.disable()
    try:
        assert cmd_verify(cfg) == 0
        assert len(made) == 1 and made[0]() is None
        # every suite's rows at one trial index, on the Moyal plane
        backend = MoyalBackend(h=1.0, fock_dim=32, half_width=8.0, n=48)
        run_index(backend, [(tid, *trial_plan(backend, tid, 1, 7)[0]) for tid in harness.registry_ids()])
        assert len(backend._rows) == 15
        alive = weakref.ref(backend)
        del backend
        assert alive() is None
    finally:
        gc.enable()


def test_cases_csv_parses_with_csv_module(tmp_path):
    cfg = small_config(tmp_path / "out", trials=3, suites=("R2", "R9"))
    assert cmd_verify(cfg) == 0
    with open(tmp_path / "out" / "cases.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(reader.fieldnames) == 10 and len(rows) == 6
    backend = make_backend(cfg)
    for row in rows:
        assert None not in row and all(v is not None for v in row.values())
        grid = harness.REGISTRY[row["theorem"]].params_fn(backend)
        assert json.loads(row["params"]) == grid[int(row["trial"]) % len(grid)]


def test_verify_empty_suites(tmp_path, capsys):
    # a config with no suites, with the key left out or given as [], is a
    # configuration error, not a clean run that writes empty reports
    base = json.loads(small_config(tmp_path / "out").to_json())
    del base["suites"]
    cfg_path = tmp_path / "cfg.json"
    for payload in (base, {**base, "suites": []}):
        cfg_path.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "configuration error: no suites to run\n"
        assert not (tmp_path / "out").exists()


def test_verify_bad_parameter_exits_one(tmp_path, capsys):
    cfg = small_config(tmp_path / "out")
    cfg.suites = [SuiteConfig("R17", 2, params_grid=[{"p": 1.5, "s": 5.0}])]
    assert cmd_verify(cfg) == 1
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tid, params",
    [
        ("R10", {"p": 4 / 3, "q": 4.0, "tmin": 0.5, "tmax": 20.0, "npts": 3}),
        ("R10", {"p": 4 / 3, "q": 4.0, "tmin": 1.0, "tmax": 10.0, "npts": 10}),
        ("R10", {"p": 4 / 3, "q": 4.0, "tmin": 0.0, "tmax": 20.0, "npts": 10}),
        ("R9", {"p": 4 / 3, "q": 4.0, "t0": -1.0}),
        ("R2", {"p": 0.5}),
        ("R4", {"p": 1.5}),
        ("R11", {"p": 0.5}),
        ("R12", {"p": 3.0}),
        ("R15", {"p": 2.0, "r": 2.0, "q": 2.0}),
        ("R16", {"p": 2.0, "q": 2.0}),
        ("R2", {"q": 4.0}),
        ("R9", {"p": 4 / 3}),
        ("R6", {"p": 2.0}),
        ("R10", {"p": 2.0, "q": 2.0, "tmin": 0.5, "tmax": 20.0, "npts": 10}),
    ],
)
def test_verify_refuses_bad_parameters_up_front(tmp_path, capsys, tid, params):
    # parameters a suite cannot compute are a configuration error, found
    # before any trial runs, not a traceback from inside one
    cfg = small_config(tmp_path / "out")
    cfg.suites = [SuiteConfig(tid, 2, params_grid=[params])]
    assert cmd_verify(cfg) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {tid} parameters {params}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "backend, field, value",
    [
        ("moyal", "fock_dim", 0),
        ("moyal", "fock_dim", 1),
        ("moyal", "grid_points", 0),
        ("moyal", "grid_points", -4),
        ("moyal", "grid_half_width", 0.0),
        ("moyal", "grid_half_width", -8.0),
        ("classical", "grid_points", 0),
        ("classical", "grid_half_width", 0.0),
    ],
)
def test_verify_refuses_a_bad_window_up_front(tmp_path, capsys, backend, field, value):
    # a window no grid or Fock truncation can hold is a configuration error,
    # not a traceback from the table build
    cfg = small_config(tmp_path / "out", suites=("R2",), backend=backend)
    setattr(cfg, field, value)
    assert cmd_verify(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verify_refuses_a_suite_listed_twice(tmp_path, capsys):
    cfg = small_config(tmp_path / "out")
    cfg.suites = [SuiteConfig("R2", 3, params_grid=[{"p": 1.0}]), SuiteConfig("R2", 2, params_grid=[{"p": 2.0}])]
    assert cmd_verify(cfg) == 1
    assert capsys.readouterr().err == "configuration error: R2 is listed twice\n"
    assert not (tmp_path / "out").exists()


def test_verify_unknown_theorem_exits_one(tmp_path):
    cfg = small_config(tmp_path / "out")
    cfg.suites = [SuiteConfig("R99", 2)]
    assert cmd_verify(cfg) == 1


def test_classical_backend_runs_r16(tmp_path):
    cfg = small_config(tmp_path / "out", suites=("R16",), backend="classical")
    cfg.grid_half_width, cfg.grid_points = 64.0, 1024
    assert cmd_verify(cfg) == 0


def test_classical_backend_runs_every_registry_suite(tmp_path):
    # no suite is reserved to the Moyal backend: each plans and computes its
    # rows on the commutative one, R18's derivations included
    out = tmp_path / "out"
    cfg = small_config(out, suites=harness.registry_ids(), backend="classical")
    cfg.grid_half_width, cfg.grid_points = 64.0, 1024
    assert cmd_verify(cfg) in (0, 2)
    with open(out / "cases.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({r["theorem"] for r in rows}, key=lambda t: int(t[1:])) == harness.registry_ids()
    assert len(rows) == 4 * len(harness.registry_ids())
    assert [r for r in rows if r["reason"]] == []


def test_default_config_covers_registry():
    cfg = default_config()
    assert [s.theorem for s in cfg.suites] == [f"R{i}" for i in range(1, 19) if i != 13]
    classical = default_config("classical")
    assert all(s.theorem in ("R1", "R2", "R3", "R4", "R5", "R9", "R10", "R14") for s in classical.suites)


def test_verify_deterministic_across_worker_counts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    # R9 and R18 run Fock-basis passes on tables the forked workers inherit;
    # R1 draws two elements, and unequal trial counts give per-index tasks of
    # different sizes (5, 4, 3 and 2 rows)
    base = small_config("PLACEHOLDER", trials=6, suites=("R1", "R2", "R9", "R15", "R18"))
    payload = json.loads(base.to_json())
    for suite, trials in zip(payload["suites"], (3, 6, 4, 6, 5)):
        suite["n_trials"] = trials
    for out, workers, sub in ((out1, "1", "a"), (out2, "2", "b")):
        payload["out_dir"] = str(out)
        cfg_path.write_text(json.dumps(payload))
        res = run_cli(["verify", "--config", str(cfg_path)], env_extra={"QEUCLID_WORKERS": workers})
        assert res.returncode == 0, res.stderr
    assert (out1 / "cases.csv").read_bytes() == (out2 / "cases.csv").read_bytes()
    assert (out1 / "summaries.json").read_bytes() == (out2 / "summaries.json").read_bytes()


def test_verify_draws_each_trial_index_once(tmp_path, monkeypatch):
    # trial i of every suite reads the same elements: 4 indices x 2 slots (R1
    # has two), where a draw per suite and trial would make 16
    seeds = []
    draw = harness.Backend.sample_element

    def counted(backend, seed):
        seeds.append(seed)
        return draw(backend, seed)

    monkeypatch.setattr(harness.Backend, "sample_element", counted)
    monkeypatch.setenv("QEUCLID_WORKERS", "1")
    assert cmd_verify(small_config(tmp_path / "out", trials=4, suites=("R1", "R2", "R15"))) == 0
    assert len(seeds) == len(set(seeds)) == 8
    with open(tmp_path / "out" / "cases.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["theorem"] for r in rows] == ["R1"] * 4 + ["R2"] * 4 + ["R15"] * 4
    for trial in "0123":
        assert len({r["seed"] for r in rows if r["trial"] == trial}) == 1


def test_verify_forks_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # verify forks all its workers up front, so a 3-index run asks for 3
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    sizes = []
    for workers in ("8", "2"):
        monkeypatch.setenv("QEUCLID_WORKERS", workers)
        assert cmd_verify(small_config(tmp_path / "out", trials=3)) == 0
        sizes.append(len(forks))
        forks.clear()
    assert sizes == [3, 2]


def children() -> set:
    """pids whose parent is this process, zombies included."""
    me, kids = str(os.getpid()), set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue  # exited since the listing
            if stat.rsplit(")", 1)[1].split()[1] == me:
                kids.add(int(entry))
    return kids


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_runner_runs_each_index_once_in_order(tmp_path, monkeypatch, workers):
    # 20,000 indices are 80,000 bytes, more than a 64 KiB job pipe holds
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run_index(backend, rows):
        os.write(log, b"%d\n" % rows[0])
        return [rows[0] * 3]

    monkeypatch.setattr(harness, "run_index", run_index)
    try:
        results = cli._run_forked(None, [[i] for i in range(20_000)], workers)
    finally:
        os.close(log)
    assert results == [[3 * i] for i in range(20_000)]
    ran = [int(line) for line in (tmp_path / "ran").read_text().split()]
    assert sorted(ran) == list(range(20_000))


def fail_draw(backend, seed):
    raise RuntimeError("could not draw an element passing the boundary gate")


def die_in_draw(backend, seed):
    os._exit(3)


def kill_in_draw(backend, seed):
    os.kill(os.getpid(), signal.SIGKILL)


@needs_proc
@pytest.mark.parametrize(
    "draw, code, err",
    [
        (None, 0, ""),
        (fail_draw, 1, r"verify error: could not draw an element passing the boundary gate\n"),
        (die_in_draw, 1, r"verify error: worker \d+ exited with status 3\n"),
        (kill_in_draw, 1, r"verify error: worker \d+ was killed by signal 9\n"),
    ],
    ids=["clean", "worker-raises", "worker-dies", "worker-killed"],
)
def test_verify_leaves_no_worker_and_no_pipe_open(tmp_path, monkeypatch, capsys, draw, code, err):
    if draw is not None:
        monkeypatch.setattr(harness.Backend, "sample_element", draw)
    monkeypatch.setenv("QEUCLID_WORKERS", "2")
    fds, kids = sorted(os.listdir("/proc/self/fd")), children()
    assert cmd_verify(small_config(tmp_path / "out", trials=6)) == code
    assert re.fullmatch(err, capsys.readouterr().err)
    assert children() == kids
    assert sorted(os.listdir("/proc/self/fd")) == fds


@needs_proc
def test_forked_runner_kills_its_workers_when_the_parent_fails(monkeypatch):
    # an alarm raises in the parent while it polls and both workers sleep on later indices
    class Interrupted(Exception):
        pass

    def run_index(backend, rows):
        if rows[0]:
            time.sleep(60)
        return rows

    def interrupt(signum, frame):
        raise Interrupted

    monkeypatch.setattr(harness, "run_index", run_index)
    fds, kids = sorted(os.listdir("/proc/self/fd")), children()
    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.alarm(1)
        with pytest.raises(Interrupted):
            cli._run_forked(None, [[0], [1], [2]], 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert children() == kids
    assert sorted(os.listdir("/proc/self/fd")) == fds


@needs_proc
def test_forked_runner_reads_a_cut_result_as_the_exit_status(monkeypatch):
    # each worker dies halfway through writing its one pickle
    def cut_dump(obj, sink, protocol=None):
        data = pickle.dumps(obj, protocol)
        sink.write(data[: len(data) // 2])
        sink.flush()
        os._exit(1)

    monkeypatch.setattr(harness, "run_index", lambda backend, rows: rows)
    monkeypatch.setattr(pickle, "dump", cut_dump)
    fds, kids = sorted(os.listdir("/proc/self/fd")), children()
    with pytest.raises(RuntimeError, match=r"^worker \d+ exited with status 1$"):
        cli._run_forked(None, [[0], [1], [2]], 2)
    assert children() == kids
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_verify_fails_early_on_an_unwritable_out(tmp_path, monkeypatch, capsys):
    # a directory under a regular file: refused before any table or trial
    (tmp_path / "file").write_text("")
    built = []
    monkeypatch.setattr(harness.Backend, "build_tables", lambda backend: built.append(backend))
    assert cmd_verify(small_config(tmp_path / "file" / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(tmp_path / "file" / "out") in err
    assert built == []


def test_verify_report_write_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "cases.csv").mkdir(parents=True)
    assert cmd_verify(small_config(out, trials=2, suites=("R15",))) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(out / "cases.csv") in err


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config(tmp_path / "ignored", trials=2, suites=("R15",)).to_json())
    out = tmp_path / "fresh"
    res = run_cli(["verify", "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert json.loads((out / "config.json").read_text())["master_seed"] == 5


BLAS_THREADS_PROBE = """
import ctypes, glob, os
import qeuclid.cli
import numpy

libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
print(get() if get is not None else "absent")
"""


def test_import_pins_blas_to_one_thread():
    # the pin must run before numpy loads OpenBLAS, which reads the thread
    # variables once, so setting them in qeuclid.cli after `import qeuclid` is too late
    env = cli_env()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env.pop(var, None)
    res = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    if res.stdout.strip() == "absent":
        pytest.skip("numpy does not bundle scipy-openblas")
    assert res.stdout.strip() == "1"


IMPORT_PROBE = """
import json, sys, tempfile
import numpy as np
from qeuclid import cli, harness, weyl

out = tempfile.mkdtemp()
cfg = cli.RunConfig(backend=sys.argv[1], fock_dim=32, grid_points=48, master_seed=5, workers=1, out_dir=out)
if cfg.backend == "classical":
    cfg.grid_half_width, cfg.grid_points = 64.0, 1024
cfg.suites = [cli.SuiteConfig(tid, 2) for tid in harness.registry_ids()]
codes = [cli.cmd_verify(cfg)]
if cfg.backend == "moyal":
    codes += [cli.main(["probe", what, "--N", "24", "--npts", "5", "--trials", "2", "--symbol", "bessel",
                        "--s", "1", "--out", out + "/probe.csv"])
              for what in ("quantize-roundtrip", "heat-decay", "multiplier-norm")]
    theta = weyl.DeformationMatrix.canonical(1.0)
    weyl.weyl_defect(theta, (1.0, 0.0), (0.0, 1.0), 16)
    weyl.kernel_trace_oracle(lambda t: np.exp(-t**2), 1.0, nt=64, nu=64)
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


@pytest.mark.parametrize("backend", ["classical", "moyal"])
def test_import_boundary(backend):
    # numpy is the only run-time dependency: no qeuclid path, the verify of
    # either backend, the probes and the oracles included, loads a scipy module
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, backend], capture_output=True, text=True, env=cli_env())
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    assert set(got["codes"]) <= {0, 2}
    assert got["scipy"] == []


def test_probe_quantize_roundtrip():
    res = run_cli(["probe", "quantize-roundtrip", "--h", "1", "--N", "48", "--n", "48"])
    assert res.returncode == 0
    assert "sup error" in res.stdout
    err = float(res.stdout.rsplit(" ", 1)[-1])
    assert err < 1e-4


def test_probe_heat_decay(tmp_path):
    out = tmp_path / "heat.csv"
    res = run_cli(
        ["probe", "heat-decay", "--p", "1.3333", "--q", "4", "--tmin", "0.5", "--tmax", "20",
         "--npts", "6", "--N", "48", "--out", str(out)]
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,ratio" and lines[-1].startswith("slope,")


@pytest.mark.parametrize("backend, half_width, n", [("moyal", 6.0, 40), ("classical", 32.0, 1024)])
def test_probe_heat_decay_honours_grid_flags(tmp_path, backend, half_width, n):
    # --half-width and --n pick the probe's window; the backend's default is only the fallback
    out = tmp_path / "heat.csv"
    argv = ["probe", "heat-decay", "--backend", backend, "--N", "32", "--half-width", str(half_width),
            "--n", str(n), "--npts", "6", "--out", str(out)]
    assert main(argv) == 0
    ref = make_backend(RunConfig(backend=backend, fock_dim=32, grid_half_width=half_width, grid_points=n))
    rows = harness.heat_decay_ratios(ref, ref.heat_probe(), 4.0 / 3.0, 4.0, np.geomspace(0.5, 20.0, 6))
    got = [line.split(",") for line in out.read_text().strip().splitlines()[1:-1]]
    assert [float(r) for _, r in got] == [r for _, r in rows]


def test_probe_unknown_exits_one():
    res = run_cli(["probe", "mystery"])
    assert res.returncode == 1


def test_probe_draw_failure_exits_one():
    # on a one-unit window no draw passes the boundary gate: one line, no traceback
    res = run_cli(["probe", "multiplier-norm", "--half-width", "1", "--N", "24", "--n", "16", "--trials", "1"])
    assert res.returncode == 1
    assert res.stderr == "probe error: could not draw an element passing the boundary gate\n"


def test_bad_config_file_exits_one(tmp_path, capsys):
    # not JSON, or JSON that is not an object: one line on stderr, no traceback
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[]", '"R2"'):
        bad.write_text(text)
        assert main(["verify", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot load config: ") and err.count("\n") == 1, text
    assert not (tmp_path / "qeuclid-out").exists()


def test_verify_refuses_a_malformed_worker_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QEUCLID_WORKERS", "two")
    assert cmd_verify(small_config(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "configuration error: QEUCLID_WORKERS must be an integer, got 'two'\n"
    assert not (tmp_path / "out").exists()


def test_default_worker_count_follows_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU of eight gets one worker
    monkeypatch.delenv("QEUCLID_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._resolve_workers(RunConfig()) == 1
    assert cli._resolve_workers(RunConfig(workers=3)) == 3
    monkeypatch.setenv("QEUCLID_WORKERS", "5")
    assert cli._resolve_workers(RunConfig(workers=3)) == 5
    # a platform with no affinity mask falls back to the CPU count
    monkeypatch.delenv("QEUCLID_WORKERS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._resolve_workers(RunConfig()) == 8


def test_probe_multiplier_norm():
    res = run_cli(
        ["probe", "multiplier-norm", "--symbol", "heat", "--t", "0.5", "--p", "1.5",
         "--q", "3", "--N", "48", "--trials", "3"]
    )
    assert res.returncode == 0, res.stderr
    assert "lower bound" in res.stdout and "level-set bound" in res.stdout


def test_exports_resolve():
    import qeuclid

    for info in pkgutil.iter_modules(qeuclid.__path__):
        mod = importlib.import_module(f"qeuclid.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"qeuclid.{info.name}.{name}"
    init = ast.parse(Path(qeuclid.__file__).read_text())
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert hasattr(qeuclid, alias.asname or alias.name), alias.name


def test_verify_trace_weight_failure_exits_one(tmp_path, monkeypatch, capsys):
    from qeuclid import weyl

    def fail(h, N):
        raise RuntimeError(f"trace weight validation failed for h={h}, N={N}")

    monkeypatch.setattr(weyl, "_validate_trace_weight", fail)
    monkeypatch.setenv("QEUCLID_WORKERS", "1")
    assert cmd_verify(small_config(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify error: trace weight validation failed") and err.count("\n") == 1


SITECUSTOMIZE = """
import os
import qeuclid.harness as harness

_MAIN = os.getpid()
_run_case = harness.run_case

def run_case(*args, **kwargs):
    if os.getpid() != _MAIN:
        os._exit(3)
    return _run_case(*args, **kwargs)

harness.run_case = run_case
"""


def test_verify_exits_one_when_a_worker_dies(tmp_path):
    # every forked worker exits on its first trial; verify must end, not hang
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config(tmp_path / "out", trials=6).to_json())
    env = cli_env(tmp_path, QEUCLID_WORKERS="2", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "qeuclid.cli", "verify", "--config", str(cfg_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1, err
    assert "verify error" in err and "Traceback" not in err
    assert "exited with status 3" in err and err.count("\n") == 1


def test_verify_takes_two_norms_without_an_svd(tmp_path, monkeypatch):
    # R18 reads ||x||_2, ||d1 x||_2, ||d2 x||_2 and ||x||_1: only the 1-norm
    # needs singular values, one SVD per trial where the profile path took 3
    calls = []
    profile = spectra.singular_profile

    def counted(x):
        calls.append(x)
        return profile(x)

    monkeypatch.setattr(spectra, "singular_profile", counted)
    monkeypatch.setenv("QEUCLID_WORKERS", "1")
    assert cmd_verify(small_config(tmp_path / "out", trials=4, suites=("R18",))) == 0
    assert len(calls) == 4
