import ast
import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys

from qeuclid.cli import RunConfig, SuiteConfig, cmd_verify, default_config, main


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
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "qeuclid.cli", *args],
        capture_output=True,
        text=True,
        env=env,
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


def test_verify_empty_suites(tmp_path):
    cfg = small_config(tmp_path / "out", suites=())
    assert cmd_verify(cfg) == 0
    assert json.loads((tmp_path / "out" / "summaries.json").read_text())["suites"] == {}


def test_verify_bad_parameter_exits_one(tmp_path, capsys):
    cfg = small_config(tmp_path / "out")
    cfg.suites = [SuiteConfig("R17", 2, params_grid=[{"p": 1.5, "s": 5.0}])]
    assert cmd_verify(cfg) == 1
    assert "outside" in capsys.readouterr().err


def test_verify_unknown_theorem_exits_one(tmp_path):
    cfg = small_config(tmp_path / "out")
    cfg.suites = [SuiteConfig("R99", 2)]
    assert cmd_verify(cfg) == 1


def test_classical_backend_id_restriction(tmp_path):
    cfg = small_config(tmp_path / "out", suites=("R16",), backend="classical")
    cfg.grid_half_width, cfg.grid_points = 64.0, 1024
    assert cmd_verify(cfg) == 1


def test_default_config_covers_registry():
    cfg = default_config()
    assert [s.theorem for s in cfg.suites] == [f"R{i}" for i in range(1, 19)]
    classical = default_config("classical")
    assert all(s.theorem in ("R1", "R2", "R3", "R4", "R5", "R9", "R10", "R14") for s in classical.suites)


def test_verify_deterministic_across_worker_counts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    base = small_config("PLACEHOLDER", trials=6)
    payload = json.loads(base.to_json())
    for out, workers, sub in ((out1, "1", "a"), (out2, "2", "b")):
        payload["out_dir"] = str(out)
        cfg_path.write_text(json.dumps(payload))
        res = run_cli(["verify", "--config", str(cfg_path)], env_extra={"QEUCLID_WORKERS": workers})
        assert res.returncode == 0, res.stderr
    assert (out1 / "cases.csv").read_bytes() == (out2 / "cases.csv").read_bytes()
    assert (out1 / "summaries.json").read_bytes() == (out2 / "summaries.json").read_bytes()


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config(tmp_path / "ignored", trials=2, suites=("R15",)).to_json())
    out = tmp_path / "fresh"
    res = run_cli(["verify", "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert json.loads((out / "config.json").read_text())["master_seed"] == 5


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


def test_probe_unknown_exits_one():
    res = run_cli(["probe", "mystery"])
    assert res.returncode == 1


def test_bad_config_file_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 1


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
    init = ast.parse(open(qeuclid.__file__).read())
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
import multiprocessing, os
import qeuclid.harness as harness

_run_case = harness.run_case

def run_case(*args, **kwargs):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _run_case(*args, **kwargs)

harness.run_case = run_case
"""


def test_verify_exits_one_when_a_worker_dies(tmp_path):
    # every pool worker exits on its first trial; verify must end, not hang
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config(tmp_path / "out", trials=6).to_json())
    env = dict(os.environ, QEUCLID_WORKERS="2", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PYTHONPATH")]))
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
