import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_cases.py"
HEADER = "theorem,trial,seed,params,lhs,rhs,ratio,passed,reason,config_hash\n"
OLD = HEADER + (
    'R2,0,11,"{""p"":1.0}",2.0,4.0,0.5,True,,abc\n'
    'R2,1,12,"{""p"":2.0}",1.0,1.0,1.0,True,,abc\n'
    "R10,0,13,{},nan,1.0,nan,False,nonfinite ratio,abc\n"
    "R12,0,14,{},3.0,1.0,3.0,False,ratio 3 > 1,abc\n"
)
NEW = HEADER + (
    'R2,0,11,"{""p"":1.0}",2.000002,4.0,0.500001,True,,def\n'
    'R2,1,12,"{""p"":2.0}",1.0,1.001,0.999,True,,def\n'
    "R10,0,13,{},nan,1.0,nan,False,nonfinite ratio,def\n"
    "R12,0,14,{},3.0,1.0,3.0,False,ratio 3 > 1,def\n"
)


def compare(tmp_path, old, new):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    cmd = [sys.executable, str(SCRIPT), str(tmp_path / "old.csv"), str(tmp_path / "new.csv")]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def test_compare_cases_reports_moves_per_suite(tmp_path):
    # the config hash may differ; the p = 1 row of R2 is reported apart from its p = 2 row
    out = compare(tmp_path, OLD, NEW)
    assert out.returncode == 0, out.stderr
    rows = {line.split()[0]: line.split()[1:] for line in out.stdout.splitlines()[3:]}
    assert rows["R2"] == ["1", "0.00e+00", "9.99e-04", "1.00e-03", "1", "1.00e-06", "0.00e+00", "2.00e-06"]
    assert rows["R10"] == ["1", "0.00e+00", "0.00e+00", "0.00e+00", "0", "-", "-", "-"]
    assert rows["R12"][:4] == ["1", "0.00e+00", "0.00e+00", "0.00e+00"]


def test_compare_cases_refuses_rows_that_differ(tmp_path):
    out = compare(tmp_path, OLD, NEW.replace("ratio 3 > 1", "ratio 3.1 > 1"))
    assert out.returncode == 1
    assert "row 5: reason 'ratio 3 > 1' -> 'ratio 3.1 > 1'" in out.stdout
    out = compare(tmp_path, OLD, NEW.replace("R12,0,14", "R12,0,15"))
    assert out.returncode == 1 and "row 5: seed '14' -> '15'" in out.stdout
    assert compare(tmp_path, OLD, NEW.rsplit("R12", 1)[0]).returncode == 1
