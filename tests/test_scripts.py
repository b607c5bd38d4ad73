"""Smoke tests: each script under scripts/ runs on a tiny input."""
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divergence_table_writes_tables(tmp_path, capsys):
    main = load_script("divergence_table").main
    assert main(["--group", "const:2", "--kmax", "2", "--csv", str(tmp_path)]) == 0
    assert "divergence certified" in capsys.readouterr().out
    base = tmp_path / "divergence_const_2"
    summary = Path(f"{base}_summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0].startswith("k,alpha_k,q_alpha_k") and len(summary) == 3
    plot = Path(f"{base}_plot.csv").read_text(encoding="utf-8").splitlines()
    assert plot[0] == "k,sqrt_alpha_k,lb_squared" and len(plot) == 3
    doc = json.loads(Path(f"{base}.json").read_text(encoding="utf-8"))
    assert doc["passed"] is True and len(doc["ledgers"]) == 2
    assert doc["rows"][0]["q_index"] == "5461"


def test_kernel_margin_sweep_writes_rows(tmp_path, capsys):
    out = tmp_path / "margins.csv"
    main = load_script("kernel_margin_sweep").main
    assert main(["--levels", "3:4", "--groups", "const:2", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "pattern,level,kernel_order,regions,global_min_ratio,worst_eta,worst_s"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["const:2", "3", "21"],
        ["const:2", "4", "85"],
    ]
    assert "floor 1/4 holds" in capsys.readouterr().err
