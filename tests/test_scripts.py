"""Smoke tests: each script under scripts/ runs on a tiny input."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divergence_table_writes_tables(capsys):
    main = load_script("divergence_table").main
    assert main(["--group", "const:2", "--kmax", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pattern const:2  bound M = 2  blocks = 2"
    assert lines[1].split() == [
        "k", "alpha_k", "digits(q_k)", "LB_k", "sqrt(alpha_k)", "LB_k/sqrt(a)", "verdict"
    ]
    rows = [line.split() for line in lines[2:4]]
    assert [(row[0], row[1], row[2], row[-1]) for row in rows] == [
        ("0", "6", "4", "ok"),
        ("1", "33", "20", "ok"),
    ]
    assert lines[4].endswith("f in H_1/2: ok")
    assert lines[5:] == ["divergence certified"]
