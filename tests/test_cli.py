"""CLI behavior: flags, exit codes, output formats, determinism."""
import contextlib
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vilenkin import cli, counterexample, kernels, serialize, transform
from vilenkin.cli import main
from vilenkin.exact import build_alpha_sequence, divergence_report
from vilenkin.group import GRID_CAP, GroupPattern, build_group_spec
from vilenkin.serialize import doc_to_function, dumps_canonical, function_to_doc
from vilenkin.kernels import fejer_kernel
from vilenkin.transform import CylinderFunction, Spectrum, sup_abs


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def ones_file(tmp_path):
    g = build_group_spec([2] * 8)
    f = CylinderFunction(g, np.ones(g.size, dtype=np.complex128))
    path = tmp_path / "ones.json"
    path.write_text(dumps_canonical(function_to_doc(f)), encoding="utf-8")
    return str(path)


def test_transform_ones_gives_delta_spectrum(ones_file, tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert run_cli("transform", "--group", "const:2^8", "--input", ones_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    s = doc_to_function(doc)
    assert isinstance(s, Spectrum)
    assert abs(s.coeffs[0] - 1.0) < 1e-12
    assert sup_abs(s.coeffs[1:]) < 1e-12


def test_transform_spectrum_input_reconstructs(ones_file, tmp_path):
    out = tmp_path / "spec.json"
    run_cli("transform", "--input", ones_file, "--out", str(out))
    back = tmp_path / "back.json"
    assert run_cli("transform", "--input", str(out), "--out", str(back)) == 0
    f = doc_to_function(json.loads(back.read_text(encoding="utf-8")))
    assert isinstance(f, CylinderFunction)
    assert sup_abs(f.values - 1.0) < 1e-12


def test_transform_random_with_oracle_check(capsys):
    assert run_cli("transform", "--group", "2,3,2,4", "--random", "--seed", "7", "--check-oracle") == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "ok" in out


def test_transform_negative_seed_exits_2(capsys):
    assert run_cli("transform", "--group", "2,3", "--random", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be >= 0, got -1")


def test_transform_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "malformed.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("transform", "--group", "const:2^8", "--input", str(bad)) == 2
    assert "error" in capsys.readouterr().err


def test_transform_group_mismatch_exits_2(ones_file, capsys):
    assert run_cli("transform", "--group", "const:3^4", "--input", ones_file) == 2


def test_transform_input_resolution_below_one_exits_2(tmp_path, capsys):
    bad = tmp_path / "cut.json"
    doc = {"group": {"digits": [2, 3, 4], "resolution": -1}, "kind": "values",
           "re": [0.0] * 6, "im": [0.0] * 6}
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("transform", "--input", str(bad)) == 2
    assert "resolution must be >= 1" in capsys.readouterr().err


def test_transform_input_with_float_digits_exits_2(tmp_path, capsys):
    bad = tmp_path / "floats.json"
    doc = {"group": {"digits": [2.9, 3.2], "resolution": 2}, "kind": "values",
           "re": [0.0] * 6, "im": [0.0] * 6}
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("transform", "--input", str(bad)) == 2
    assert "bad group object" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_transform_input_with_a_non_finite_number_exits_2_naming_the_file(token, tmp_path, capsys):
    bad = tmp_path / "nonfinite.json"
    bad.write_text(
        '{"group": {"digits": [2, 3], "resolution": 2}, "kind": "values", '
        f'"re": [{token}, 0, 0, 0, 0, 0], "im": [0, 0, 0, 0, 0, 0]}}',
        encoding="utf-8",
    )
    assert run_cli("transform", "--input", str(bad)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(bad) in err and token in err


@pytest.mark.parametrize("field, literal", [("re", "1e400"), ("im", "-1e400")])
def test_transform_input_beyond_the_float_range_exits_2_naming_the_file(field, literal, tmp_path, capsys):
    bad = tmp_path / "overflow.json"
    re = im = "0, 0, 0, 0, 0, 0"
    if field == "re":
        re = f"{literal}, 0, 0, 0, 0, 0"
    else:
        im = f"{literal}, 0, 0, 0, 0, 0"
    bad.write_text(
        '{"group": {"digits": [2, 3], "resolution": 2}, "kind": "values", '
        f'"re": [{re}], "im": [{im}]}}',
        encoding="utf-8",
    )
    assert run_cli("transform", "--input", str(bad)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(bad) in err and literal in err


def test_transform_input_longer_than_its_resolution_exits_2(tmp_path, capsys):
    bad = tmp_path / "long.json"
    doc = {"group": {"digits": [2, 3, 4], "resolution": 2}, "kind": "values",
           "re": [0.0] * 6, "im": [0.0] * 6}
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("transform", "--input", str(bad)) == 2
    assert "more than its resolution 2" in capsys.readouterr().err


def test_transform_random_needs_group(capsys):
    assert run_cli("transform", "--random") == 2


def test_transform_csv_format(tmp_path):
    out = tmp_path / "f.csv"
    assert run_cli(
        "transform", "--group", "2,3", "--random", "--seed", "1", "--out", str(out), "--format", "csv"
    ) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "index,re,im"
    assert len(lines) == 7


def test_transform_json_writer_holds_no_python_copy_of_the_document(tmp_path):
    # 2^17 points: a 2 MiB grid vector and 5.7 MiB of JSON; one Python
    # float per value and one string per number would take over 40 MiB
    out = tmp_path / "f.json"
    tracemalloc.start()
    try:
        assert run_cli("transform", "--group", "const:2^17", "--random", "--seed", "7", "--out", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 << 20


def test_transform_csv_writer_holds_no_python_copy_of_the_document(tmp_path):
    # 2^17 points: the whole CSV as one list of lines and one joined
    # string took 30 MiB; lines of 4,096 points at a time take a fraction
    out = tmp_path / "f.csv"
    argv = ["transform", "--group", "const:2^17", "--random", "--seed", "7", "--format", "csv", "--out", str(out)]
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20
    with open(out, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + (1 << 17)


def _poison(monkeypatch, argv):
    """Make the report of ``argv`` carry a NaN, which its writer refuses."""
    import dataclasses

    nan = float("nan")
    if argv[0] == "lemma2":
        real = counterexample.lemma2_verify
        monkeypatch.setattr(
            counterexample, "lemma2_verify",
            lambda *a: dataclasses.replace(real(*a), global_min_ratio=nan),
        )
    else:
        real = cli.divergence_report

        def poisoned(*a, **k):
            report = real(*a, **k)
            series = dataclasses.replace(report.series, hardy_upper=nan)  # written after the ledgers
            return dataclasses.replace(report, series=series)

        monkeypatch.setattr(cli, "divergence_report", poisoned)


@pytest.mark.parametrize("flush", [2, 4096])
@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--group", "const:2", "--kmax", "6", "--json"],
        ["lemma2", "--group", "const:2", "--A", "4"],
    ],
)
def test_a_report_that_fails_while_written_leaves_no_out_file(argv, flush, monkeypatch, tmp_path, capsys):
    from vilenkin import serialize

    monkeypatch.setattr(serialize, "_FLUSH_PARTS", flush)  # 2: bytes reach the file first
    _poison(monkeypatch, argv)
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: refusing to serialize non-finite value nan\n"
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_kernel_dirichlet_self_check_and_values(tmp_path, capsys):
    out = tmp_path / "d6.json"
    assert run_cli(
        "kernel", "--kind", "dirichlet", "--n", "6", "--group", "2,3,2", "--out", str(out)
    ) == 0
    assert "D_6(0) = 6" in capsys.readouterr().out
    kern = doc_to_function(json.loads(out.read_text(encoding="utf-8")))
    want = np.zeros(12)
    want[[0, 6]] = 6.0  # M_2 * indicator of I_2
    assert sup_abs(kern.values - want) < 1e-10


def test_kernel_fejer_n1_is_zero(tmp_path, capsys):
    out = tmp_path / "k1.json"
    assert run_cli("kernel", "--kind", "fejer", "--n", "1", "--group", "const:2^4", "--out", str(out)) == 0
    kern = doc_to_function(json.loads(out.read_text(encoding="utf-8")))
    assert sup_abs(kern.values) < 1e-12


def test_kernel_value_at_zero_mismatch_exits_4(monkeypatch, tmp_path, capsys):
    def wrong_at_zero(n, group):
        kernel = fejer_kernel(n, group)
        return CylinderFunction(group, kernel.values + 1.0)

    monkeypatch.setattr(kernels, "fejer_kernel", wrong_at_zero)
    out = tmp_path / "k21.json"
    assert run_cli("kernel", "--kind", "fejer", "--n", "21", "--group", "const:2^6", "--out", str(out)) == 4
    assert capsys.readouterr().out == "K_21(0) = 11 (expected 10): MISMATCH\n"
    assert out.exists()  # the values are still written, for inspection


def test_kernel_group_without_a_depth_exits_2(capsys):
    assert run_cli("kernel", "--kind", "fejer", "--n", "7", "--group", "const:2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group 'const:2' carries no depth; add one as ^N (e.g. const:2^8)\n"


def test_kernel_bad_index_exits_2(capsys):
    assert run_cli("kernel", "--kind", "dirichlet", "--n", "-3", "--group", "const:2^4") == 2
    assert run_cli("kernel", "--kind", "fejer", "--n", "0", "--group", "const:2^4") == 2


def test_lemma2_report_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "l2.json"
    assert run_cli("lemma2", "--group", "const:2", "--A", "4", "--out", str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert doc["global_min_ratio"] >= 0.25
    assert run_cli("lemma2", "--group", "const:3", "--A", "3") == 0
    capsys.readouterr()
    assert run_cli("lemma2", "--group", "const:2", "--A", "2") == 2


def test_fixed_caps_exit_3(capsys):
    assert run_cli("lemma2", "--group", "const:2", "--A", "11") == 3
    assert "a depth-22 grid has at least 2^22 points, cap is 1048576" in capsys.readouterr().err
    assert run_cli("transform", "--group", "const:2^13", "--random", "--check-oracle") == 3
    assert "M_N <= 4096, group has 8192 points" in capsys.readouterr().err


def test_oracle_cap_is_checked_before_the_transform(monkeypatch, capsys):
    def refuse(f):
        raise AssertionError("the fast transform ran before the oracle's cap was checked")

    monkeypatch.setattr(transform, "forward_transform", refuse)
    assert run_cli("transform", "--group", "const:2^13", "--random", "--check-oracle") == 3
    assert "M_N <= 4096, group has 8192 points" in capsys.readouterr().err


def test_zero_caps_are_refused(capsys):
    for cap in ("0", "-7", "1"):  # below 2 every grid audit would be skipped
        assert run_cli("counterexample", "--group", "const:2", "--kmax", "1", "--materialize-cap", cap) == 2
        assert f"must be >= 2, got {cap}" in capsys.readouterr().err
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "1", "--materialize-cap", "2") == 0


@pytest.mark.parametrize("cap", ["16777217", "1180591620717411303424"])
def test_caps_above_the_grid_cap_are_refused(cap, capsys):
    # above 2^24 the audit would build a grid that every other command refuses
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "2", "--materialize-cap", cap) == 2
    err = capsys.readouterr().err
    assert err == f"error: materialization cap must be <= 16777216, got {cap}\n"


@pytest.mark.parametrize("cap, message", [("1", "must be >= 2, got 1"), ("16777217", "must be <= 16777216, got 16777217")])
def test_out_of_range_caps_are_refused_before_planning(cap, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("levels were planned before the cap was checked")

    monkeypatch.setattr(cli, "build_alpha_sequence", refuse)
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "12", "--materialize-cap", cap) == 2
    assert capsys.readouterr().err == f"error: materialization cap {message}\n"


def test_counterexample_builds_each_audited_grid_once(monkeypatch, capsys):
    built = []
    group = GroupPattern.group

    def counted(self, resolution, cap=GRID_CAP):
        grid = group(self, resolution, cap)  # a grid over the cap is refused, not built
        built.append(resolution)
        return grid

    monkeypatch.setattr(GroupPattern, "group", counted)
    assert run_cli("counterexample", "--group", "2,2,3", "--kmax", "2") == 0
    assert built == [13]


@pytest.mark.parametrize("argv", [
    ("kernel", "--kind", "dirichlet", "--n", "1", "--group", "const:2^40"),
    ("transform", "--group", "const:2^40", "--random"),
])
def test_grid_over_the_default_cap_exits_3(argv, capsys):
    assert run_cli(*argv) == 3
    assert "cap is 16777216" in capsys.readouterr().err


def test_huge_depth_exits_3_without_computing_the_grid_size(capsys):
    start = time.perf_counter()
    assert run_cli("kernel", "--kind", "dirichlet", "--n", "1", "--group", "const:3^100000000") == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "cap exceeded: a depth-100000000 grid has at least 2^100000000 points, cap is 16777216\n"
    )


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("vilenkin ")]
    assert commands
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ("kernel", "--kind", "dirichlet", "--n", "1", "--group", "5000"),
    ("transform", "--group", "5000", "--random"),
])
def test_base_with_a_root_table_over_the_cap_exits_3(argv, capsys):
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: a base-5000 root table has 25000000 entries, cap is 16777216\n"


def test_a_kernel_order_past_a_grid_with_an_over_cap_base_exits_3(capsys):
    # both the order and the base are out of range: the grid is refused
    # first, as one over the point cap is
    assert run_cli("kernel", "--kind", "dirichlet", "--n", "6000", "--group", "5000") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: a base-5000 root table has 25000000 entries, cap is 16777216\n"


def test_transform_refuses_an_over_cap_base_before_drawing_any_point(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("random points drawn before the root tables were checked")

    monkeypatch.setattr(transform, "random_cylinder_function", no_draw)
    assert run_cli("transform", "--group", "5000,2,2,2,2,2,2,2,2", "--random") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: a base-5000 root table has 25000000 entries, cap is 16777216\n"


def test_environment_sets_no_cap(monkeypatch, capsys):
    argv = ("counterexample", "--group", "const:2", "--kmax", "1")
    assert run_cli(*argv) == 0
    want = capsys.readouterr().out
    for value in ("junk", "2"):
        monkeypatch.setenv("VILENKIN_MATERIALIZE_CAP", value)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == want


def test_commands_that_pick_their_depth_refuse_a_fixed_one(capsys):
    assert run_cli("lemma2", "--group", "const:2^3", "--A", "5") == 2
    assert "picks its own" in capsys.readouterr().err
    assert run_cli("counterexample", "--group", "const:2^40", "--kmax", "2") == 2
    assert "picks its own" in capsys.readouterr().err
    # text that does not parse fixes no depth
    assert run_cli("lemma2", "--group", "2^3", "--A", "4") == 2
    assert "cannot parse" in capsys.readouterr().err
    assert run_cli("counterexample", "--group", "2,3^4", "--kmax", "2") == 2
    assert "cannot parse" in capsys.readouterr().err
    # a digit list stays a base pattern
    assert run_cli("lemma2", "--group", "2,3", "--A", "3") == 0
    assert run_cli("counterexample", "--group", "2,2", "--kmax", "1") == 0


def test_counterexample_eight_rows(capsys):
    assert run_cli("counterexample", "--group", "const:2", "--alpha0", "6", "--kmax", "8") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].startswith("k,alpha_k,q_alpha_k")
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[2] == "5461" and row0[5] != ""


def test_counterexample_low_alpha0_exits_2(capsys):
    assert run_cli("counterexample", "--group", "const:2", "--alpha0", "4", "--kmax", "1") == 2


def test_counterexample_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    assert run_cli(
        "counterexample", "--group", "const:2", "--kmax", "3", "--emit-plot-data", str(plot)
    ) == 0
    lines = plot.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "k,sqrt_alpha_k,lb_squared"
    assert len(lines) == 4
    capsys.readouterr()
    # bare flag: plot data replaces the summary on stdout
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "2", "--emit-plot-data") == 0
    out = capsys.readouterr().out
    assert out.startswith("k,sqrt_alpha_k,lb_squared")


def test_counterexample_json_with_bare_plot_flag_exits_2_before_planning(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("build_alpha_sequence ran before the flags were checked")

    monkeypatch.setattr(cli, "build_alpha_sequence", refuse)
    argv = ("counterexample", "--group", "const:2", "--kmax", "2", "--json", "--emit-plot-data")
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --json and a bare --emit-plot-data ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_counterexample_out_and_plot_data_on_one_file_exit_2_before_planning(json_flag, monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("build_alpha_sequence ran before the paths were compared")

    monkeypatch.setattr(cli, "build_alpha_sequence", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    report = tmp_path / "report.txt"
    # the same file under two spellings: the plot data would overwrite the report
    argv = ("counterexample", "--group", "const:2", "--kmax", "2", *json_flag,
            "--out", str(report), "--emit-plot-data", "sub/../report.txt")
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out and --emit-plot-data both name {report}; the plot data would overwrite the report\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--group", "const:2", "--kmax", "2", "--out"],
        ["counterexample", "--group", "const:2", "--kmax", "2", "--json", "--out"],
        ["counterexample", "--group", "const:2", "--kmax", "2", "--emit-plot-data"],
        ["kernel", "--kind", "fejer", "--n", "5", "--group", "const:2^4", "--out"],
        ["transform", "--group", "2,3", "--random", "--out"],
        ["lemma2", "--group", "const:2", "--A", "4", "--out"],
    ],
)
def test_unwritable_output_path_exits_2_with_one_line(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert run_cli(*argv, str(target)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["counterexample", "--group", "const:2", "--kmax", "10", "--json", "--out"], "build_alpha_sequence"),
        (["counterexample", "--group", "const:2", "--kmax", "10", "--emit-plot-data"], "build_alpha_sequence"),
        (["lemma2", "--group", "const:2", "--A", "10", "--out"], "lemma2_verify"),
        (["kernel", "--kind", "fejer", "--n", "5", "--group", "const:2^20", "--out"], "_load_group"),
        (["transform", "--group", "const:2^20", "--random", "--out"], "_load_group"),
    ],
)
def test_unwritable_output_path_is_refused_before_any_work(argv, work, monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    # lemma2_verify is on the grid side, which cli imports when lemma2 runs
    monkeypatch.setattr(counterexample if work == "lemma2_verify" else cli, work, refuse)
    target = tmp_path / "missing" / "out.txt"
    assert run_cli(*argv, str(target)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_output_path_check_leaves_existing_files_alone_and_new_ones_unmade(tmp_path, capsys):
    existing, new = tmp_path / "existing.json", tmp_path / "new.json"
    existing.write_text("keep", encoding="utf-8")
    for path in (existing, new):  # the grid is refused after the path check
        assert run_cli("kernel", "--kind", "dirichlet", "--n", "1", "--group", "const:2^40", "--out", str(path)) == 3
    assert "cap is" in capsys.readouterr().err
    assert existing.read_text(encoding="utf-8") == "keep"
    assert not new.exists()


def test_out_naming_a_fifo_writes_the_report_to_its_reader(tmp_path):
    # the path check must not open a named pipe: closing it again would
    # end the reader's input, and the report's own open would then wait
    # for a reader forever
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = [sys.executable, "-m", "vilenkin.cli", "counterexample", "--group", "const:2", "--kmax", "3"]
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        piped = subprocess.run([*argv, "--out", str(fifo)], capture_output=True, timeout=60)
    finally:  # a reader still waiting for a writer gets the end of its input
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert piped.returncode == 0, piped.stderr
    assert got == [subprocess.run(argv, capture_output=True, timeout=120, check=True).stdout]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_failed_write_to_stdout_exits_2_with_one_line():
    argv = [sys.executable, "-m", "vilenkin.cli", "counterexample", "--group", "const:2", "--kmax", "3"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--group", "const:2", "--kmax", "2"],
        ["counterexample", "--group", "const:2", "--kmax", "2", "--json"],
        ["lemma2", "--group", "const:2", "--A", "3"],
        ["kernel", "--kind", "fejer", "--n", "5", "--group", "const:2^4"],
        ["transform", "--group", "2,3", "--random", "--check-oracle"],
    ],
)
def test_dash_out_is_stdout(argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out", "-") == 0
    dashed = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*argv, "--out", "file") == 0
    text = (tmp_path / "file").read_text(encoding="utf-8")
    assert dashed == capsys.readouterr().out + text + ("" if text.endswith("\n") else "\n")


def test_counterexample_json_report(capsys):
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "2", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["ledgers"]) == 2


def test_counterexample_deterministic_output(capsys):
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "4") == 0
    first = capsys.readouterr().out
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "4") == 0
    second = capsys.readouterr().out
    assert first == second


def test_selftest_passes(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert out.count("ok - ") >= 8
    assert "fail" not in out


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "vilenkin.cli", "kernel", "--kind", "fejer", "--n", "21",
         "--group", "const:2^6"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "K_21(0) = 10" in proc.stdout
    assert proc.stderr == ""


def test_closed_stdout_exits_141_without_a_traceback():
    argv = [sys.executable, "-m", "vilenkin.cli", "counterexample", "--group", "const:2",
            "--kmax", "6", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            # the report is over a megabyte, far more than a pipe buffers
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
    assert err == b""


def test_selftest_fails_a_check_under_python_O():
    # -O strips assert statements: a check whose q_number is wrong must
    # still fail, with its reason, and the selftest exit with 4
    code = (
        "import sys\n"
        "from vilenkin import cli\n"
        "from vilenkin.group import GroupPattern\n"
        "q_number = GroupPattern.q_number\n"
        "GroupPattern.q_number = lambda self, a: 2 * q_number(self, a)\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith("fail - sparse order recursion and doubling: ")]
    assert len(failed) == 1 and failed[0].split(": ", 1)[1].strip()
    assert "selftest check(s) failed" in proc.stderr


# ---------------------------------------------------------------------------
# verdicts: each one fails the CLI in turn, and the JSON fields follow them
# ---------------------------------------------------------------------------

# the verdicts of ``counterexample --group const:2 --kmax 2`` in report order;
# block 0's grid fits the default cap, block 1's does not
CONST2_K2_VERDICTS = (
    "ledgers[0].q_doubling_ok", "ledgers[0].history_ok", "ledgers[0].separation_all_ok",
    "ledgers[1].q_doubling_ok", "ledgers[1].history_ok", "ledgers[1].separation_all_ok",
    "lb_strictly_increasing",
    "series.doubling_ok", "series.weight_sqrt_sum", "series.atoms_ok", "series.atom_maximal_ok",
    "series.grid_estimate_ok",
    "rows[0].pointwise_ok", "rows[0].integral_dominates_ok",
    "rows[1].pointwise_ok", "rows[1].integral_dominates_ok",
    "rate_certified_from",
)


@pytest.fixture(scope="module")
def const2_k2_report():
    return divergence_report(build_alpha_sequence(GroupPattern((2,)), 2))


def _steps(name: str):
    """The attribute names and indices of a verdict name such as ``ledgers[0].history_ok``."""
    for part in name.split("."):
        field, _, index = part.rstrip("]").partition("[")
        yield field
        if index:
            yield int(index)


def _failing(obj, steps):
    """``obj`` with only the field at ``steps`` set to a value that fails its verdict."""
    field, *rest = steps
    if rest and isinstance(rest[0], int):
        items = list(getattr(obj, field))
        items[rest[0]] = _failing(items[rest[0]], rest[1:])
        value = tuple(items)
    elif rest:
        value = _failing(getattr(obj, field), rest)
    elif field == "weight_sqrt_sum":
        value = 2 * obj.geometric_majorant
    elif field == "rate_certified_from":
        value = None
    else:
        value = False
    return dataclasses.replace(obj, **{field: value})


def test_the_const2_k2_report_has_these_verdicts(const2_k2_report):
    verdicts = const2_k2_report.verdicts()
    assert tuple(v.name for v in verdicts) == CONST2_K2_VERDICTS
    assert [v.name for v in verdicts if v.ok is not True] == ["rows[1].pointwise_ok", "rows[1].integral_dominates_ok"]
    assert [v.ok for v in verdicts if v.ok is not True] == [None, None]


@pytest.mark.parametrize("name", CONST2_K2_VERDICTS)
def test_each_verdict_fails_the_counterexample_command_with_its_reason(name, const2_k2_report, monkeypatch, capsys):
    broken = _failing(const2_k2_report, list(_steps(name)))
    failed = [v for v in broken.verdicts() if v.ok is False]
    assert [v.name for v in failed] == [name]
    assert failed[0].reason and broken.first_failure() == failed[0].reason
    monkeypatch.setattr(cli, "divergence_report", lambda seq, cap: broken)
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "2") == 4
    out, err = capsys.readouterr()
    assert err == f"verification failed: {failed[0].reason}\n"
    assert out == serialize.summary_csv(broken)


def test_a_series_failure_names_its_check(const2_k2_report):
    names = [name for name in CONST2_K2_VERDICTS if name.startswith("series.")]
    reasons = {_failing(const2_k2_report, list(_steps(name))).first_failure() for name in names}
    assert len(reasons) == len(names)
    assert all(reason.startswith("H_{1/2} membership side failed: ") for reason in reasons)


def test_a_numpy_false_atom_check_fails_the_counterexample_command(monkeypatch, capsys):
    # an atom failing only its mean-zero check, its flag a numpy bool as a float comparison gives
    validate = counterexample.validate_p_atom
    monkeypatch.setattr(
        counterexample, "validate_p_atom", lambda *a: dataclasses.replace(validate(*a), mean_ok=np.False_)
    )
    assert run_cli("counterexample", "--group", "const:2", "--kmax", "2") == 4
    out, err = capsys.readouterr()
    assert err == "verification failed: H_{1/2} membership side failed: a block is not a (1/2)-atom on its grid\n"
    assert out.splitlines()[0].startswith("k,")


def test_a_numpy_bool_flag_is_a_python_bool_verdict(const2_k2_report):
    series = dataclasses.replace(const2_k2_report.series, atoms_ok=np.False_, grid_estimate_ok=np.True_)
    broken = dataclasses.replace(const2_k2_report, series=series)
    oks = {v.name: v.ok for v in broken.verdicts()}
    assert oks["series.atoms_ok"] is False and oks["series.grid_estimate_ok"] is True
    assert not series.ok and not broken.passed
    assert broken.first_failure() == "H_{1/2} membership side failed: a block is not a (1/2)-atom on its grid"


def test_a_failing_kernel_floor_fails_lemma2_with_its_reason(monkeypatch, capsys):
    broken = dataclasses.replace(counterexample.lemma2_verify(GroupPattern((2,)), 4), global_min_ratio=0.1)
    monkeypatch.setattr(counterexample, "lemma2_verify", lambda pattern, level: broken)
    assert run_cli("lemma2", "--group", "const:2", "--A", "4") == 4
    out, err = capsys.readouterr()
    assert err == "kernel floor fails: global min ratio 0.1 < 0.25\n"
    assert out == dumps_canonical(broken) + "\n"
    assert json.loads(out)["passed"] is False


def test_selftest_names_the_failing_verdict_of_each_report_check(monkeypatch, capsys):
    lemma2, report = counterexample.lemma2_verify, cli.divergence_report
    monkeypatch.setattr(
        counterexample, "lemma2_verify", lambda *a: dataclasses.replace(lemma2(*a), global_min_ratio=0.1)
    )
    monkeypatch.setattr(
        cli, "divergence_report", lambda *a, **k: dataclasses.replace(report(*a, **k), rate_certified_from=None)
    )
    assert run_cli("selftest") == 4
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fail - ")]
    alphas = build_alpha_sequence(GroupPattern((2,)), 2).alphas
    assert failed == [
        "fail - kernel floor on regions: lemma2 on const:2 at A = 3 did not pass: "
        "kernel floor fails: global min ratio 0.1 < 0.25",
        f"fail - counterexample ledgers and atom checks: the divergence report of alphas {alphas} "
        "did not pass: rate certificate 4 count_k >= alpha_k never stabilizes",
    ]


def test_selftest_fails_when_block_0s_atom_checks_are_skipped(monkeypatch, capsys):
    # at a cap of 2 no block's grid fits: the report passes with its atom
    # verdicts skipped, and the selftest must fail on them
    report = cli.divergence_report
    monkeypatch.setattr(cli, "divergence_report", lambda seq: report(seq, cap=2))
    assert run_cli("selftest") == 4
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fail - ")]
    assert failed == [
        "fail - counterexample ledgers and atom checks: series.atoms_ok is None, not True: "
        "block 0's atom was not checked"
    ]


def _none_failed(verdicts) -> bool:
    return all(v.ok is None or v.ok for v in verdicts)


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--group", "const:2", "--kmax", "6"],
        ["counterexample", "--group", "2,3", "--kmax", "4", "--materialize-cap", "50000"],
        ["counterexample", "--group", "const:2", "--kmax", "1"],
        ["lemma2", "--group", "const:2", "--A", "4"],
    ],
)
def test_json_verdict_fields_equal_their_records(argv, monkeypatch, capsys):
    reports = []

    def recorded(make):
        def wrapped(*args, **kwargs):
            reports.append(make(*args, **kwargs))
            return reports[-1]
        return wrapped

    monkeypatch.setattr(cli, "divergence_report", recorded(cli.divergence_report))
    monkeypatch.setattr(counterexample, "lemma2_verify", recorded(counterexample.lemma2_verify))
    assert run_cli(*argv, *(["--json"] if argv[0] == "counterexample" else [])) == 0
    doc = json.loads(capsys.readouterr().out)
    (report,) = reports
    verdicts = report.verdicts()
    assert doc["passed"] is _none_failed(verdicts)
    if argv[0] == "counterexample":
        assert doc["series"]["ok"] is _none_failed(report.series.verdicts())
        for led, led_doc in zip(report.ledgers, doc["ledgers"], strict=True):
            assert led_doc["all_ok"] is _none_failed(led.verdicts())
    for verdict in verdicts:
        *head, last = _steps(verdict.name)
        owner, value = report, doc
        for step in head:
            owner = owner[step] if isinstance(step, int) else getattr(owner, step)
            value = value[step]
        kind = {f.name: f.type for f in dataclasses.fields(owner)}[last]
        if kind in ("bool", "bool | None"):
            assert verdict.ok is value[last], verdict.name
        if verdict.ok is None:
            assert verdict.reason, verdict.name
