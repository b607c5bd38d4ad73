"""Golden CLI outputs: each command must reproduce its recorded output byte
for byte.

The files under ``tests/golden/`` were written by the CLI before the
report serializers became one dataclass walker and before the argument
namespace went straight to the command functions; the ``lemma2`` cases at
``A 10``, ``3,2`` and ``2,3,5`` were written before the digit-pattern
regions became reshaped views of the grid; the ``counterexample`` cases
at ``--kmax 8 --json`` and ``--kmax 6 --json --out`` were written before
decimal text of big integers became subquadratic and the JSON was
streamed to its destination; the ``counterexample`` case on ``2,3,2`` was
written before the partial-sum sweep skipped zero coefficients and stepped
the character row on a grid prefix; the eight-level ``counterexample``
cases on ``2,3``, ``const:3`` and ``2,3,5`` were written while levels were
still planned by doubling and bisection, with each level's certificate
evaluated a second time; the eight-level ``--json`` cases on ``2,3`` and
``2,3,5`` were written before decimal text was split at power-of-two
widths from one power table per document; the ``transform`` case on
``const:2^14`` and the ``kernel`` case on ``2,3,5,2,3,5,2,3`` were written
before the transforms ran their low axes on a transposed layout in two
reused buffers; the ``transform`` case on ``const:2^17`` and the
``kernel`` case on ``2,3,5,2,3,5,2,3,5,2`` were written before every
axis ran in place through a scratch tile; the ``counterexample`` case at
``--kmax 9 --json`` was written while a report was still turned into a
document and a list of parts before its first byte was written; the one
at ``--kmax 10 --json`` was written while every ``q_index`` and
``q_inner`` was still converted to decimal text by splitting it into
bits; the ``counterexample`` cases on ``2,2 --kmax 9 --json`` and on
``const:2 --kmax 9`` (the summary CSV) were written while every ledger
integer other than the q-numbers was converted to decimal text by
splitting it into bits, and every ``q_alpha_k`` of the CSV too; the
``lemma2`` cases on ``const:7`` and ``5,2`` were written while the
Fejer kernel was still synthesized on its whole support grid; the
``transform --input`` case and the ``kernel`` case of ``K_2`` were written
while every inverse transform still read its coefficients from an array
of the whole grid.
``<name>.stdout`` is
standard output and ``<name>.file`` the ``--out`` file; an artifact over
~50 KB is stored as the SHA-256 of its bytes (``<name>.<part>.sha256``).
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vilenkin.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (argv, writes --out file)
CASES = {
    "counterexample_const2_k6": (["counterexample", "--group", "const:2", "--kmax", "6"], False),
    "counterexample_const2_k6_plot": (
        ["counterexample", "--group", "const:2", "--kmax", "6", "--emit-plot-data"],
        False,
    ),
    "counterexample_const2_k6_json": (
        ["counterexample", "--group", "const:2", "--kmax", "6", "--json"],
        False,
    ),
    # integers up to ~295k bits: the divide-and-conquer decimal path
    "counterexample_const2_k8_json": (
        ["counterexample", "--group", "const:2", "--kmax", "8", "--json"],
        False,
    ),
    # integers up to ~1.18M bits: the command of perfbench's exact-json workload
    "counterexample_const2_k9_json": (
        ["counterexample", "--group", "const:2", "--kmax", "9", "--json"],
        False,
    ),
    # the same levels on the pattern 2,2: another closed form of q
    "counterexample_22_k9_json": (
        ["counterexample", "--group", "2,2", "--kmax", "9", "--json"],
        False,
    ),
    # the summary CSV of those levels: q_alpha_k up to ~1.18M bits
    "counterexample_const2_k9": (["counterexample", "--group", "const:2", "--kmax", "9"], False),
    # integers up to ~4.7M bits, q-numbers among them: the deepest
    # closed-form decimal text, 13.5 MB of JSON
    "counterexample_const2_k10_json": (
        ["counterexample", "--group", "const:2", "--kmax", "10", "--json"],
        False,
    ),
    "counterexample_const2_k6_json_out": (
        ["counterexample", "--group", "const:2", "--kmax", "6", "--json"],
        True,
    ),
    "counterexample_223_k2": (["counterexample", "--group", "2,2,3", "--kmax", "2"], False),
    # q = 25,231 after a zero run of 20,736 coefficients, on another digit order
    "counterexample_232_k2": (["counterexample", "--group", "2,3,2", "--kmax", "2"], False),
    # eight planned levels on periodic patterns; the grid audits are capped off
    "counterexample_23_k8_cap2": (
        ["counterexample", "--group", "2,3", "--kmax", "8", "--materialize-cap", "2"],
        False,
    ),
    "counterexample_const3_k8_cap2": (
        ["counterexample", "--group", "const:3", "--kmax", "8", "--materialize-cap", "2"],
        False,
    ),
    "counterexample_235_k8_cap2": (
        ["counterexample", "--group", "2,3,5", "--kmax", "8", "--materialize-cap", "2"],
        False,
    ),
    # the same levels as JSON: big integers that are not 0101...01 patterns
    "counterexample_23_k8_json_cap2": (
        ["counterexample", "--group", "2,3", "--kmax", "8", "--json", "--materialize-cap", "2"],
        False,
    ),
    "counterexample_235_k8_json_cap2": (
        ["counterexample", "--group", "2,3,5", "--kmax", "8", "--json", "--materialize-cap", "2"],
        False,
    ),
    "lemma2_23_A4": (["lemma2", "--group", "2,3", "--A", "4"], False),
    "lemma2_const2_A5": (["lemma2", "--group", "const:2", "--A", "5"], False),
    "lemma2_const4_A5": (["lemma2", "--group", "const:4", "--A", "5"], False),
    "lemma2_const2_A10": (["lemma2", "--group", "const:2", "--A", "10"], False),
    "lemma2_32_A5": (["lemma2", "--group", "3,2", "--A", "5"], False),
    "lemma2_235_A4": (["lemma2", "--group", "2,3,5", "--A", "4"], False),
    # a support grid of 16,807 points, on which digit 3 would be a high axis
    "lemma2_const7_A3": (["lemma2", "--group", "const:7", "--A", "3"], False),
    # base 2 on digits 1 and 3, base 5 on the digits the regions read
    "lemma2_52_A4": (["lemma2", "--group", "5,2", "--A", "4"], False),
    "transform_232_json": (["transform", "--group", "2,3,2", "--random", "--seed", "7"], False),
    # the inverse of a loaded spectrum, run in the array it was loaded into:
    # the committed output of transform_232_json is its input
    "transform_232_inverse": (["transform", "--input", str(GOLDEN / "transform_232_json.stdout")], True),
    "transform_232_csv": (
        ["transform", "--group", "2,3,2", "--random", "--seed", "7", "--format", "csv"],
        False,
    ),
    "kernel_fejer21": (
        ["kernel", "--kind", "fejer", "--n", "21", "--group", "const:2^10"],
        True,
    ),
    # support depth 0: one coefficient, tiled to every point
    "kernel_fejer2_232": (["kernel", "--kind", "fejer", "--n", "2", "--group", "2,3,2"], True),
    "kernel_dirichlet6": (
        ["kernel", "--kind", "dirichlet", "--n", "6", "--group", "2,3,2"],
        True,
    ),
    # transforms with many low axes: 14 in the forward, a 1,800-point support
    # block tiled three times in the inverse
    "transform_const2_14": (["transform", "--group", "const:2^14", "--random", "--seed", "7"], False),
    "kernel_fejer1000_mixed": (
        ["kernel", "--kind", "fejer", "--n", "1000", "--group", "2,3,5,2,3,5,2,3"],
        True,
    ),
    # transforms over more than one scratch tile: 128K points forward, and
    # a 27,000-point support block tiled twice in the inverse
    "transform_const2_17": (["transform", "--group", "const:2^17", "--random", "--seed", "7"], False),
    "kernel_fejer20000_mixed": (
        ["kernel", "--kind", "fejer", "--n", "20000", "--group", "2,3,5,2,3,5,2,3,5,2"],
        True,
    ),
    "selftest": (["selftest"], False),
}


def assert_golden(name: str, part: str, data: bytes) -> None:
    plain = GOLDEN / f"{name}.{part}"
    if plain.exists():
        assert data == plain.read_bytes(), f"{plain.name} differs"
    else:
        digest = (GOLDEN / f"{name}.{part}.sha256").read_text(encoding="ascii").strip()
        assert hashlib.sha256(data).hexdigest() == digest, f"{name}.{part} digest differs"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    argv, writes_file = CASES[name]
    out = tmp_path / "out"
    if writes_file:
        argv = argv + ["--out", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert_golden(name, "stdout", captured.out.encode("utf-8"))
    if writes_file:
        assert_golden(name, "file", out.read_bytes())


def test_sweep_output_does_not_depend_on_the_cpu_count():
    # a child pinned to one CPU forks no worker for the partial-sum sweep
    name = "counterexample_232_k2"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "vilenkin.cli", *CASES[name][0]],
        capture_output=True,
        env=env,
        timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert_golden(name, "stdout", proc.stdout)


def test_cli_needs_no_raised_digit_limit():
    # a fresh interpreter at the smallest digit limit Python allows: an
    # in-process test could pass on a limit some earlier test had raised
    name = "counterexample_const2_k8_json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "vilenkin.cli", *CASES[name][0]],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert_golden(name, "stdout", proc.stdout)
