"""The benchmark's own checks: work counts repeat exactly across runs and
match the known sizes of each workload, and the correctness gate catches
a changed value.

    python3 -m pytest -q perfbench/test_counts.py

Takes about a minute: every workload is traced twice.
"""

from __future__ import annotations

import copy
import json

import pytest

import run
import spans
import workloads

# sizes of the canonical inputs, fixed by the inputs rather than measured
EXPECTED = {
    "exact-plan": {
        "counterexample.build_alpha_sequence.levels": 9,
        "group.max_int_bits": 2_359_265,
        "kernels.summed_partial_sums.steps": 5_461,
    },
    "exact-json": {
        "counterexample.build_alpha_sequence.levels": 9,
        "serialize.output_bytes": 4_251_522,
        "kernels.summed_partial_sums.steps": 5_461,
        "kernels.summed_partial_sums.zero_coeff_steps": 4_096,
        "kernels.summed_partial_sums.points": 8_192,
    },
    "grid-audit": {
        "kernels.summed_partial_sums.steps": 24_941,
        "kernels.summed_partial_sums.zero_coeff_steps": 20_736,
        "kernels.summed_partial_sums.points": 41_472,
    },
    "kernel-floor": {
        "counterexample.lemma2_verify.points": 1 << 20,
        "transform.inverse_transform.points": 1 << 20,
        "kernels.summed_partial_sums.calls": 0,
    },
}


def traced_counts(workload: str, work_dir) -> dict:
    """Every deterministic per-layer value of one traced invocation."""
    reference = workloads.load_reference()

    def check(text):
        return workloads.check_output(workload, "argv", text, reference)

    cli_args = workloads.WORKLOADS[workload]["argv"]
    inv, trace = run.run_cli(run.Runner(work_dir), cli_args, check, True, workload)
    assert inv.error is None, inv.error
    assert trace["missing"] == []
    values = run.layer_values(trace, inv)
    return {k: v for k, v in values.items() if not k.endswith(("_s", ".ns_per_step_point"))}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_match_known_sizes(workload, tmp_path):
    first = traced_counts(workload, tmp_path)
    second = traced_counts(workload, tmp_path)
    assert first == second
    for name, value in EXPECTED[workload].items():
        assert first.get(name, 0) == value, name


def test_self_time_excludes_child_spans():
    trace = [["outer", 0.0, 10.0, None], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1], ["inner", 5.0, 6.0, 0]]
    summary = spans.summarize(trace)
    assert summary["outer"] == {"calls": 1, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "self_s": 3.0}
    assert summary["leaf"] == {"calls": 1, "self_s": 1.0}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_gate_rejects_a_changed_value(workload):
    want = workloads.load_reference()[workload]["argv"]
    assert workloads.mismatch(copy.deepcopy(want), want) is None
    got = copy.deepcopy(want)
    rows = got.get("ledgers") or got.get("rows") or got.get("regions")
    key = "min_ratio" if "regions" in got else "alpha"
    rows[-1][key] = rows[-1][key] * (1 + 1e-6) if isinstance(rows[-1][key], float) else rows[-1][key] + 1
    assert workloads.mismatch(got, want) is not None


def test_held_out_run_end_to_end(capsys):
    # the shortest held-out input, through the same entry point as a benchmark run
    argv = ["--workload", "kernel-floor", "--seed", "0", "--seconds", "0", "--trace", "0", "--held-out"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s", "pass_ratio"}
