"""Workload table and the correctness check applied to every invocation.

Each workload is one ``vilenkin`` CLI command with fixed inputs.  The
output of an invocation is reduced to *facts*: the verdict plus the exact
values that carry it (levels, ``LB_k^2`` numerator and denominator, a
SHA-256 digest of each decimal ``q_index`` string, kernel region minima,
grid integrals).  Facts are compared with the ones in ``reference.json``,
recorded on the commit that added the benchmark: integers, strings and
booleans must be equal, floats must agree to ``FLOAT_RTOL``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

FLOAT_RTOL = 1e-9
LEMMA2_THRESHOLD = 0.25
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# name -> CLI arguments (canonical input), a held-out input of the same
# shape, and the output kind.  BENCHMARK.json and README.md say why each
# workload exists.  Held-out inputs are never used while tuning; they are
# there to confirm a gain on input it was not tuned on.
WORKLOADS = {
    "exact-plan": {
        "argv": ["counterexample", "--group", "const:2", "--kmax", "9", "--emit-plot-data"],
        "held_out": ["counterexample", "--group", "2,2", "--kmax", "9", "--emit-plot-data"],
        "output": "plot_csv",
    },
    "exact-json": {
        "argv": ["counterexample", "--group", "const:2", "--kmax", "9", "--json"],
        "held_out": ["counterexample", "--group", "2,2", "--kmax", "9", "--json"],
        "output": "divergence_json",
    },
    "grid-audit": {
        "argv": ["counterexample", "--group", "2,2,3", "--kmax", "2"],
        "held_out": ["counterexample", "--group", "2,3,2", "--kmax", "2"],
        "output": "summary_csv",
    },
    "kernel-floor": {
        "argv": ["lemma2", "--group", "const:2", "--A", "10"],
        "held_out": ["lemma2", "--group", "const:4", "--A", "5"],
        "output": "lemma2_json",
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _plot_csv(text: str) -> dict:
    # the exit code carries the verdict: the CLI exits 4 when the report fails
    rows = []
    for row in _csv_rows(text):
        root = float(row["sqrt_alpha_k"])
        rows.append(
            {"k": int(row["k"]), "alpha": round(root * root), "lb_squared": float(row["lb_squared"])}
        )
    return {"verdict": True, "rows": rows}


def _summary_csv(text: str) -> dict:
    rows = []
    for row in _csv_rows(text):
        direct = row["direct_integral"]
        rows.append(
            {
                "k": int(row["k"]),
                "alpha": int(row["alpha_k"]),
                "q_index_sha256": digest(row["q_alpha_k"]),
                "lb_squared_num": int(row["LB_k_squared_num"]),
                "lb_squared_den": int(row["LB_k_squared_den"]),
                "direct_integral": float(direct) if direct else None,
            }
        )
    return {"verdict": True, "rows": rows}


def _divergence_json(text: str) -> dict:
    doc = json.loads(text)
    ledgers = [
        {
            "k": led["k"],
            "alpha": int(led["alpha"]),
            "q_index_sha256": digest(led["q_index"]),
            "lb_squared_num": int(led["lb_squared"]["num"]),
            "lb_squared_den": int(led["lb_squared"]["den"]),
            "region_pair_count": int(led["region_pair_count"]),
            "all_ok": led["all_ok"],
        }
        for led in doc["ledgers"]
    ]
    rows = [{"k": row["k"], "direct_integral": row["direct_integral"]} for row in doc["rows"]]
    return {"verdict": doc["passed"] is True, "ledgers": ledgers, "rows": rows}


def _lemma2_json(text: str) -> dict:
    doc = json.loads(text)
    regions = [
        {
            "eta": r["eta"],
            "s": r["s"],
            "point_count": r["point_count"],
            "min_ratio": r["min_ratio"],
        }
        for r in doc["regions"]
    ]
    verdict = doc["passed"] is True and doc["global_min_ratio"] >= LEMMA2_THRESHOLD
    return {
        "verdict": verdict,
        "kernel_order": doc["kernel_order"],
        "global_min_ratio": doc["global_min_ratio"],
        "regions": regions,
    }


_EXTRACTORS = {
    "plot_csv": _plot_csv,
    "summary_csv": _summary_csv,
    "divergence_json": _divergence_json,
    "lemma2_json": _lemma2_json,
}


def extract_facts(output_kind: str, text: str) -> dict:
    """Reduce one invocation's standard output to the facts checked."""
    return _EXTRACTORS[output_kind](text)


def mismatch(got, want, path: str = "facts") -> str | None:
    """First difference between two fact trees, or ``None`` when they agree."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return f"{path}: {got!r} != {want!r}"
        if not math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            return f"{path}: {got!r} differs from {want!r} beyond rel tol {FLOAT_RTOL}"
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: keys differ"
        for key in want:
            found = mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if got != want or type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(workload: str, variant: str, text: str, reference: dict) -> str | None:
    """``None`` when the output is correct, else the reason it is not."""
    try:
        facts = extract_facts(WORKLOADS[workload]["output"], text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    if not facts["verdict"]:
        return "verdict is false"
    return mismatch(facts, reference[workload][variant])
