"""The exact core stays exact and numpy-free: no float enters ``exact``,
``group`` or ``errors`` outside two named display spots, an exact-only
command loads no grid module, and the package namespace loads its names
lazily from their home modules.  No ``assert`` statement is left in the
package, so ``python -O`` checks as much as ``python`` does."""
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import vilenkin
from vilenkin.exact import build_alpha_sequence, divergence_report
from vilenkin.group import GroupPattern

SRC = Path(__file__).resolve().parents[1] / "src" / "vilenkin"
EXACT_MODULES = ("exact", "group", "errors")
GRID_MODULES = ("numpy", "vilenkin.counterexample", "vilenkin.kernels", "vilenkin.transform")

# the only places in the exact modules that may touch a float, and why
FLOAT_ALLOWED = {
    "exact._series_report": "rounds the exact weight sums to the display fields "
    "weight_sqrt_sum, geometric_majorant and hardy_upper",
    "exact.SeriesReport.verdicts": "a float verdict on those display fields, until an exact "
    "membership certificate replaces it",
}


def float_uses(module: str) -> dict[str, list[str]]:
    """Float literals, ``float(`` calls, ``math.sqrt``/``log``/``exp`` and
    numpy imports in one module, by enclosing ``module.Class.function``."""
    found: dict[str, list[str]] = {}

    def visit(node, scope):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            what = "float() call"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in ("sqrt", "log", "exp")
        ):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name in ("sqrt", "log", "exp", "*") for alias in node.names):
                what = "import from math"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(name.split(".")[0] == "numpy" for name in names):
                what = "numpy import"
        if what is not None:
            found.setdefault(scope, []).append(f"line {node.lineno}: {what}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), module)
    return found


def test_exact_modules_hold_no_float_outside_the_allow_list():
    found = {}
    for module in EXACT_MODULES:
        found.update(float_uses(module))
    outside = {scope: uses for scope, uses in found.items() if scope not in FLOAT_ALLOWED}
    assert outside == {}
    assert set(found) == set(FLOAT_ALLOWED)  # no stale entry either


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def run_fresh(code: str) -> subprocess.CompletedProcess:
    # pytest's own process holds numpy already: ask a new interpreter
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


def test_exact_only_counterexample_loads_no_grid_module():
    code = f"""
import contextlib, io, json, sys
from vilenkin.cli import main
argv = ["counterexample", "--group", "const:3", "--kmax", "8", "--materialize-cap", "2"]
codes = []
for extra in ([], ["--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv + extra))
print(json.dumps([codes, [m for m in {list(GRID_MODULES)!r} if m in sys.modules]]))
"""
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], []]


def test_import_vilenkin_loads_no_numpy():
    proc = run_fresh("import sys, vilenkin; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# the package namespace before its names were loaded lazily
PACKAGE_NAMES = {
    "CapExceededError", "DomainError", "VerificationError", "Cylinder", "GroupPattern",
    "GroupSpec", "build_group_spec", "digit_compose", "digit_decompose", "parse_group_text",
    "NAIVE_ORACLE_CAP", "CharacterBasis", "CylinderFunction", "Spectrum", "character_basis",
    "character_eval", "coarsen", "forward_transform", "inverse_transform",
    "naive_transform_oracle", "random_cylinder_function", "sup_abs", "sup_rel_error",
    "AtomReport", "dirichlet_kernel", "fejer_kernel", "fejer_mean_direct",
    "fejer_mean_multiplier", "hardy_quasinorm_estimate", "lp_quasinorm", "maximal_function",
    "partial_sum", "summed_partial_sums", "validate_p_atom", "zero_cylinder_indicator",
    "AlphaSequence", "BoundLedger", "DivergenceReport", "KernelBoundReport", "LevelCertificate",
    "SigmaDecomposition", "build_alpha_sequence", "bound_chain_evaluate",
    "closed_form_partial_sum", "coefficient_oracle", "divergence_report", "lemma2_verify",
    "materialize_f", "oracle_spectrum", "sequence_from_levels", "sigma_decomposition",
    "__version__",
}


def test_package_names_are_their_home_modules_objects():
    assert len(vilenkin.__all__) == len(set(vilenkin.__all__))
    assert set(vilenkin.__all__) == PACKAGE_NAMES
    for name in vilenkin.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"vilenkin.{vilenkin._HOME[name]}")
        obj = getattr(vilenkin, name)
        assert obj is getattr(home, name), name
        if callable(obj):  # and the table names the module that defines it
            assert obj.__module__ == home.__name__, name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vilenkin.no_such_name  # noqa: B018


def test_grid_fit_never_computes_an_unfit_grid_size(monkeypatch):
    # every base is >= 2, so a depth past cap.bit_length() cannot fit
    seq = build_alpha_sequence(GroupPattern((2,)), 4)
    asked = []
    scale = GroupPattern.scale

    def recorded(self, j):
        asked.append(j)
        return scale(self, j)

    monkeypatch.setattr(GroupPattern, "scale", recorded)
    report = divergence_report(seq, cap=2)
    assert [row.materialized_resolution for row in report.rows] == [None] * 4
    assert asked
    assert {2 * alpha + 1 for alpha in seq.alphas}.isdisjoint(asked)
