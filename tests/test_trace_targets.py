"""The benchmark's span tracer names functions of the package by string:
each of them must still exist, so that deleting a traced function fails
here and not only in the benchmark's own tests."""
import importlib
import importlib.util
import inspect
from pathlib import Path

from vilenkin import transform

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    # resolved the way the tracer looks them up, without installing it
    spans = load_spans()
    missing = []
    for name, attr, _ in spans.TARGETS:
        module_name = name.split(".")[0]
        assert module_name in spans.MODULES, name
        obj = importlib.import_module(f"vilenkin.{module_name}")
        for part in attr.split("."):
            obj = vars(obj).get(part)
            if obj is None:
                missing.append(name)
                break
    assert missing == []
    assert callable(transform.character_basis.cache_info)


# the names a trace hook binds arguments by (``spans._bind``), leading
# positional parameters in this order: a call passes them either way
BOUND_ARGUMENTS = {
    "kernels.summed_partial_sums": ("s", "start", "stop"),
    "serialize.int_str": ("n",),
}


def test_every_argument_a_trace_hook_binds_is_still_a_parameter():
    spans = load_spans()
    targets = {name: attr for name, attr, _ in spans.TARGETS}
    for name, names in BOUND_ARGUMENTS.items():
        fn = vars(importlib.import_module(f"vilenkin.{name.split('.')[0]}"))[targets[name]]
        params = list(inspect.signature(fn).parameters)
        assert params[: len(names)] == list(names), name
