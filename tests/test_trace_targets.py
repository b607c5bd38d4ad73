"""The benchmark's span tracer names functions of the package by string:
each of them must still exist, so that deleting a traced function fails
here and not only in the benchmark's own tests."""
import importlib
import importlib.util
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
