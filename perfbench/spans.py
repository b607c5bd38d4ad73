"""Span tracing of one CLI invocation, installed from outside the package.

Run as a child process::

    python3 perfbench/spans.py TRACE_JSON RUN_ID -- <vilenkin cli arguments>

It imports ``vilenkin``, replaces every binding a caller looks up (the
defining module's attribute, each ``from ... import`` copy in the other
modules, and ``GroupPattern`` methods on the class) with a wrapper that
records a span, runs ``vilenkin.cli.main`` and writes the spans and work
counts to TRACE_JSON when the run ends.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``None`` at the top).  :func:`summarize` derives per-name
call counts and self time (span time minus the time of its child spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODULES = ("cli", "counterexample", "group", "kernels", "serialize", "transform")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def peak(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), int(n))

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(tracer, args,
        kwargs, result)`` records work counts after the span has closed."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced


# --- work counts, taken from arguments and results ------------------------


def _int_bits(tracer, args, kwargs, result):
    tracer.peak("group.max_int_bits", result.bit_length())


def _levels(tracer, args, kwargs, result):
    tracer.add("counterexample.build_alpha_sequence.levels", len(result.alphas))


def _regions(tracer, args, kwargs, result):
    tracer.add("counterexample.bound_chain_evaluate.regions_detailed", len(result.regions or ()))


def _lemma2_points(tracer, args, kwargs, result):
    tracer.add("counterexample.lemma2_verify.points", result.group.size)


def _sweep(tracer, args, kwargs, result):
    spectrum, start, stop = _bind(args, kwargs, ("s", "start", "stop"))
    steps = stop - start
    points = spectrum.group.size
    zeros = steps - int((spectrum.coeffs[start:stop] != 0).sum())
    prefix = "kernels.summed_partial_sums."
    tracer.add(prefix + "steps", steps)
    tracer.add(prefix + "zero_coeff_steps", zeros)
    tracer.add(prefix + "points", points)
    tracer.add(prefix + "step_points", steps * points)


def _transform_points(name):
    def hook(tracer, args, kwargs, result):
        points = result.group.size
        tracer.add(f"transform.{name}.points", points)
        # computed, not measured: 16 bytes read and 16 written per complex point
        tracer.add("transform.bytes_moved_computed", 32 * points)

    return hook


def _int_str_bits(tracer, args, kwargs, result):
    n = _bind(args, kwargs, ("n",))[0]
    tracer.peak("serialize.int_str.max_bits", int(n).bit_length())


def _bind(args, kwargs, names):
    values = dict(zip(names, args))
    values.update((k, v) for k, v in kwargs.items() if k in names)
    return [values[n] for n in names]


# (span name, attribute of the defining module, hook).  The span name is
# "<module>.<function>"; for a method the attribute is "Class.method".
TARGETS = (
    ("group.scale", "GroupPattern.scale", _int_bits),
    ("group.q_number", "GroupPattern.q_number", _int_bits),
    ("counterexample.build_alpha_sequence", "build_alpha_sequence", _levels),
    ("counterexample.bound_chain_evaluate", "bound_chain_evaluate", _regions),
    ("counterexample.divergence_report", "divergence_report", None),
    ("counterexample.materialize_f", "materialize_f", None),
    ("counterexample.atom_function", "atom_function", None),
    ("counterexample.lemma2_verify", "lemma2_verify", _lemma2_points),
    ("kernels.summed_partial_sums", "summed_partial_sums", _sweep),
    ("kernels.fejer_mean_direct", "fejer_mean_direct", None),
    ("kernels.fejer_kernel", "fejer_kernel", None),
    ("kernels.maximal_function", "maximal_function", None),
    ("kernels.validate_p_atom", "validate_p_atom", None),
    ("kernels.hardy_quasinorm_estimate", "hardy_quasinorm_estimate", None),
    ("transform.forward_transform", "forward_transform", _transform_points("forward_transform")),
    ("transform.inverse_transform", "inverse_transform", _transform_points("inverse_transform")),
    ("serialize.int_str", "int_str", _int_str_bits),
    ("serialize.divergence_to_doc", "divergence_to_doc", None),
    ("serialize.dumps_canonical", "dumps_canonical", None),
    ("serialize.summary_csv", "summary_csv", None),
    ("serialize.plot_csv", "plot_csv", None),
    ("serialize.kernel_report_to_doc", "kernel_report_to_doc", None),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever it is bound; returns the span names whose
    function no longer exists."""
    modules = {m: importlib.import_module(f"vilenkin.{m}") for m in MODULES}
    missing = []
    for name, attr, hook in TARGETS:
        home = modules[name.split(".")[0]]
        cls_name, _, fn_name = attr.rpartition(".")
        # a method is looked up on its class; a function wherever a module
        # holds it, including copies made by ``from .x import f``
        if cls_name:
            cls = getattr(home, cls_name, None)
            owners = [] if cls is None else [cls]
        else:
            owners = list(modules.values())
        original = vars(owners[0] if cls_name else home).get(fn_name) if owners else None
        if original is None:
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, hook)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
    return missing


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (duration minus child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
    return out


def main(argv: list[str]) -> int:
    trace_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py TRACE_JSON RUN_ID -- <cli arguments>")
    start = time.perf_counter()
    import vilenkin.cli
    from vilenkin import transform

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = install(tracer)
    for name in missing:
        print(f"perfbench: trace target {name} not found", file=sys.stderr)
    rc = tracer.wrap("cli.main", vilenkin.cli.main)(cli_args)
    sys.stdout.flush()
    # the cache's own statistics: callers hold the original function
    cache_info = getattr(transform.character_basis, "cache_info", None)
    if cache_info is None:
        missing.append("transform.character_basis")
    else:
        info = cache_info()
        tracer.add("transform.character_basis.hits", info.hits)
        tracer.add("transform.character_basis.misses", info.misses)
    doc = {
        "run_id": run_id,
        "import_s": import_s,
        "missing": missing,
        "counts": tracer.counts,
        "spans": tracer.spans,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
