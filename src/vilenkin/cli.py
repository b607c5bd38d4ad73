"""Command-line front end.

Subcommands::

    transform       forward/inverse transform of a function file (or random data)
    kernel          Dirichlet / Fejer kernel values with a value-at-zero self-check
    lemma2          brute-force kernel lower bound on digit-pattern regions
    counterexample  certified level sequence, exact bound ledgers, divergence report
    selftest        quick end-to-end invariant sweep

Exit codes: 0 success, 2 usage or domain precondition, or an output
(``--out`` or stdout) that cannot be written, 3 resource cap exceeded (a
grid over its point cap is refused before it is built), 4 verification
failure, 141 stdout closed by its reader (128 + SIGPIPE).
Results go to stdout or ``--out`` (``--out -`` is stdout too); standard
error carries diagnostics only.
A command imports the grid modules, and numpy with them, only when it
evaluates on a grid.
Given the same arguments and seed, every command rewrites byte-identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
from fractions import Fraction

from . import serialize
from .errors import CapExceededError, DomainError, VerificationError
from .exact import build_alpha_sequence, check_materialize_cap, divergence_report
from .group import GRID_CAP, LEMMA2_CAP, NAIVE_ORACLE_CAP, GroupPattern, build_group_spec, digit_compose, digit_decompose, parse_group_text

__all__ = ["main"]

ORACLE_TOLERANCE = 1e-9
ZERO_CHECK_TOLERANCE = 1e-10


def _names_file(path: str | None) -> bool:
    """Whether an output path names a file: ``None`` and ``-`` are stdout."""
    return path not in (None, "-")


@contextlib.contextmanager
def _output(out: str | None):
    """A ``writelines`` for one output written in parts, to the file ``out``
    or to stdout; stdout output always ends in a newline.  A file or a
    stdout that cannot be written is a usage error (exit 2; for stdout see
    :func:`_writing_stdout`), and a file that an error leaves unfinished
    is removed before the error goes on."""
    if not _names_file(out):
        last = [""]

        def writelines(parts: list[str]) -> None:
            if parts:
                with _writing_stdout():
                    sys.stdout.writelines(parts)
                last[0] = parts[-1]

        yield writelines
        if not last[0].endswith("\n"):
            with _writing_stdout():
                sys.stdout.write("\n")
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc}") from exc
    try:
        with fh:
            yield fh.writelines
    except OSError as exc:
        _remove_unfinished(out)
        raise DomainError(f"cannot write {out}: {exc}") from exc
    except BaseException:
        _remove_unfinished(out)
        raise


@contextlib.contextmanager
def _writing_stdout():
    """A failed write to stdout, other than to a closed pipe, is a usage
    error (exit 2), with stdout then quieted (:func:`_quiet_stdout`)."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        _quiet_stdout()
        raise DomainError(f"cannot write stdout: {exc}") from exc


def _quiet_stdout() -> None:
    """Point stdout at the null device, so that the exit-time flush of
    what it still buffers raises nothing."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _remove_unfinished(path: str) -> None:
    """Remove a regular file left half written; a device, pipe or symlink
    named as the output stays."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be opened for writing, before any
    work is done (exit 2).  An existing regular file is opened without
    truncation and left as it is, and a directory refused; any other
    existing file is only checked for write permission, since opening a
    named pipe and closing it again would end its reader's input.  A file
    the check creates is removed again."""
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            mode = os.stat(path).st_mode
            if stat.S_ISREG(mode) or stat.S_ISDIR(mode):
                os.close(os.open(path, os.O_WRONLY))
            elif not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path) from None
            return
        os.close(fd)
        os.unlink(path)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _write_json(obj, out: str | None) -> None:
    with _output(out) as writelines:
        serialize.write_json(obj, writelines)


def _write_function(obj, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        with _output(out) as writelines:
            serialize.write_function_csv(obj, writelines)
    else:
        _write_json(serialize.function_to_doc(obj), out)


def _write_text(text: str, out: str | None) -> None:
    with _output(out) as writelines:
        writelines([text])


def _load_group(args: argparse.Namespace):
    if args.group is None:
        return None
    return serialize.decode_group(args.group)


def _load_pattern(text: str) -> GroupPattern:
    """The base pattern of a command that picks its own depth; ``^N`` is
    refused, after the text has parsed: only valid text fixes a depth."""
    pattern = parse_group_text(text)[0]
    if "^" in text:
        raise DomainError(
            f"group {text!r} fixes a depth, but this command picks its own; "
            "pass a base pattern such as const:2 or 2,3"
        )
    return pattern


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def cmd_transform(args: argparse.Namespace) -> int:
    from .transform import Spectrum, _synthesize, forward_transform
    from .transform import naive_transform_oracle, random_cylinder_function, sup_rel_error

    group = _load_group(args)
    if args.input is not None:
        data = serialize.load_function_file(args.input)
        if group is not None and data.group.digits != group.digits:
            raise DomainError(
                f"--group {args.group!r} disagrees with the input file's group "
                f"{list(data.group.digits)}"
            )
    elif args.random:
        if group is None:
            raise DomainError("--random needs --group")
        data = random_cylinder_function(group, seed=args.seed)
    else:
        raise DomainError("nothing to transform: pass --input FILE or --random")

    oracle = None
    if args.check_oracle:  # the oracle checks its cap before any transform work
        if isinstance(data, Spectrum):
            raise DomainError("--check-oracle applies to value-side input only")
        oracle = naive_transform_oracle(data)

    if isinstance(data, Spectrum):  # the loaded spectrum is never read again
        result = _synthesize(data.group, data.coeffs)
    else:
        result = forward_transform(data)

    if oracle is not None:
        err = sup_rel_error(result.coeffs, oracle.coeffs)
        line = f"max relative error vs naive oracle = {serialize.float_str(err)} (tolerance {ORACLE_TOLERANCE})"
        if err > ORACLE_TOLERANCE:
            raise VerificationError(line)
        _write_text(line + ": ok", None)

    if args.out is not None or oracle is None:
        _write_function(result, args.out, args.format)
    return 0


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def cmd_kernel(args: argparse.Namespace) -> int:
    from .kernels import dirichlet_kernel, fejer_kernel

    group = _load_group(args)
    kind, n = args.kind, args.n
    if kind == "dirichlet":
        kernel = dirichlet_kernel(n, group)
        expected = Fraction(n)
        label = f"D_{n}(0)"
    else:
        kernel = fejer_kernel(n, group)
        expected = Fraction(n - 1, 2)
        label = f"K_{n}(0)"
    value = kernel.values[0].real
    line = f"{label} = {serialize.float_str(value)} (expected {expected})"
    ok = abs(value - float(expected)) <= ZERO_CHECK_TOLERANCE * max(1.0, float(expected))
    _write_text(line + (": ok" if ok else ": MISMATCH"), None)
    if args.out is not None:
        _write_function(kernel, args.out, args.format)
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# lemma2
# ---------------------------------------------------------------------------


def cmd_lemma2(args: argparse.Namespace) -> int:
    from .counterexample import lemma2_verify

    report = lemma2_verify(_load_pattern(args.group), args.A)
    _write_json(report, args.out)
    if not report.passed:
        print(report.first_failure(), file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def cmd_counterexample(args: argparse.Namespace) -> int:
    plot_target = args.emit_plot_data
    if args.json and plot_target == "-":
        raise DomainError(
            "--json and a bare --emit-plot-data both claim the primary output; "
            "give --emit-plot-data a PATH"
        )
    if _names_file(args.out) and _names_file(plot_target) and os.path.realpath(args.out) == os.path.realpath(plot_target):
        raise DomainError(
            f"--out and --emit-plot-data both name {args.out}; the plot data would overwrite the report"
        )
    check_materialize_cap(args.materialize_cap)  # before planning, which can take seconds
    seq = build_alpha_sequence(_load_pattern(args.group), args.kmax, alpha0=args.alpha0)
    report = divergence_report(seq, cap=args.materialize_cap)
    if args.json:
        _write_json(report, args.out)
    elif plot_target == "-":
        _write_text(serialize.plot_csv(report), args.out)
    else:
        _write_text(serialize.summary_csv(report), args.out)
    if _names_file(plot_target):
        _write_text(serialize.plot_csv(report), plot_target)
    if not report.passed:
        print(f"verification failed: {report.first_failure()}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _require(ok, message: str) -> None:
    """A selftest check: raise :class:`VerificationError` with ``message``
    unless ``ok``, so that the check holds under ``python -O`` too."""
    if not ok:
        raise VerificationError(message)


def _selftest_checks():
    import numpy as np

    from .counterexample import lemma2_verify
    from .kernels import dirichlet_kernel, fejer_kernel, fejer_mean_direct, fejer_mean_multiplier
    from .kernels import zero_cylinder_indicator
    from .transform import forward_transform, inverse_transform, naive_transform_oracle
    from .transform import random_cylinder_function, sup_rel_error

    def digits_round_trip():
        g = build_group_spec([2, 3, 2, 4, 5])
        wrong = [n for n in range(g.size) if digit_compose(digit_decompose(n, g), g) != n]
        _require(not wrong, f"{len(wrong)} of {g.size} indices change in a digit round trip, first {wrong[:1]}")

    def q_recursion():
        for base in ((2,), (3,), (2, 3)):
            pat = GroupPattern(base)
            for a in range(1, 8):
                q, prev, scale = pat.q_number(a), pat.q_number(a - 1), pat.scale(2 * a)
                _require(q == scale + prev, f"{base}: q_{a} = {q}, M_{2 * a} + q_{a - 1} = {scale + prev}")
                _require(q <= 2 * scale, f"{base}: q_{a} = {q} > 2 M_{2 * a} = {2 * scale}")

    def transform_round_trip():
        g = build_group_spec([2, 3, 2, 4])
        f = random_cylinder_function(g, seed=11)
        spec = forward_transform(f)
        back = inverse_transform(spec)
        err = sup_rel_error(back.values, f.values)
        _require(err < 1e-12, f"round-trip error {err} >= 1e-12")
        energy_f = float(np.mean(np.abs(f.values) ** 2))
        energy_c = float(np.sum(np.abs(spec.coeffs) ** 2))
        _require(abs(energy_f - energy_c) <= 1e-9 * max(1.0, energy_f), f"energy {energy_f} on the grid, {energy_c} in the spectrum")

    def oracle_agreement():
        g = build_group_spec([2, 3, 2, 4])
        f = random_cylinder_function(g, seed=5)
        err = sup_rel_error(forward_transform(f).coeffs, naive_transform_oracle(f).coeffs)
        _require(err < 1e-9, f"transform differs from the oracle by {err} >= 1e-9")

    def dirichlet_block_form():
        g = build_group_spec([2, 3, 2])
        for n in range(g.resolution + 1):
            d = dirichlet_kernel(g.scales[n], g)
            ind = zero_cylinder_indicator(g, n)
            err = np.max(np.abs(d.values - g.scales[n] * ind.values))
            _require(err < 1e-10, f"D_{g.scales[n]} differs from M_{n} times its cylinder indicator by {err} >= 1e-10")

    def fejer_dual_routes():
        g = serialize.decode_group("const:2^6")
        s = forward_transform(random_cylinder_function(g, seed=3))
        a = fejer_mean_direct(s, 21).values
        b = fejer_mean_multiplier(s, 21).values
        err = np.max(np.abs(a - b))
        _require(err < 1e-10, f"the two Fejer mean routes differ by {err} >= 1e-10")
        k0 = fejer_kernel(21, g).values[0].real
        _require(abs(k0 - 10.0) < 1e-10, f"K_21(0) = {k0}, not 10")

    def kernel_floor():
        report = lemma2_verify(GroupPattern((2,)), 3)
        _require(report.passed, f"lemma2 on const:2 at A = 3 did not pass: {report.first_failure()}")

    def counterexample_ledgers():
        seq = build_alpha_sequence(GroupPattern((2,)), 2)
        report = divergence_report(seq)
        _require(report.passed, f"the divergence report of alphas {seq.alphas} did not pass: {report.first_failure()}")
        held = {v.name: v.ok for v in report.verdicts()}
        for name in ("series.atoms_ok", "series.atom_maximal_ok"):
            _require(held[name] is True, f"{name} is {held[name]}, not True: block 0's atom was not checked")
        q6 = seq.pattern.q_number(6)
        _require(q6 == 5461, f"q_6 of const:2 = {q6}, not 5461")

    return [
        ("digit round trip", digits_round_trip),
        ("sparse order recursion and doubling", q_recursion),
        ("transform round trip and energy identity", transform_round_trip),
        ("transform vs naive oracle", oracle_agreement),
        ("Dirichlet kernel block form", dirichlet_block_form),
        ("Fejer dual routes and value at zero", fejer_dual_routes),
        ("kernel floor on regions", kernel_floor),
        ("counterexample ledgers and atom checks", counterexample_ledgers),
    ]


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep sweeping
            failures += 1
            _write_text(f"fail - {name}: {exc}", None)
        else:
            _write_text(f"ok - {name}", None)
    if failures:
        print(f"{failures} selftest check(s) failed", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Fourier analysis on bounded Vilenkin groups "
        "and an exactly verified Cesaro divergence counterexample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="forward/inverse transform of a function file")
    tr.add_argument("--group", help='group, e.g. const:2^8 or "2,3,2,4"')
    tr.add_argument("--input", help="function/spectrum JSON file")
    tr.add_argument("--random", action="store_true", help="transform seeded random values")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--check-oracle", action="store_true", help=f"compare against the naive-sum oracle (at most {NAIVE_ORACLE_CAP} points)")
    tr.add_argument("--out", help="output path (default: stdout)")
    tr.add_argument("--format", choices=("json", "csv"), default="json")

    ke = sub.add_parser("kernel", help="Dirichlet or Fejer kernel values")
    ke.add_argument("--kind", choices=("dirichlet", "fejer"), required=True)
    ke.add_argument("--n", type=int, required=True)
    ke.add_argument("--group", required=True, help='group with its depth, e.g. const:2^10 or "2,3,2"')
    ke.add_argument("--out", help="write kernel values here")
    ke.add_argument("--format", choices=("json", "csv"), default="json")

    le = sub.add_parser("lemma2", help="brute-force kernel floor over digit-pattern regions")
    le.add_argument("--group", required=True, help="base pattern, e.g. const:2 or 2,3 (no ^N: the depth follows from --A)")
    le.add_argument("--A", type=int, required=True, help=f"region level (needs A > 2; the depth-2A grid may have at most {LEMMA2_CAP} points)")
    le.add_argument("--out")

    ce = sub.add_parser("counterexample", help="build and audit the divergence example")
    ce.add_argument("--group", required=True, help="base pattern, e.g. const:2 (no ^N: the depth follows from --kmax)")
    ce.add_argument("--alpha0", type=int, default=6)
    ce.add_argument("--kmax", type=int, required=True)
    ce.add_argument("--json", action="store_true", help="emit the full JSON report instead of CSV")
    ce.add_argument(
        "--emit-plot-data",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit (k, sqrt(alpha_k), LB_k^2) CSV to PATH (bare flag: stdout)",
    )
    ce.add_argument("--materialize-cap", type=int, default=GRID_CAP, help="grid point cap, from 2 to %(default)s (the default)")
    ce.add_argument("--out", help="write the primary table here instead of stdout")

    sub.add_parser("selftest", help="run the quick invariant sweep")
    return parser


_DISPATCH = {
    "transform": cmd_transform,
    "kernel": cmd_kernel,
    "lemma2": cmd_lemma2,
    "counterexample": cmd_counterexample,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    plot_target = getattr(args, "emit_plot_data", None)
    try:
        for path in (getattr(args, "out", None), plot_target):
            if _names_file(path):
                _check_writable(path)
        code = _DISPATCH[args.command](args)
        with _writing_stdout():
            sys.stdout.flush()  # a closed pipe or a full device raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader has gone: keep the exit-time flush quiet too
        _quiet_stdout()
        return 141  # 128 + SIGPIPE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
