"""Command-line front end with stable JSON output and exit codes.

Exit codes: 0 = success or generic, 1 = a violation was found (a failing
check or verdict is a result, not an error), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from .errors import InputError, PerturbationError
from .generators import (
    PERTURB_DEFAULT_MAX_ATTEMPTS,
    cantor_graph_stage,
    iterate_system,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
)
from .genericity import (
    ORACLE_DEFAULT_MAX_POINTS,
    certificate_to_json,
    classical_general_position,
    decide_all_projections,
    decide_all_projections_oracle,
    verdict_to_json,
)
from .geometry import (
    Configuration,
    check_general_position,
    configuration_from_json,
    configuration_to_json,
    subspace_check_to_json,
    subspace_from_json,
)
from .linalg import _Record, integer
from .metric import hausdorff_sq


class CommandResult(_Record):
    """A command's exit code, its stdout payload and its stderr diagnostics."""

    __slots__ = ("exit_code", "payload", "diagnostics")


def _load_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{what}: cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what}: {path} is not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{what}: {path} nests JSON too deeply") from None
    except ValueError as exc:  # malformed JSON, or an integer over the digit limit
        raise InputError(f"{what}: {path} is not valid JSON: {exc}") from None


def _load_config(path: str) -> Configuration:
    return configuration_from_json(_load_json(path, "configuration"))


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _verdict_result(verdict) -> tuple[int, str, str]:
    payload = _dumps(verdict_to_json(verdict))
    if verdict.generic:
        return 0, payload, ""
    return 1, payload, "violation found"


def _cmd_decide(args) -> tuple[int, str, str]:
    return _verdict_result(decide_all_projections(_load_config(args.config)))


def _cmd_decide_oracle(args) -> tuple[int, str, str]:
    config = _load_config(args.config)
    return _verdict_result(
        decide_all_projections_oracle(config, max_points=args.max_points)
    )


def _cmd_check(args) -> tuple[int, str, str]:
    config = _load_config(args.config)
    kernel = subspace_from_json(_load_json(args.subspace, "subspace"))
    report = check_general_position(config, kernel)
    payload = _dumps(subspace_check_to_json(report))
    return (0 if report.passed else 1), payload, "\n".join(report.violations)


def _cmd_classical(args) -> tuple[int, str, str]:
    config = _load_config(args.config)
    report = classical_general_position(config)
    out = {"in_general_position": report.in_general_position}
    if report.witness is not None:
        out["witness"] = list(report.witness)
    code = 0 if report.in_general_position else 1
    diag = "" if report.in_general_position else "affinely dependent subset found"
    return code, _dumps(out), diag


GENERATE_DEFAULT_MAX_POINTS = 1 << 16


def _refuse_above(exponent: int, max_points: int) -> None:
    """Refuse, before building anything, a stage of 2^exponent points that
    is over max_points: 2^e > m iff e >= m.bit_length()."""
    if exponent >= max_points.bit_length():
        raise InputError(
            f"stage: would build 2^{exponent} points, more than "
            f"--max-points {max_points}"
        )


def _cmd_generate(args) -> tuple[int, str, str]:
    if args.generator == "cantor-graph":
        _refuse_above(args.stage + 1, args.max_points)
        config = cantor_graph_stage(args.stage)
    elif args.generator == "product-cantor":
        # Checked before the system of 2^dim maps is built, which stage 0
        # does not need either.
        integer(args.stage, "stage", 0)
        _refuse_above(args.dim * args.stage, args.max_points)
        config = Configuration(args.dim, ((0,) * args.dim,))
        if args.stage:
            system = product_cantor_system(args.dim)
            config = iterate_system(system, args.stage, config)
    else:
        config = random_configuration(
            args.points, args.dim, args.denominator, args.seed
        )
    return 0, _dumps(configuration_to_json(config)), ""


def _cmd_perturb(args) -> tuple[int, str, str]:
    config = _load_config(args.config)
    try:
        out = perturb_to_generic(config, args.epsilon, args.seed, args.max_attempts)
    except PerturbationError as exc:
        payload = {
            "error": "max attempts exhausted",
            "attempts": exc.attempts,
            "last_certificate": (
                certificate_to_json(exc.certificate)
                if exc.certificate is not None
                else None
            ),
        }
        return 1, _dumps(payload), str(exc)
    return 0, _dumps(configuration_to_json(out)), ""


def _cmd_hausdorff(args) -> tuple[int, str, str]:
    value = hausdorff_sq(_load_config(args.a), _load_config(args.b))
    return 0, _dumps({"hausdorff_squared": str(value)}), ""


def _cmd_selftest(args) -> tuple[int, str, str]:
    from .selftest import run_selftest  # only this command needs the battery

    results = run_selftest()
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    payload = {
        "passed": passed,
        "failed": failed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    return (0 if failed == 0 else 1), _dumps(payload), "\n".join(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _seed_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later run:
    building it costs about as much as deciding a small planar set."""
    parser = argparse.ArgumentParser(
        prog="genpos",
        description=(
            "Exact general position analysis of finite rational point sets "
            "under orthogonal projections"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="verdict over all projection kernels")
    decide.add_argument("-c", "--config", required=True, help="configuration JSON file")
    decide.set_defaults(handler=_cmd_decide)

    oracle = sub.add_parser("decide-oracle", help="brute-force cross-check verdict")
    oracle.add_argument("-c", "--config", required=True)
    oracle.add_argument(
        "--max-points", type=_positive_int, default=ORACLE_DEFAULT_MAX_POINTS
    )
    oracle.set_defaults(handler=_cmd_decide_oracle)

    check = sub.add_parser("check", help="general position against one kernel")
    check.add_argument("-c", "--config", required=True)
    check.add_argument("-s", "--subspace", required=True, help="kernel JSON file")
    check.set_defaults(handler=_cmd_check)

    classical = sub.add_parser("classical", help="classical general position")
    classical.add_argument("-c", "--config", required=True)
    classical.set_defaults(handler=_cmd_classical)

    generate = sub.add_parser("generate", help="produce a configuration")
    gsub = generate.add_subparsers(dest="generator", required=True)
    cantor = gsub.add_parser("cantor-graph", help="Cantor function graph stage")
    cantor.add_argument("--stage", type=_positive_int, required=True)
    prod = gsub.add_parser("product-cantor", help="middle-thirds product stage")
    prod.add_argument("--stage", type=int, required=True)
    prod.add_argument("--dim", type=_positive_int, required=True)
    for stage_parser in (cantor, prod):
        stage_parser.add_argument(
            "--max-points",
            type=_positive_int,
            default=GENERATE_DEFAULT_MAX_POINTS,
            help="refuse a stage with more points (default %(default)s)",
        )
    rand = gsub.add_parser("random", help="seeded random configuration")
    rand.add_argument("--points", type=_positive_int, required=True)
    rand.add_argument("--dim", type=_positive_int, required=True)
    rand.add_argument("--denominator", type=_positive_int, required=True)
    rand.add_argument("--seed", type=_seed_int, required=True)
    generate.set_defaults(handler=_cmd_generate)

    perturb = sub.add_parser("perturb", help="perturb a configuration until generic")
    perturb.add_argument("-c", "--config", required=True)
    perturb.add_argument("--epsilon", required=True, help='rational "p/q"')
    perturb.add_argument("--seed", type=_seed_int, required=True)
    perturb.add_argument(
        "--max-attempts", type=_positive_int, default=PERTURB_DEFAULT_MAX_ATTEMPTS
    )
    perturb.set_defaults(handler=_cmd_perturb)

    hausdorff = sub.add_parser("hausdorff", help="squared Hausdorff distance")
    hausdorff.add_argument("-a", required=True, help="first configuration JSON file")
    hausdorff.add_argument("-b", required=True, help="second configuration JSON file")
    hausdorff.set_defaults(handler=_cmd_hausdorff)

    selftest = sub.add_parser("selftest", help="run the built-in check battery")
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv) -> CommandResult:
    """Parse and execute; nothing is printed, the result carries the text."""
    parser = _build_parser()
    out_buf, err_buf = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out_buf), redirect_stderr(err_buf):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
        return CommandResult(code, out_buf.getvalue().rstrip("\n"), err_buf.getvalue().rstrip("\n"))
    try:
        code, payload, diagnostics = args.handler(args)
    except InputError as exc:
        return CommandResult(2, "", f"error: {exc}")
    except (MemoryError, OverflowError) as exc:  # a size too large to build
        return CommandResult(
            2, "", f"error: {type(exc).__name__}: a requested size is too large"
        )
    except ValueError as exc:  # str() of a result rational over the digit limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        return CommandResult(
            2, "", f"error: a rational in the result exceeds the {limit}-digit "
            "limit for integer string conversion"
        )
    return CommandResult(code, payload, diagnostics)


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.payload:
        try:
            print(result.payload)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout early, as `genpos ... | head` does: the
            # rest is not wanted, and the exit code still reports the result.
            # Pointing stdout at devnull keeps the flush at exit from raising.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
