"""Batch front door: file ingestion, subcommand dispatch, JSON report emission.

Exit codes: 0 = success and, when --expect is given, the verdict matched;
1 = a verified mathematical failure (an --expect mismatch, a failed
validation, a witness request on a space where none can exist, or a broken
finite-space bound); 2 = input errors (malformed files, dimension mismatches,
invalid scalars) and a report or generated file that cannot be written.

Every report self-describes its inputs (path + sha256) and records the
resolved seed verbatim. MAXLAB_SEED is used when --seed is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import io as mio
from .maximal import maximal_field
from .metric import (
    MetricAxiomError,
    enumerate_balls,
    is_ultrametric,
    ultrametric_violation,
)
from .generators import gen_function, gen_graph_metric, gen_measure, gen_taxicab, gen_ultrametric
from .theorems import (
    build_grid_demo,
    check_ball_infimum,
    check_lower_semicontinuity,
    coincidence_exact,
    coincidence_randomized,
    construct_witness,
    verify_witness,
)

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2


class MathFailure(Exception):
    """A verified mathematical failure; carries the report to emit."""

    def __init__(self, message: str, result: dict | None = None):
        super().__init__(message)
        self.result = result


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MAXLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise mio.InputFormatError(f"MAXLAB_SEED={env!r} is not an integer") from None
    return 0


def _cmd_validate(args, seed: int) -> dict:
    try:
        space = mio.load_space(args.space)
    except MetricAxiomError as exc:
        result = {
            "valid": False,
            "violations": [
                {"axiom": v.axiom, "indices": list(v.indices), "detail": v.detail}
                for v in exc.violations
            ],
        }
        if exc.truncated:
            result["truncated"] = True
        raise MathFailure("metric axioms violated", result)
    return {"valid": True, "points": space.n, "labels": list(space.labels)}


def _cmd_balls(args, seed: int) -> dict:
    space = mio.load_space(args.space)
    family = enumerate_balls(space)
    return mio.family_to_json(family, space)


def _cmd_maximal(args, seed: int) -> dict:
    space = mio.load_space(args.space)
    mu = mio.load_measure(args.measure, space.n)
    f = mio.load_function(args.fn, space.n)
    report = maximal_field(f, mu, space)
    return {"points": mio.maximal_report_to_json(report, space)}


def _cmd_coincide(args, seed: int) -> dict:
    space = mio.load_space(args.space)
    mu = mio.load_measure(args.measure, space.n)
    family = enumerate_balls(space)
    if args.mode == "exact":
        verdict = coincidence_exact(space, mu, family=family)
    else:
        verdict = coincidence_randomized(space, mu, trials=args.trials, seed=seed, family=family)
    result = mio.verdict_to_json(verdict, space)
    if args.expect is not None and verdict.verdict != args.expect:
        raise MathFailure(
            f"expected verdict {args.expect!r} but computed {verdict.verdict!r}", result
        )
    return result


def _cmd_witness(args, seed: int) -> dict:
    space = mio.load_space(args.space)
    triple = ultrametric_violation(space)
    if triple is None:
        raise MathFailure(
            "the space is ultrametric; no gap witness exists",
            {"ultrametric": True, "witness": None},
        )
    witness = construct_witness(space, triple)
    return {
        "ultrametric": False,
        "violating_triple": [space.labels[p] for p in triple],
        "witness": mio.witness_to_json(witness, space),
        "reverified": verify_witness(space, witness),
    }


def _cmd_lemma22(args, seed: int) -> dict:
    space = mio.load_space(args.space)
    mu = mio.load_measure(args.measure, space.n)
    report = check_ball_infimum(space, mu)
    return mio.ball_infimum_report_to_json(report, space)


def _cmd_lsc(args, seed: int) -> dict:
    space = mio.load_space(args.space)
    mu = mio.load_measure(args.measure, space.n)
    sequence, nu_limit, point, bound = mio.load_sequence(args.sequence, space)
    report = check_lower_semicontinuity(mu, space, sequence, nu_limit, point, bound)
    result = mio.lsc_report_to_json(report, space)
    if not (report.tail_inequality_holds and report.per_step_bounds_hold):
        raise MathFailure("finite-space semicontinuity bound failed", result)
    return result


def _cmd_demo_grid(args, seed: int) -> dict:
    report = build_grid_demo(args.n)
    result = mio.grid_demo_to_json(report)
    if not (report.matches_closed_form and report.chain_nested and report.chain_is_midpoint_sequence):
        raise MathFailure("grid demo internal cross-checks failed", result)
    return result


def _cmd_gen(args, seed: int) -> dict:
    if args.family == "ultrametric":
        space = gen_ultrametric(args.n, seed)
    elif args.family == "taxicab":
        space = gen_taxicab(args.n, dim=args.dim, seed=seed)
    else:
        space = gen_graph_metric(args.n, edge_probability=args.edge_prob, seed=seed)
    emitted = {}
    if args.out:
        _write(mio.space_to_json(space), args.out)
        emitted["space"] = args.out
    if args.measure_out:
        mu = gen_measure(space, seed, zero_fraction=args.zero_fraction)
        _write(mio.measure_to_json(mu), args.measure_out)
        emitted["measure"] = args.measure_out
    if args.fn_out:
        f = gen_function(space, seed)
        _write(mio.function_to_json(f), args.fn_out)
        emitted["f"] = args.fn_out
    return {
        "family": args.family,
        "n": args.n,
        "ultrametric": is_ultrametric(space),
        "space": mio.space_to_json(space) if not args.out else None,
        "written": emitted,
    }


_INPUT_ROLES = ("space", "measure", "fn", "sequence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlab",
        description="Exact centered vs non-centered maximal averages on finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, space=True, measure=False, fn=False):
        if space:
            p.add_argument("--space", required=True, help="space JSON (or CSV matrix) file")
        if measure:
            p.add_argument("--measure", required=True, help="measure JSON file with 'weights'")
        if fn:
            p.add_argument("--fn", required=True, help="function JSON file with 'f'")
        p.add_argument("--seed", type=int, default=None, help="seed (fallback: MAXLAB_SEED, then 0)")
        p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("validate", help="check the metric axioms of a space file")
    add_common(p)

    p = sub.add_parser("balls", help="enumerate all distinct closed balls")
    add_common(p)

    p = sub.add_parser("maximal", help="both maximal values at every support point")
    add_common(p, measure=True, fn=True)

    p = sub.add_parser("coincide", help="decide operator coincidence for all functions")
    add_common(p, measure=True)
    p.add_argument("--mode", choices=("exact", "randomized"), default="exact")
    p.add_argument("--trials", type=int, default=200, help="echoed in randomized reports; no trial is run")
    p.add_argument("--expect", choices=("equal", "distinct"), default=None)

    p = sub.add_parser("witness", help="explicit gap witness from an ultrametric violation")
    add_common(p)

    p = sub.add_parser("lemma22", help="pairwise ball-infimum / symmetry audit")
    add_common(p, measure=True)

    p = sub.add_parser("lsc", help="semicontinuity of measure-maximal values along a sequence")
    add_common(p, measure=True)
    p.add_argument("--sequence", required=True, help="JSON: sequence, limit, point, deviation_bound")

    p = sub.add_parser("demo-grid", help="operator gap on the uniform grid over [0,2]")
    p.add_argument("--n", type=int, required=True, help="subdivision count (>= 2)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="generate space / measure / function files")
    p.add_argument("--family", choices=("ultrametric", "taxicab", "graph"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2, help="taxicab dimension")
    p.add_argument("--edge-prob", type=float, default=0.4, help="graph edge probability")
    p.add_argument("--zero-fraction", type=float, default=0.0, help="weightless-point fraction")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="space file to write")
    p.add_argument("--measure-out", default=None)
    p.add_argument("--fn-out", default=None)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "balls": _cmd_balls,
    "maximal": _cmd_maximal,
    "coincide": _cmd_coincide,
    "witness": _cmd_witness,
    "lemma22": _cmd_lemma22,
    "lsc": _cmd_lsc,
    "demo-grid": _cmd_demo_grid,
    "gen": _cmd_gen,
}


class _Unwritable(Exception):
    """A report or generated file that could not be written."""


def _write(data: dict, out: str | None) -> None:
    """mio.write_json to the path `out`, or to stdout when it is None; an OSError becomes
    an _Unwritable naming the destination."""
    try:
        mio.write_json(data, out or sys.stdout)
        if not out:
            sys.stdout.flush()
    except OSError as exc:
        if not out and isinstance(exc, BrokenPipeError):
            # the reader is gone: stdout goes to devnull so the interpreter's last flush is silent
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _Unwritable(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: parse_args keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    def envelope(result: dict) -> dict:
        inputs = []
        for role in _INPUT_ROLES:
            path = getattr(args, role, None)
            if not path:
                continue
            entry = {"role": role, "path": path}
            try:
                entry["sha256"] = mio.file_sha256(path)
            except OSError:
                entry["sha256"] = None
            inputs.append(entry)
        return {
            "subcommand": args.subcommand,
            "seed": seed,
            "inputs": inputs,
            "result": result,
        }

    # `gen` consumes --out for the generated space file; its report goes to stdout
    report_out = None if args.subcommand == "gen" else args.out

    try:
        seed = _resolve_seed(args)
        try:
            result = _HANDLERS[args.subcommand](args, seed)
        except MathFailure as exc:
            if exc.result is not None:
                _write(envelope(exc.result), report_out)
            print(f"maxlab: {exc}", file=sys.stderr)
            return EXIT_MATH_FAILURE
        _write(envelope(result), report_out)
    except _Unwritable as exc:
        print(f"maxlab: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # InputFormatError and MetricAxiomError are ValueErrors; an unreadable input is an OSError
    except (OSError, ValueError, KeyError) as exc:
        print(f"maxlab: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
