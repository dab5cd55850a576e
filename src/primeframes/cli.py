"""Command-line interface.

htf, stf, random and extendprime build a frame through one handler;
sets, factor and transform write what their library calls return.  The
rest do more than one call: analyze adds equiangularity and, with
--factor, a prime factorization to the tightness check; grid checks the
closed forms against the subset search.  Every subcommand writes a
machine-readable payload (JSON by default, CSV for matrices on request)
to stdout or --output.  Exit codes: 0 on success, 1 on a domain error
(infeasible construction, non-tight input, bad parameters, a refused
search, no memory, numeric overflow), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .divisibility import (is_prime_bruteforce, prime_factor_size_multisets,
                           prime_factorization)
from .errors import FrameError
from .frames import (DEFAULT_TOL, _require_tight, check_equiangular,
                     check_tight, prime_parseval_extension,
                     random_tight_frame)
from .harmonic import HtfParams, divisor_sets, htf, htf_is_prime
from .tetris import stf, stf_is_divisible, stf_low_redundancy_feasible
from .transform import analyze_fast, plan, synthesize_fast


def _write(text: str, path):
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_obj(obj, args):
    _write(io.dumps(obj) + "\n", args.output)


def cmd_frame(args):
    writer = io.frame_to_csv if args.format == "csv" else io.frame_to_json
    _write(writer(args.build(args)), args.output)
    return 0


def cmd_analyze(args):
    phi = io.read_frame(args.input)
    tol = args.tol
    _require_tight(phi.entries, tol)
    report = check_tight(phi, tol)
    payload = {"n": phi.n, "m": phi.m, "field": phi.field, **vars(report)}
    if phi.m >= 2:
        angles = check_equiangular(phi, tol)
        payload.update(coherence=angles.max_abs_inner, **vars(angles))
    if args.factor:
        payload.update(prime_factorization(phi, tol, args.force).to_json_obj())
    _emit_obj(payload, args)
    return 0


def cmd_factor(args):
    phi = io.read_frame(args.input)
    tol = args.tol
    payload = prime_factorization(phi, tol, args.force).to_json_obj()
    if args.all_minimal:
        payload["size_multisets"] = [
            list(t) for t in prime_factor_size_multisets(phi, tol, args.force)]
    _emit_obj(payload, args)
    return 0


def cmd_sets(args):
    _emit_obj(divisor_sets(args.n, args.m).to_json_obj(), args)
    return 0


def cmd_transform(args):
    tplan = plan(args.n, args.m, args.p)
    vec = io.read_vector(args.input)
    if args.analyze:
        out = analyze_fast(tplan, vec)
    else:
        out = synthesize_fast(tplan, vec)
    writer = io.vector_to_csv if args.format == "csv" else io.vector_to_json
    _write(writer(out), args.output)
    return 0


_GRID_COLUMNS = ("n", "m", "htf_prime", "htf_prime_brute", "stf_divisible",
                 "stf_divisible_brute", "stf_lowred_feasible")


def cmd_grid(args):
    if args.nmax < 2 or args.mmax < 2:
        raise ValueError("need nmax >= 2 and mmax >= 2")
    rows = []
    for n in range(2, args.nmax + 1):
        for m in range(n, args.mmax + 1):
            closed = htf_is_prime(n, m)
            brute = is_prime_bruteforce(htf(HtfParams(n, m)), force=args.force)
            if closed != brute:
                raise FrameError(
                    "closed-form and brute-force primality disagree at "
                    "(n, m) = (%d, %d)" % (n, m))
            row = dict.fromkeys(_GRID_COLUMNS)
            row.update(n=n, m=m, htf_prime=closed, htf_prime_brute=brute)
            if m >= 2 * n:
                divisible = stf_is_divisible(n, m)
                divisible_brute = not is_prime_bruteforce(stf(n, m),
                                                          force=args.force)
                if divisible != divisible_brute:
                    raise FrameError(
                        "tetris divisibility columns disagree at "
                        "(n, m) = (%d, %d)" % (n, m))
                row.update(stf_divisible=divisible,
                           stf_divisible_brute=divisible_brute)
            elif m > n:
                row["stf_lowred_feasible"] = stf_low_redundancy_feasible(n, m)
            rows.append(row)
    if args.format == "csv":
        lines = [",".join(_GRID_COLUMNS)] + [
            ",".join("" if row[key] is None else str(row[key]).lower()
                     for key in _GRID_COLUMNS) for row in rows]
        _write("\n".join(lines) + "\n", args.output)
    else:
        _emit_obj(rows, args)
    return 0


def _add_frame_output(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeframes",
        description="Constructions and divisibility decisions for finite "
                    "tight frames.")
    subs = parser.add_subparsers(dest="command", required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--force", action="store_true",
                        help="allow searches over the search cap")
    search.add_argument("--output", default=None)
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--n", type=int, required=True)
    shape.add_argument("--m", type=int, required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True)
    source.add_argument("--tol", type=float, default=DEFAULT_TOL)

    sub = subs.add_parser("htf", parents=[shape],
                          help="harmonic tight frame matrix")
    sub.add_argument("--s", type=float, default=1.0)
    _add_frame_output(sub)
    sub.set_defaults(handler=cmd_frame,
                     build=lambda a: htf(HtfParams(a.n, a.m, a.s)))

    sub = subs.add_parser("stf", parents=[shape],
                          help="sparse (spectral tetris) tight frame")
    _add_frame_output(sub)
    sub.set_defaults(handler=cmd_frame, build=lambda a: stf(a.n, a.m))

    sub = subs.add_parser("random", parents=[shape],
                          help="random real tight frame, bound 1")
    sub.add_argument("--seed", type=int, required=True)
    _add_frame_output(sub)
    sub.set_defaults(handler=cmd_frame,
                     build=lambda a: random_tight_frame(a.n, a.m, a.seed))

    sub = subs.add_parser("extendprime", parents=[shape],
                          help="prime Parseval frame of m vectors in R^n")
    _add_frame_output(sub)
    sub.set_defaults(handler=cmd_frame,
                     build=lambda a: prime_parseval_extension(a.n, a.m))

    sub = subs.add_parser("analyze", parents=[search, source],
                          help="diagnostics for a tight frame file")
    sub.add_argument("--factor", action="store_true",
                     help="include a prime factorization")
    sub.set_defaults(handler=cmd_analyze)

    sub = subs.add_parser("factor", parents=[search, source],
                          help="prime factorization of a tight frame")
    sub.add_argument("--all-minimal", action="store_true",
                     help="also enumerate all factor-size multisets")
    sub.set_defaults(handler=cmd_factor)

    sub = subs.add_parser("sets", parents=[shape],
                          help="divisor size sets of a harmonic frame")
    sub.add_argument("--output", default=None)
    sub.set_defaults(handler=cmd_sets)

    sub = subs.add_parser("transform", parents=[shape],
                          help="fast harmonic analysis or synthesis")
    sub.add_argument("--p", type=int, required=True)
    direction = sub.add_mutually_exclusive_group(required=True)
    direction.add_argument("--analyze", action="store_true")
    direction.add_argument("--synthesize", action="store_true")
    sub.add_argument("--input", required=True)
    _add_frame_output(sub)
    sub.set_defaults(handler=cmd_transform)

    sub = subs.add_parser("grid", parents=[search],
                          help="primality/divisibility table over a grid")
    sub.add_argument("--nmax", type=int, required=True)
    sub.add_argument("--mmax", type=int, required=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(handler=cmd_grid)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except (FrameError, ValueError, OSError, MemoryError,
            FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
