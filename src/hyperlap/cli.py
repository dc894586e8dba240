"""Command-line interface.

Subcommands: spectrum, bounds, cuts, gen, verify.  All reports are JSON on
stdout and deterministic for fixed input and flags; randomness always takes
an explicit seed.  Exit codes: 0 success, 1 bad input or parameters, 2 a
verification battery found a violated hard invariant.
"""

import argparse
import sys
from typing import Optional

from . import hgio, report
from .analysis import analyze
from .core import Hypergraph
from .cuts import boundary_sandwich, connectivity_summary, fiedler_sweep
from .errors import BadParametersError, HyperlapError
from .generators import (
    complete_kgraph,
    complete_kpartite,
    random_hypergraph,
    star_kgraph,
)
from .verify import random_battery, verify_instances


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Exit 1 on usage problems (argparse defaults to 2, which is reserved
    # for verification failures here).
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _read(path: str) -> tuple:
    """(Analysis, source name) of one input; commands share the analysis."""
    if path == "-":
        return analyze(hgio.loads(hgio.decode(sys.stdin.buffer.read()))), "<stdin>"
    return analyze(hgio.load(path)), path


def _parse_subset(h: Hypergraph, text: str) -> list:
    index = h.label_index()
    subset = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise BadParametersError("empty vertex label in subset")
        if token not in index:
            raise BadParametersError(f"unknown vertex label {token!r}")
        if token in subset:
            raise BadParametersError(f"subset repeats vertex label {token!r}")
        subset[token] = index[token]
    return list(subset.values())


# Each command returns (JSON payload or None, exit code).  `run` writes the
# payload after the command has returned, so the input's Analysis
# (incidence table, matrices, spectrum) is freed before the report is
# serialised.


def _cmd_spectrum(args) -> tuple:
    h, source = _read(args.path)
    return report.spectrum_payload(h, source), 0


def _cmd_bounds(args) -> tuple:
    h, _ = _read(args.path)
    return report.bounds_payload(h), 0


def _cmd_cuts(args) -> tuple:
    h, source = _read(args.path)
    if args.subset is not None:
        rep = boundary_sandwich(h, _parse_subset(h, args.subset))
        payload = report.cut_payload(h, rep, source)
    elif args.exact:
        payload = report.summary_payload(h, connectivity_summary(h), source)
    else:
        subset, rep = fiedler_sweep(h)
        payload = report.sweep_payload(h, subset, rep, source)
    return payload, 0


def _cmd_gen(args) -> tuple:
    if args.family == "complete":
        _require(args, "n", "k")
        h = complete_kgraph(args.n, args.k)
        descr = f"complete n={args.n} k={args.k}"
    elif args.family == "kpartite":
        _require(args, "sizes")
        try:
            sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        except ValueError as exc:
            raise BadParametersError(f"bad part sizes {args.sizes!r}") from exc
        h = complete_kpartite(sizes)
        descr = f"kpartite sizes={','.join(str(s) for s in sizes)}"
    elif args.family == "star":
        _require(args, "k", "r")
        h = star_kgraph(args.k, args.r)
        descr = f"star k={args.k} r={args.r}"
    else:
        _require(args, "n", "m", "kmin", "kmax", "seed")
        h = random_hypergraph(args.n, args.m, args.kmin, args.kmax, args.seed)
        descr = (
            f"random n={args.n} m={args.m} kmin={args.kmin}"
            f" kmax={args.kmax} seed={args.seed}"
        )
    text = hgio.dumps(h, comment=descr)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return None, 0


def _require(args, *names) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        raise BadParametersError(f"gen {args.family} needs {flags}")


def _cmd_verify(args) -> tuple:
    if args.random is not None:
        n, m, k_min, k_max, count, seed = args.random
        if args.path is not None:
            raise BadParametersError("give either a file or --random, not both")
        instances = random_battery(n, m, k_min, k_max, count, seed)
        source = (
            f"random(n={n},m={m},k={k_min}..{k_max},count={count},seed={seed})"
        )
    elif args.path is not None:
        h, source = _read(args.path)
        rep = verify_instances([(source, h)], source)
        summary = None
        if h.m > 0 and h.enumerable:
            summary = connectivity_summary(h)
        payload = report.analysis_payload(h, source, rep, summary)
        return payload, 0 if rep.passed else 2
    else:
        raise BadParametersError("verify needs a file or --random")
    rep = verify_instances(instances, source)
    return report.verify_payload(rep), 0 if rep.passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hyperlap",
        description="Laplacian spectra, eigenvalue bounds, and cut bounds "
        "for non-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", help="eigenvalues and connectivity")
    p.add_argument("path", help=".hg file, or - for stdin")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bounds", help="largest-eigenvalue bounds vs lambda_n")
    p.add_argument("path", help=".hg file, or - for stdin")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("cuts", help="boundary bounds and exact cut quantities")
    p.add_argument("path", help=".hg file, or - for stdin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--subset", metavar="LABELS", help="comma-separated vertex labels"
    )
    group.add_argument(
        "--exact",
        action="store_true",
        help="exact max cut and isoperimetric number, if the subset scan"
        " fits the byte budget",
    )
    group.add_argument(
        "--sweep", action="store_true", help="best Fiedler-order prefix cut"
    )
    p.set_defaults(func=_cmd_cuts)

    p = sub.add_parser("gen", help="write a generated hypergraph as .hg")
    p.add_argument(
        "family", choices=["complete", "kpartite", "star", "random"]
    )
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--k", type=int, help="edge size")
    p.add_argument("--r", type=int, help="spoke count (star)")
    p.add_argument("--sizes", help="comma-separated part sizes (kpartite)")
    p.add_argument("--m", type=int, help="edge count (random)")
    p.add_argument("--kmin", type=int, help="smallest edge size (random)")
    p.add_argument("--kmax", type=int, help="largest edge size (random)")
    p.add_argument("--seed", type=int, help="PRNG seed (random; required)")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("path", nargs="?", help=".hg file, or - for stdin")
    p.add_argument(
        "--random",
        nargs=6,
        type=int,
        metavar=("N", "M", "KMIN", "KMAX", "COUNT", "SEED"),
        help="verify COUNT seeded random instances",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        payload, code = args.func(args)
    except (HyperlapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is not None:
        sys.stdout.write(report.dumps(payload))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
