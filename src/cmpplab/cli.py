"""Command-line front end.

    cmpplab run <scenario-or-builtin> [--seed N] [--paths N]
        [--horizon X] [--output PATH] [--format csv|json-lines]
        [--param name=value]...
    cmpplab list

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 usage or
scenario parse error.  The setting flags pass their text on unconverted;
``scenario`` reads it by the rules of a scenario file's [mc] and [output]
keys, and a refusal names the flag.  ``--param`` values parameterize
builtin scenarios (e.g. ``--param c=1`` for example-6.3), each name at
most once; file scenarios bind their own parameters.  The default report location is the current
directory, or the directory named by the CMPPLAB_OUTPUT_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .scenario import BUILTIN_SCENARIOS, OUTPUT_FORMATS, run_scenario


def _parse_param(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name.strip().isidentifier():
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}")
    try:
        return name.strip(), float(value.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad numeric value in {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmpplab",
        description="Compound mixed Poisson process laboratory: simulate, "
                    "verify and price under progressive changes of measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or builtin scenario")
    run.add_argument("scenario", help="path to a scenario file or a builtin name")
    run.add_argument("--seed", help="override mc.seed")
    run.add_argument("--paths", help="override mc.paths")
    run.add_argument("--horizon", help="override mc.horizon")
    run.add_argument("--output", help="override the report path")
    run.add_argument("--format", help=f"override the report format "
                                      f"({' | '.join(OUTPUT_FORMATS)})")
    run.add_argument("--param", action="append", type=_parse_param, default=[],
                     metavar="NAME=VALUE",
                     help="builtin scenario parameter (repeatable)")

    sub.add_parser("list", help="list builtin scenarios")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, matching the exit-code contract
        return int(e.code or 0)

    if args.command == "list":
        for name in sorted(BUILTIN_SCENARIOS):
            print(name)
        return 0

    params = {}
    for name, value in args.param:
        if name in params:
            print(f"error: --param: parameter {name!r} given twice", file=sys.stderr)
            return 2
        params[name] = value
    overrides = {
        "seed": args.seed,
        "paths": args.paths,
        "horizon": args.horizon,
        "output": args.output,
        "format": args.format,
        "params": params,
    }
    return run_scenario(args.scenario, overrides)


if __name__ == "__main__":
    sys.exit(main())
