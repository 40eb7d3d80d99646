"""Command-line front end.

Four subcommands: ``measure``, ``separability``, ``invariance``, and
``parse``.  States come in either as a file (``--state``) or as a ket
expression (``--expr``).  ``--output machine`` emits one JSON document;
identical invocations produce byte-identical output, so machine output
can be diffed or hashed.  There is no environment-driven configuration
here: everything that affects results arrives through flags.

Exit codes: 0 on success, otherwise the ``exit_code`` of the error
raised: 1 for parse or syntax problems (expression text, state files),
2 for validation problems (normalization, arity, dimensions), 3 when a
size guard refuses the computation.  ``main`` exits 141 (128 + SIGPIPE)
with nothing on stderr when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys

from .errors import EntwedgeError
from .ketlang import evaluate, parse_ket, pretty
from .lu import invariance_experiment
from .measures import _auto_measure
from .separability import separability_report
from .statefile import load_state
from .states import PureState


# argparse reads a separate value that starts with '-' as an option
_LEADING_MINUS = "; write one that starts with '-' as --expr='-...'"


def _input_flags(sub: argparse.ArgumentParser, expr_only: bool = False) -> None:
    if expr_only:
        sub.add_argument("--expr", required=True, help="ket expression to parse" + _LEADING_MINUS)
        return
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="path to a JSON state file")
    group.add_argument("--expr", help="ket expression for the state" + _LEADING_MINUS)


def _output_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output", choices=("text", "machine"), default="text",
        help="human-readable lines or one JSON document",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwedge",
        description="Wedge-product entanglement measures for pure multipartite states.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    measure = subs.add_parser("measure", help="concurrence on two subsystems, E otherwise")
    _input_flags(measure)
    measure.add_argument("--norm-constant", type=float, default=2.0,
                         help="prefactor under the square root (default 2)")
    _output_flag(measure)
    measure.set_defaults(func=cmd_measure)

    separability = subs.add_parser("separability", help="residuals for every bipartition")
    _input_flags(separability)
    separability.add_argument("--threshold", type=float, default=1e-10,
                              help="residual at or below this counts as separable")
    _output_flag(separability)
    separability.set_defaults(func=cmd_separability)

    invariance = subs.add_parser("invariance", help="measure drift under local unitaries")
    _input_flags(invariance)
    invariance.add_argument("--trials", type=int, default=1000, help="number of rounds")
    invariance.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    invariance.add_argument("--norm-constant", type=float, default=2.0,
                            help="prefactor under the square root (default 2)")
    _output_flag(invariance)
    invariance.set_defaults(func=cmd_invariance)

    parse = subs.add_parser("parse", help="parse an expression and print its amplitudes")
    _input_flags(parse, expr_only=True)
    parse.set_defaults(func=cmd_parse)

    return parser


def _load_input(args) -> tuple[PureState, dict]:
    echo = {"expr": getattr(args, "expr", None), "state": getattr(args, "state", None)}
    if args.state is not None:
        return load_state(args.state), echo
    return evaluate(parse_ket(args.expr)), echo


def _write_json(doc: dict) -> None:
    """Write ``doc`` as indented JSON as it is encoded: ``json.dumps``
    would hold the whole text at once, and ``json.dump`` would send each
    of the encoder's millions of chunks through ``sys.stdout`` alone."""
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := "".join(itertools.islice(chunks, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def cmd_measure(args) -> int:
    state, echo = _load_input(args)
    result = _auto_measure(state, args.norm_constant)
    if args.output == "machine":
        _write_json({
            "command": "measure",
            "input": echo,
            "measure_kind": result.kind.value,
            "norm_constant": result.norm_constant,
            "value": result.value,
            "term_sum": result.term_sum,
        })
    else:
        print(f"kind: {result.kind.value}")
        print(f"norm constant: {result.norm_constant!r}")
        print(f"value: {result.value!r}")
        print(f"term sum: {result.term_sum!r}")
    return 0


def cmd_separability(args) -> int:
    state, echo = _load_input(args)
    report = separability_report(state, threshold=args.threshold)
    if args.output == "machine":
        _write_json({
            "command": "separability",
            "input": echo,
            "threshold": report.threshold,
            "partitions": [
                {"left": part.left, "residual": verdict.residual,
                 "separable": verdict.separable}
                for part, verdict in report.per_partition.items()
            ],
            "fully_separable": report.fully_separable,
            "genuinely_entangled": report.genuinely_entangled,
            "certificate": None if report.certificate is None else [
                [{"re": float(z.real), "im": float(z.imag)} for z in factor]
                for factor in report.certificate
            ],
            "certificate_error": report.certificate_error,
        })
    else:
        print(f"threshold: {report.threshold!r}")
        for part, verdict in report.per_partition.items():
            word = "separable" if verdict.separable else "entangled"
            print(f"split {part}: residual={verdict.residual!r} {word}")
        print(f"fully separable: {'yes' if report.fully_separable else 'no'}")
        print(f"genuinely entangled: {'yes' if report.genuinely_entangled else 'no'}")
        if report.certificate_error is not None:
            print(f"certificate reconstruction error: {report.certificate_error!r}")
    return 0


def cmd_invariance(args) -> int:
    state, echo = _load_input(args)
    run = invariance_experiment(
        state, trials=args.trials, seed=args.seed, norm_constant=args.norm_constant
    )
    if args.output == "machine":
        _write_json({
            "command": "invariance",
            "input": echo,
            "measure_kind": run.measure_kind,
            "norm_constant": run.norm_constant,
            "baseline_value": run.baseline_value,
            "seed": run.seed,
            "trials": run.trials,
            "max_abs_deviation": run.max_abs_deviation,
            "deviations": run.deviations,
        })
    else:
        print(f"measure: {run.measure_kind}")
        print(f"baseline value: {run.baseline_value!r}")
        print(f"seed: {run.seed}")
        print(f"trials: {run.trials}")
        print(f"max abs deviation: {run.max_abs_deviation!r}")
    return 0


def cmd_parse(args) -> int:
    expr = parse_ket(args.expr)
    state = evaluate(expr)
    print(f"expression: {pretty(expr)}")
    print(f"dims: {','.join(str(n) for n in state.dims)}")
    tensor = state.tensor
    for idx in sorted(zip(*[axis.tolist() for axis in tensor.nonzero()])):
        z = complex(tensor[idx])
        label = ",".join(str(x) for x in idx)
        print(f"amp |{label}>: re={z.real!r} im={z.imag!r}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EntwedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    """Run ``cli_main`` on ``sys.argv`` and raise ``SystemExit`` with its
    code.  The collector is left frozen: everything numpy and entwedge
    built at import moves to the permanent generation, so the
    interpreter's shutdown frees it by reference count instead of
    traversing it."""
    try:
        try:
            code = cli_main()
        finally:
            # None when the process started with descriptor 1 closed
            if sys.stdout is not None:
                sys.stdout.flush()
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the reader is gone, so what is still
        # buffered goes to devnull, and the shutdown flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
