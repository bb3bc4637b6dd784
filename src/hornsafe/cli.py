"""Command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import traceback

from hornsafe.chc_core import CHCError, parse_program, strict_to_nonstrict
from hornsafe.driver import ENGINES, Stats, Verdict, verify

EXIT_INPUT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # "unknown" verdict; route everything wrong about the invocation
    # or the input to 3 instead, with a one-line message (-h shows the
    # usage)
    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return value


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:  # NaN too, which would never time out
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {text!r}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hornsafe",
        description="Safety verification of constrained Horn clause programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser(
        "verify",
        help="verify a .chc file",
        description="Decide whether false is derivable, refining the "
        "abstraction with trace automata until a verdict is reached.",
    )
    pv.add_argument("file", help="clause program to check")
    pv.add_argument(
        "--engine",
        choices=ENGINES,
        default="rahit",
        help="counterexample remover: interpolant automaton (rahit) or "
        "single trace (rahft)",
    )
    pv.add_argument("--max-iter", type=_count, default=20, metavar="N")
    pv.add_argument("--timeout", type=_seconds, default=300.0, metavar="SECS")
    pv.add_argument("--widen-delay", type=_count, default=3, metavar="K")
    pv.add_argument(
        "--strict-to-nonstrict",
        action="store_true",
        help="rewrite t < b into t =< ceil(b)-1 over coprime integer "
        "coefficients first (integer-valued inputs)",
    )
    pv.add_argument("--stats-json", metavar="PATH", help="write run statistics")
    pv.add_argument(
        "--dump-dir", metavar="PATH", help="write per-iteration artifacts"
    )
    return parser


def _report(verdict: Verdict) -> str:
    lines = [verdict.status.upper()]
    lines.append(f"engine: {verdict.stats.engine}")
    lines.append(f"iterations: {verdict.stats.iterations}")
    if verdict.reason:
        lines.append(f"reason: {verdict.reason}")
    if verdict.trace is not None:
        lines.append(f"counterexample: {verdict.trace}")
    if verdict.witness:
        point = ", ".join(
            f"{v}={verdict.witness[v]}" for v in sorted(verdict.witness, key=str)
        )
        lines.append(f"witness: {point}")
    for phase, ms in sorted(verdict.stats.times_ms.items()):
        lines.append(f"time[{phase}]: {ms:.1f} ms")
    for i, sizes in enumerate(verdict.stats.automata):
        shown = ", ".join(f"{k}={sizes[k]}" for k in sorted(sizes))
        lines.append(f"automata[{i}]: {shown}")
    return "\n".join(lines)


def _stats_payload(verdict: Verdict) -> dict:
    payload = {"verdict": verdict.status, **verdict.stats.as_dict()}
    if verdict.reason:
        payload["reason"] = verdict.reason
    if verdict.trace is not None:
        payload["trace"] = str(verdict.trace)
    if verdict.witness:
        payload["witness"] = {
            str(v): str(val) for v, val in verdict.witness.items()
        }
    return payload


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"hornsafe: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        program = parse_program(text)
    except CHCError as exc:
        print(f"hornsafe: {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.strict_to_nonstrict:
        program = strict_to_nonstrict(program)

    # both outputs are opened before verify runs, so a bad path is an
    # input error rather than a failure after the verdict
    try:
        if args.dump_dir:
            os.makedirs(args.dump_dir, exist_ok=True)
        stats_out = (
            open(args.stats_json, "w", encoding="utf-8")
            if args.stats_json
            else contextlib.nullcontext()
        )
    except OSError as exc:
        print(f"hornsafe: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    dump_sink = None
    if args.dump_dir:

        def dump_sink(name: str, content: str):
            with open(
                os.path.join(args.dump_dir, name), "w", encoding="utf-8"
            ) as handle:
                handle.write(content)

    with stats_out:
        try:
            verdict = verify(
                program,
                engine=args.engine,
                max_iter=args.max_iter,
                widen_delay=args.widen_delay,
                timeout=args.timeout,
                dump_sink=dump_sink,
            )
        except Exception as exc:
            # a fault inside the verifier decides nothing: it must not
            # leave through exit code 1, which means unsafe
            traceback.print_exc()
            verdict = Verdict(
                "unknown", Stats(args.engine), reason=f"internal:{type(exc).__name__}"
            )
        if args.strict_to_nonstrict and verdict.witness and any(
            value.denominator != 1 for value in verdict.witness.values()
        ):
            # the rewrite keeps the integer points only, so a counterexample
            # through a point off them proves nothing about the input
            verdict = dataclasses.replace(
                verdict, status="unknown", witness=None, reason="non-integral-witness"
            )
        try:
            print(_report(verdict), flush=True)
        except BrokenPipeError:
            # the reader left early; keep the exit-time flush from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if args.stats_json:
            json.dump(_stats_payload(verdict), stats_out, indent=2)
            stats_out.write("\n")
    return verdict.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
