"""Command-line front end.

Exit codes: 0 success / positive verdict, 1 negative verdict (not
reversible, divergence found), 2 input error, 3 internal verification
failure.  Every subcommand accepts --json for structured output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .encoding import digit_position, encode_state, k_max_cap
from .gadgets import check_separation
from .machine import MachineError, check_reversible, parse_machine, parse_tape, format_tape
from .simulate import Periodic, TracingError, run_symbolic, verify_equivalence, write_trace
from .table import CompileError, compile_table, load_table, to_svg
from .machine import enumerate_tapes

OK, NEGATIVE, INPUT_ERROR, INTERNAL = 0, 1, 2, 3

#: The most walls ``carom svg`` draws; more levels than this allows exit 2
#: before any wall is listed (walls grow about 4x per head level).
SVG_MAX_WALLS = 100_000

#: The most tapes ``carom verify`` checks; a --support whose 2^(2N + 1)
#: tapes exceed it exits 2 before any tape is listed.
VERIFY_MAX_TAPES = 2 ** 20

#: The most Cantor blocks ``carom audit`` sweeps; a --K with more (K >= 10:
#: K = 9 has 1,048,574) exits 2 before the sweep.
AUDIT_MAX_BLOCKS = 2 ** 20


@dataclass
class Config:
    K: int = 8
    budget: int = 10_000

    def validate(self):
        if not (1 <= self.K <= k_max_cap()):
            raise ValueError(f"K must be in [1, {k_max_cap()}]")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        return self


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(human)


def _read_machine(path):
    with open(path) as fh:
        return parse_machine(fh.read(), name=path)


def cmd_check(args):
    machine = _read_machine(args.machine)
    witness = check_reversible(machine)
    if witness is None:
        _emit(args, {"reversible": True}, "reversible")
        return OK
    detail = {
        "reversible": False,
        "witness": [list(witness.first), list(witness.second)],
        "reason": witness.reason,
    }
    _emit(args, detail,
          f"not reversible:\n  {witness.first}\n  {witness.second}\n  ({witness.reason})")
    return NEGATIVE


def cmd_encode(args):
    tape = parse_tape(args.tape)
    point = encode_state(tape, args.k)
    payload = {
        "value": str(point.value),
        "ternary": point.value.ternary_str(),
        "head": args.k,
        "tape": format_tape(tape),
    }
    _emit(args, payload,
          f"{point.value}  (ternary {point.value.ternary_str()})")
    return OK


def cmd_compile(args, cfg):
    machine = _read_machine(args.machine)
    table = compile_table(machine, cfg.K)
    if args.output:
        with open(args.output, "w") as fh:
            table.write(fh)
        _emit(args, {"written": args.output, "K": cfg.K,
                     "machine_sha256": table.machine_hash},
              f"table written to {args.output} (K={cfg.K})")
    else:
        print(table.to_json())
    return OK


def _load_or_compile(args, cfg):
    if args.machine.endswith(".json"):
        with open(args.machine) as fh:
            return load_table(fh.read())
    return compile_table(_read_machine(args.machine), cfg.K)


def cmd_run(args, cfg):
    table = _load_or_compile(args, cfg)
    tape = parse_tape(args.tape)
    result = None
    if args.mode in ("numeric", "both"):
        from .numeric import run_numeric   # the tracer, which symbolic runs skip
        result = run_numeric(table, tape, cfg.budget)
        outcome = result.outcome
    else:
        outcome = run_symbolic(table, tape, cfg.budget)
    payload = {
        "verdict": outcome.verdict,
        "steps": outcome.steps,
        "periodic": outcome.periodic,
        "period_steps": outcome.period_steps,
    }
    lines = [f"verdict: {outcome.verdict} after {outcome.steps} steps"]
    if outcome.verdict == "halted":
        payload["tape"] = format_tape(outcome.final_tape)
        payload["head"] = outcome.final_head
        lines.append(f"output tape {format_tape(outcome.final_tape)}, "
                     f"head {outcome.final_head}, periodic orbit")
    if outcome.out_of_range_k is not None:
        payload["out_of_range_k"] = outcome.out_of_range_k
        lines.append(f"head would reach {outcome.out_of_range_k}, beyond K={table.K}")
    if result is not None:
        payload["max_deviation"] = result.max_deviation
        payload["walls_built"] = result.walls_built
        payload["max_candidates"] = result.max_candidates
        payload["denominator_bits"] = result.denominator_bits
        payload["period_bounces"] = result.period_bounces
        lines.append("exact numeric trace matches; every checkpoint reads its value")
    if args.trace:
        with open(args.trace, "w") as fh:
            write_trace(outcome, fh)
        lines.append(f"trace written to {args.trace}")
    _emit(args, payload, "\n".join(lines))
    return OK


def cmd_verify(args, cfg):
    cells = range(-args.support, args.support + 1)
    if len(cells) >= VERIFY_MAX_TAPES.bit_length():    # 2^len(cells) tapes
        raise ValueError(f"--support {args.support} would check 2^{len(cells)} tapes, "
                         f"more than the {VERIFY_MAX_TAPES} verify checks")
    table = _load_or_compile(args, cfg)
    machine = table.machine
    tapes = list(enumerate_tapes(cells))
    report = verify_equivalence(machine, table, tapes, cfg.budget)
    payload = {
        "passed": report.passed,
        "tapes": report.tapes_checked,
        "verdicts": report.verdicts,
    }
    if report.passed:
        _emit(args, payload,
              f"equivalence verified on {report.tapes_checked} tapes "
              f"({report.verdicts})")
        return OK
    d = report.first_divergence
    payload["divergence"] = {"tape": format_tape(d.tape), "step": d.step,
                             "detail": d.detail}
    _emit(args, payload,
          f"DIVERGENCE on tape {format_tape(d.tape)} at step {d.step}: {d.detail}")
    return NEGATIVE


def cmd_audit(args, cfg):
    # level k has 2**(digit_position(k) - 1) blocks of each symbol
    blocks = sum(2 ** digit_position(k) for k in range(-cfg.K, cfg.K + 1))
    if blocks > AUDIT_MAX_BLOCKS:
        raise ValueError(f"--K {cfg.K} would sweep {blocks} blocks, "
                         f"more than the {AUDIT_MAX_BLOCKS} audit sweeps")
    reports = check_separation(cfg.K)
    bad = [r for r in reports if not r.passed]
    tightest = min((r for r in reports if r.min_slack is not None),
                   key=lambda r: r.min_slack, default=None)
    payload = {
        "pairs": sum(r.pair_count for r in reports),
        "passed": not bad,
        "min_slack": tightest and str(tightest.min_slack),
        "blocks": blocks,
        "tightest": tightest and [tightest.k, tightest.k_other],
    }
    if bad:
        _emit(args, payload, f"separation FAILED for {len(bad)} level pairs")
        return NEGATIVE
    _emit(args, payload,
          f"all separation inequalities hold; min slack {tightest.min_slack}"
          if tightest else "no pairs to check")
    return OK


def cmd_svg(args, cfg):
    table = _load_or_compile(args, cfg)
    levels = min(table.K, args.levels)
    count = table.wall_count(levels)
    if count > SVG_MAX_WALLS:
        raise ValueError(f"--levels {levels} would draw {count} walls, "
                         f"more than the {SVG_MAX_WALLS} an svg holds")
    trace_points = None
    if args.tape:
        from .numeric import run_numeric
        trace_points = run_numeric(table, parse_tape(args.tape), cfg.budget).points
        if isinstance(trace_points, Periodic):
            # a closed orbit: its head and one period, closed on the period's
            # first hit, whatever the budget
            trace_points = [*trace_points.head, *trace_points.cycle, trace_points.cycle[0]]
    svg = to_svg(table, levels=range(-levels, levels + 1), trace_points=trace_points)
    out = args.output or "table.svg"
    with open(out, "w") as fh:
        fh.write(svg)
    _emit(args, {"written": out}, f"svg written to {out}")
    return OK


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--K", type=int, default=Config.K,
                        help=f"head range bound (default {Config.K})")
    shared.add_argument("--budget", type=int, default=Config.budget,
                        help=f"machine step budget (default {Config.budget})")
    shared.add_argument("--json", action="store_true",
                        help="structured output")

    parser = argparse.ArgumentParser(
        prog="carom",
        description="compile reversible Turing machines into billiard tables "
                    "and simulate them exactly")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[shared],
                       help="reversibility verdict for a machine file")
    p.add_argument("machine")

    p = sub.add_parser("encode", parents=[shared],
                       help="encode a tape literal at a head position")
    p.add_argument("tape")
    p.add_argument("--k", type=int, default=0)

    p = sub.add_parser("compile", parents=[shared],
                       help="compile a machine into a table file")
    p.add_argument("machine")
    p.add_argument("-o", "--output")

    p = sub.add_parser("run", parents=[shared],
                       help="simulate a tape on a machine or table file")
    p.add_argument("machine")
    p.add_argument("--tape", required=True)
    p.add_argument("--mode", choices=("symbolic", "numeric", "both"),
                   default="symbolic")
    p.add_argument("--trace", help="write the event log to this file")

    p = sub.add_parser("verify", parents=[shared],
                       help="machine/billiard lockstep equivalence")
    p.add_argument("machine")
    p.add_argument("--support", type=int, default=2,
                   help="check all tapes with support in [-N, N] (default 2)")

    sub.add_parser("audit", parents=[shared],
                   help="exact wall separation inequalities")

    p = sub.add_parser("svg", parents=[shared],
                       help="render the table (optionally with a trace)")
    p.add_argument("machine")
    p.add_argument("-o", "--output")
    p.add_argument("--tape", help="overlay the numeric trajectory of this tape")
    p.add_argument("--levels", type=int, default=2,
                   help="head levels of wall detail to draw (default 2)")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(K=args.K, budget=args.budget).validate()
        for flag in ("support", "levels"):     # counts of verify / svg
            if getattr(args, flag, 0) < 0:
                raise ValueError(f"--{flag} must be >= 0, got {getattr(args, flag)}")
        if abs(getattr(args, "k", 0)) > k_max_cap():   # encode's head position
            raise ValueError(f"--k must be in [-{k_max_cap()}, {k_max_cap()}], got {args.k}")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "encode":
            return cmd_encode(args)
        if args.command == "compile":
            return cmd_compile(args, cfg)
        if args.command == "run":
            return cmd_run(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "audit":
            return cmd_audit(args, cfg)
        if args.command == "svg":
            return cmd_svg(args, cfg)
        raise AssertionError(args.command)
    except (MachineError, CompileError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    except (TracingError, AssertionError) as err:
        print(f"internal verification failure: {err}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
