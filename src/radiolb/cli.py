"""Command-line front end.

All reports are line-delimited JSON objects with sorted keys so that
identical invocations produce byte-identical output. Exit codes: 0 on
success (including an adversary run that finds no witness), 1 on domain
errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import core
from .adversary import analyze
from .c2 import C2Params, build_c2, decode_c2, encode_c2, enumerate_c2
from .core import SOURCE
from .errors import RadioLBError
from .prune import run_prune
from .protocols import get_protocol
from .reductions import AdviceString, transform_chain
from .selfam import (
    family_to_lines,
    global_round_bound,
    greedy_selective,
    is_selective,
    mask_to_indices,
    min_selective_size,
    read_family,
    size_bound,
    size_bound_in_range,
)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_net(arg: str):
    if arg.startswith("c2:"):
        text = arg
    elif os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise ValueError(f"network file {arg!r} is empty")
        text = lines[0]
    else:
        raise ValueError(f"--net {arg!r} is neither a c2 encoding nor a file")
    params, tv = decode_c2(text)
    return params, tv, build_c2(params, tv)


def _write_trace(path: str, trace) -> None:
    lines = core.trace_to_jsonl(trace)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _cmd_simulate(args) -> int:
    params, tv, net = _load_net(args.net)
    proto = get_protocol(args.protocol, params)
    trace = core.run(net, proto, args.rounds)
    if args.trace:
        _write_trace(args.trace, trace)
    _emit(
        {
            "completion": core.completion_round(trace),
            "informed": sorted([x, t] for x, t in trace.informed.items()),
            "net": encode_c2(params, tv),
            "protocol": args.protocol,
            "rounds": args.rounds,
        }
    )
    return 0


def _cmd_enumerate(args) -> int:
    params = C2Params(args.m, args.k)
    for tv in enumerate_c2(params):
        print(encode_c2(params, tv))
    return 0


def _cmd_transform(args) -> int:
    params, tv, net = _load_net(args.net)
    p0 = get_protocol(args.protocol, params)
    trace = core.run(net, transform_chain(p0, params, args.stage), args.rounds)
    for line in core.trace_to_jsonl(trace):
        print(line)
    report = {
        "completion": core.completion_round(trace),
        "protocol": args.protocol,
        "stage": args.stage,
    }
    if args.stage == 4:
        # the advice the source sent with the payload; no round, no advice
        sent = trace.rounds[0].actions[SOURCE].message.advice if trace.rounds else AdviceString(())
        report["advice"] = sent.encode()
    _emit(report)
    return 0


def _cmd_prune(args) -> int:
    params = C2Params(args.m, args.k)
    p0 = get_protocol(args.protocol, params)
    p3 = transform_chain(p0, params, 3)
    pr = run_prune(p3, args.rounds)
    _emit(
        {
            "advice": pr.advice.encode(),
            "base": encode_c2(params, pr.base_net),
            "free_component": pr.free_component,
            "marked": sorted(pr.marked),
            "survivors": len(pr.survivors),
        }
    )
    return 0


def _cmd_adversary(args) -> int:
    params = C2Params(args.m, args.k)
    p0 = get_protocol(args.protocol, params)
    outcome = analyze(p0, args.budget, params)
    w = outcome.witness
    if w is None:
        print("none")
        return 0
    _emit(
        {
            "budget": w.budget,
            "network": encode_c2(params, w.network),
            "verified": w.verified,
            "z": list(w.unhit_z),
        }
    )
    if outcome.family is not None:
        for line in family_to_lines(outcome.family):
            print(line)
    return 0


def _cmd_selfam(args) -> int:
    if args.verb == "verify":
        fam = read_family(args.family)
        n = fam.universe if args.n is None else args.n
        if n != fam.universe:
            raise ValueError(f"--n {n} disagrees with family universe {fam.universe}")
        ok, witness = is_selective(fam, n, args.k)
        _emit(
            {
                "selective": ok,
                "witness": None if witness is None else list(mask_to_indices(witness)),
            }
        )
        return 0
    if args.verb == "greedy":
        for line in family_to_lines(greedy_selective(args.n, args.k)):
            print(line)
        return 0
    if args.verb == "min":
        _emit(min_selective_size(args.n, args.k))
        return 0
    # bound: with --k, the selective-family size bound; without, the global
    # round bound for an n-node family instance.
    if args.k is None:
        _emit({"rounds": global_round_bound(args.n)})
    else:
        _emit(
            {
                "in_range": size_bound_in_range(args.n, args.k),
                "value": size_bound(args.n, args.k),
            }
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiolb",
        description="Radio broadcast simulator and lower-bound adversary toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a protocol on one network")
    p.add_argument("--net", required=True, help="c2:... encoding or file (first encoding only)")
    p.add_argument("--protocol", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--trace", help="write the round trace to this file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("enumerate", help="list every network of a family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="run a staged transform of a protocol")
    p.add_argument("--protocol", required=True)
    p.add_argument("--stage", type=int, choices=[1, 2, 3, 4], required=True)
    p.add_argument("--net", required=True, help="c2:... encoding or file (first encoding only)")
    p.add_argument("--rounds", type=int, required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("prune", help="prune a family to one advice string")
    p.add_argument("--protocol", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("adversary", help="search for a witness network")
    p.add_argument("--protocol", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("selfam", help="selective-family utilities")
    p.add_argument("verb", choices=["verify", "greedy", "min", "bound"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--family", help="family file (for verify)")
    p.set_defaults(func=_cmd_selfam)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    least = {"simulate": 0, "transform": 0, "prune": 1}.get(args.command)
    if least is not None and args.rounds < least:
        parser.error(f"--rounds must be >= {least}, got {args.rounds}")
    if args.command == "adversary" and args.budget < 1:
        parser.error(f"--budget must be >= 1, got {args.budget}")
    if args.command == "selfam":
        if args.verb == "verify" and not args.family:
            parser.error("selfam verify requires --family")
        if args.verb in ("greedy", "min") and (args.n is None or args.k is None):
            parser.error(f"selfam {args.verb} requires --n and --k")
        if args.verb == "bound" and args.n is None:
            parser.error("selfam bound requires --n")
        if args.verb == "verify" and args.k is None:
            parser.error("selfam verify requires --k")
    try:
        return args.func(args)
    except (RadioLBError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its argument; print the text once
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
