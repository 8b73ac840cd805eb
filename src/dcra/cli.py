"""Command-line entry points.

Every subcommand accepts an optional --config JSON file whose keys mirror the
flag names (dashes become underscores); explicit flags override the file,
which overrides built-in defaults.  Output paths default into the directory
named by DCRA_OUTPUT_DIR (falling back to the working directory).  The process
exits 0 on success and nonzero after printing one diagnostic line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import experiments
from .agents import LEARNER_KINDS, RewardSpec, write_policy_csv
from .env import run, write_trace_csv
from .mdp import TwoDeviceParams, bound_program, build_mdp, majority_policy, upper_bound
from .simplex import write_mps

__all__ = ["main"]

AGENT_KINDS = ("blind",) + tuple(sorted(LEARNER_KINDS))

# states n = (2^D)^2 * 4 grow fast: the --export-lp program is a dense
# (2n, 4n) float matrix, 1.07 GB at D=5, and build_mdp's (2, n/4, n) pair
# kernel reaches 1.07 GB at D=6, so anything above this asks for explicit consent
MAX_CASUAL_LIFETIME = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with defaults for this subcommand")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", metavar="FILE", help="output CSV path")


def _add_pair_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--peer-arrival", type=float, help="peer packet arrival probability")
    parser.add_argument("--agent-arrival", type=float, help="agent packet arrival probability")
    parser.add_argument("--peer-success", type=float, help="peer decode probability when alone")
    parser.add_argument("--agent-success", type=float, help="agent decode probability when alone")
    parser.add_argument("--peer-transmit", type=float, help="peer blind transmit probability")


def _add_ranges(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arrival-range", nargs=2, type=float, metavar=("LO", "HI"))
    parser.add_argument("--success-range", nargs=2, type=float, metavar=("LO", "HI"))
    parser.add_argument("--transmit-range", nargs=2, type=float, metavar=("LO", "HI"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcra",
        description="Deadline-constrained random access: simulator, solvers, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and print its metrics")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetime", type=int, help="packet lifetime in slots (default 2)")
    p.add_argument("--slots", type=int, help="horizon (default 200000)")
    p.add_argument("--window", type=int, help="report over the last WINDOW slots")
    p.add_argument("--agent", choices=AGENT_KINDS, help="tracked device policy (default r-tiny)")
    p.add_argument("--agent-transmit", type=float,
                   help="transmit probability when --agent blind")
    p.add_argument("--reward", help='learner reward: "two-level", '
                   '"two-level-shifted:<c>" or "multi-level"')
    p.add_argument("--trace-out", metavar="FILE", help="write a per-slot trace CSV")

    p = sub.add_parser("upper-bound", help="exact two-device bound by policy iteration")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetime", type=int, help="packet lifetime in slots (default 2)")
    p.add_argument("--policy-out", metavar="FILE",
                   help="write the bound-achieving policy as CSV")
    p.add_argument("--export-lp", metavar="FILE",
                   help="write the LP in fixed-field MPS format and stop")
    p.add_argument("--allow-large", action=argparse.BooleanOptionalAction,
                   help=f"permit lifetimes above {MAX_CASUAL_LIFETIME}")

    p = sub.add_parser("sweep", help="random-group comparison across agents")
    _add_common(p)
    _add_ranges(p)
    p.add_argument("--groups", type=int, help="sampled parameter groups (default 20)")
    p.add_argument("--lifetimes", nargs="+", type=int, help="lifetimes to sweep (default 1 2 3)")
    p.add_argument("--agents", nargs="+", choices=AGENT_KINDS,
                   help="agent kinds to compare (default r-tiny blind)")
    p.add_argument("--slots", type=int, help="horizon per run (default 200000)")
    p.add_argument("--window", type=int, help="evaluation window (default 50000)")
    p.add_argument("--with-bound", action=argparse.BooleanOptionalAction,
                   help="add the exact bound column")

    p = sub.add_parser("convergence", help="windowed-throughput series for one agent")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetimes", nargs="+", type=int,
                   help="lifetimes to run (default 10 20 30)")
    p.add_argument("--agent", choices=AGENT_KINDS, help="agent kind (default r-tiny)")
    p.add_argument("--slots", type=int, help="horizon (default 200000)")
    p.add_argument("--window", type=int, help="series window (default 2000)")

    p = sub.add_parser("policy-dump", help="train a learner, dump its greedy policy")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetime", type=int, help="packet lifetime in slots (default 2)")
    p.add_argument("--slots", type=int, help="horizon (default 200000)")
    p.add_argument("--agent", choices=tuple(sorted(LEARNER_KINDS)),
                   help="learner kind (default r-tiny)")
    p.add_argument("--reward", help="learner reward spec (default two-level)")

    p = sub.add_parser("congestion", help="saturated-peer study over agent counts")
    _add_common(p)
    _add_ranges(p)
    p.add_argument("--peer-count", type=int, help="saturated legacy devices (default 1)")
    p.add_argument("--agent-counts", nargs="+", type=int,
                   help="newcomer counts to try (default 10)")
    p.add_argument("--lifetime", type=int, help="packet lifetime in slots (default 10)")
    p.add_argument("--agent", choices=tuple(sorted(LEARNER_KINDS)),
                   help="learner kind (default r-tiny)")
    p.add_argument("--slots", type=int, help="horizon per run (default 200000)")
    p.add_argument("--window", type=int, help="evaluation window (default 50000)")

    return parser


# the two-device point of every command that takes _add_pair_params
PAIR_DEFAULTS = {
    "peer_arrival": 0.5, "agent_arrival": 0.4,
    "peer_success": 0.7, "agent_success": 0.6, "peer_transmit": 0.4,
}

DEFAULTS = {
    "simulate": {
        "seed": 0, "lifetime": 2, "slots": 200_000, "window": None,
        "agent": "r-tiny", "agent_transmit": None, "reward": "two-level",
        "trace_out": None, "out": None, **PAIR_DEFAULTS,
    },
    "upper-bound": {
        "seed": None, "lifetime": 2, "policy_out": None, "export_lp": None,
        "allow_large": False, "out": None, **PAIR_DEFAULTS,
    },
    "sweep": {
        "seed": 0, "groups": 20, "lifetimes": [1, 2, 3],
        "agents": ["r-tiny", "blind"], "slots": 200_000, "window": 50_000,
        "with_bound": False, "out": None,
        "arrival_range": None, "success_range": None, "transmit_range": None,
    },
    "convergence": {
        "seed": 0, "lifetimes": [10, 20, 30], "agent": "r-tiny",
        "slots": 200_000, "window": 2_000, "out": None, **PAIR_DEFAULTS,
    },
    "policy-dump": {
        "seed": 0, "lifetime": 2, "slots": 200_000, "agent": "r-tiny",
        "reward": "two-level", "out": None, **PAIR_DEFAULTS,
    },
    "congestion": {
        "seed": 0, "peer_count": 1, "agent_counts": [10], "lifetime": 10,
        "agent": "r-tiny", "slots": 200_000, "window": 50_000, "out": None,
        "arrival_range": None, "success_range": None, "transmit_range": None,
    },
}


def _flags(command: str) -> dict[str, argparse.Action]:
    """The subcommand's flags by destination."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a for a in sub.choices[command]._actions}


def _expected(flag: argparse.Action, value) -> str | None:
    """None when a config-file value is one the flag itself could produce,
    else what the flag takes, in words."""
    if flag.nargs == 0:
        return None if isinstance(value, bool) else "true or false"
    kinds = {int: int, float: (int, float)}.get(flag.type, str)
    items = value if flag.nargs else [value]
    if (isinstance(items, list) and items
            and (flag.nargs == "+" or flag.nargs is None or len(items) == flag.nargs)
            and all(isinstance(v, kinds) and not isinstance(v, bool)
                    and (flag.choices is None or v in flag.choices) for v in items)):
        return None
    one, many = {int: ("an integer", "integers"), float: ("a number", "numbers")}.get(
        flag.type, ("a string", "strings"))
    if flag.nargs:
        one = f"a list of {'one or more' if flag.nargs == '+' else flag.nargs} {many}"
    return one + (f" from {', '.join(flag.choices)}" if flag.choices else "")


def _merge_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags.

    A config value must be one its flag could produce (type, arity and
    choices), or null where the flag has no default.
    """
    defaults = DEFAULTS[args.command]
    merged = dict(defaults)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RuntimeError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise RuntimeError(f"config {args.config} must hold a JSON object")
        flags = _flags(args.command)
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in merged:
                raise RuntimeError(f"config {args.config}: unknown key {key!r}")
            expected = _expected(flags[key], value)
            if expected and not (value is None and defaults[key] is None):
                raise RuntimeError(f"config {args.config}: {key!r} must be {expected}, "
                                   f"got {json.dumps(value)}")
            merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    return merged


def _out_path(opts: dict, default_name: str) -> str:
    if opts.get("out"):
        return opts["out"]
    return os.path.join(experiments.default_output_dir(), default_name)


def _pair_params(opts: dict) -> TwoDeviceParams:
    return TwoDeviceParams(
        peer_arrival=opts["peer_arrival"],
        agent_arrival=opts["agent_arrival"],
        peer_success=opts["peer_success"],
        agent_success=opts["agent_success"],
        peer_transmit=opts["peer_transmit"],
    )


def _ranges(opts: dict) -> experiments.ParamRanges:
    kwargs = {}
    for key, name in (("arrival_range", "arrival"), ("success_range", "success"),
                      ("transmit_range", "transmit")):
        if opts.get(key) is not None:
            kwargs[name] = tuple(opts[key])
    return experiments.ParamRanges(**kwargs)


def _cmd_simulate(opts: dict) -> int:
    cfg = experiments.two_device_config(
        _pair_params(opts), opts["lifetime"], opts["agent"], opts["slots"],
        seed=opts["seed"],
        agent_transmit=opts["agent_transmit"],
        reward=RewardSpec.parse(opts["reward"]),
    )
    result = run(cfg, trace=opts["trace_out"] is not None)
    if opts["trace_out"]:
        write_trace_csv(result, opts["trace_out"])
    window = opts["window"]
    print(f"throughput={result.metrics.timely_throughput(window)!r}")
    print(f"power={result.metrics.power(window)!r}")
    return 0


def _cmd_upper_bound(opts: dict) -> int:
    ignored = [f"--{key}" for key in ("seed", "out") if opts[key] is not None]
    if ignored:
        print(f"note: upper-bound ignores {' and '.join(ignored)}", file=sys.stderr)
    lifetime = opts["lifetime"]
    if lifetime > MAX_CASUAL_LIFETIME and not opts["allow_large"]:
        raise RuntimeError(
            f"lifetime {lifetime} builds a {(1 << lifetime) ** 2 * 4}-state model; "
            "pass --allow-large if you really want this"
        )
    model = build_mdp(_pair_params(opts), lifetime)
    if opts["export_lp"]:
        write_mps(bound_program(model), opts["export_lp"],
                  name=f"DCRA-D{lifetime}")
        print(f"wrote {opts['export_lp']}")
        return 0
    bound = upper_bound(model)
    print(f"bound={bound.value!r}")
    if opts["policy_out"]:
        _write_bound_policy(bound, opts["policy_out"])
        print(f"wrote {opts['policy_out']}")
    return 0


def _write_bound_policy(bound, path: str) -> None:
    model = bound.model
    majority = majority_policy(bound)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["peer_mask", "agent_mask", "observation",
                         "p_wait", "p_transmit", "majority_action"])
        for s in range(model.n_states):
            l1, l2, obs = model.decode(s)
            writer.writerow([
                l1, l2, obs,
                repr(float(bound.policy[s, 0])), repr(float(bound.policy[s, 1])),
                "TRANSMIT" if majority[(l2, obs)] else "WAIT",
            ])


def _cmd_sweep(opts: dict) -> int:
    out = _out_path(opts, "sweep.csv")
    result = experiments.run_sweep(
        groups=opts["groups"],
        lifetimes=tuple(opts["lifetimes"]),
        agents=tuple(opts["agents"]),
        seed=opts["seed"],
        slots=opts["slots"],
        window=opts["window"],
        ranges=_ranges(opts),
        with_bound=bool(opts["with_bound"]),
        out_path=out,
    )
    print(f"wrote {result.path} ({len(result.rows)} groups)")
    return 0


def _cmd_convergence(opts: dict) -> int:
    out = _out_path(opts, "convergence.csv")
    result = experiments.run_convergence(
        _pair_params(opts),
        lifetimes=tuple(opts["lifetimes"]),
        agent=opts["agent"],
        seed=opts["seed"],
        slots=opts["slots"],
        window=opts["window"],
        out_path=out,
    )
    print(f"wrote {result.path} ({len(result.rows)} windows)")
    return 0


def _cmd_policy_dump(opts: dict) -> int:
    out = _out_path(opts, "policy.csv")
    cfg = experiments.two_device_config(
        _pair_params(opts), opts["lifetime"], opts["agent"], opts["slots"],
        seed=opts["seed"], reward=RewardSpec.parse(opts["reward"]),
    )
    result = run(cfg)
    learner = next(l for l in result.learners if l is not None)
    write_policy_csv(learner, out)
    print(f"wrote {out}")
    return 0


def _cmd_congestion(opts: dict) -> int:
    out = _out_path(opts, "congestion.csv")
    result = experiments.run_congestion(
        peer_count=opts["peer_count"],
        agent_counts=tuple(opts["agent_counts"]),
        seed=opts["seed"],
        lifetime=opts["lifetime"],
        agent=opts["agent"],
        slots=opts["slots"],
        window=opts["window"],
        ranges=_ranges(opts),
        out_path=out,
    )
    print(f"wrote {result.path} ({len(result.rows)} rows)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "upper-bound": _cmd_upper_bound,
    "sweep": _cmd_sweep,
    "convergence": _cmd_convergence,
    "policy-dump": _cmd_policy_dump,
    "congestion": _cmd_congestion,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        return _COMMANDS[args.command](opts)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
