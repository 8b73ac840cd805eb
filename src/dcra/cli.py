"""Command-line entry points.

Each option declares its default once, in its parser; `dcra <cmd> --help`
lists them all.  Every subcommand accepts an optional --config JSON file whose
keys mirror the flag names (dashes or underscores).  Its values are checked
against their flags, converted by each flag's type and installed as the
subcommand's defaults, so the precedence is built-in defaults < config file <
explicit flags.  Output paths default into the directory named by
DCRA_OUTPUT_DIR (falling back to the working directory), and each is checked
for writing before any model is built or any slot runs.  A bound that needs
an array over mdp.MAX_ARRAY_BYTES (1 GiB) fails before any solve or slot.
The process exits 0 on success and nonzero after printing one diagnostic
line to stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields

from . import experiments
from .agents import LEARNER_KINDS, RewardSpec, write_policy_csv
from .core import write_csv
from .env import check_window, run, write_trace_csv
from .mdp import TwoDeviceParams, build_mdp, majority_policy, upper_bound, write_mps

__all__ = ["main"]

LEARNER_CHOICES = tuple(sorted(LEARNER_KINDS))
AGENT_KINDS = ("blind",) + LEARNER_CHOICES


def _add_common(parser: argparse.ArgumentParser, seed: int | None = 0) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with defaults for this subcommand")
    parser.add_argument("--seed", type=int, default=seed, help="master seed")
    parser.add_argument("--out", metavar="FILE", help="output CSV path")


def _add_pair_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--peer-arrival", type=float, default=0.5,
                        help="peer packet arrival probability")
    parser.add_argument("--agent-arrival", type=float, default=0.4,
                        help="agent packet arrival probability")
    parser.add_argument("--peer-success", type=float, default=0.7,
                        help="peer decode probability when alone")
    parser.add_argument("--agent-success", type=float, default=0.6,
                        help="agent decode probability when alone")
    parser.add_argument("--peer-transmit", type=float, default=0.4,
                        help="peer blind transmit probability")


def _add_ranges(parser: argparse.ArgumentParser, *names: str) -> None:
    """A --<name>-range flag for each named ParamRanges field."""
    defaults = experiments.ParamRanges()
    for name in names:
        parser.add_argument(f"--{name}-range", nargs=2, type=float,
                            metavar=("LO", "HI"), default=list(getattr(defaults, name)),
                            help=f"uniform range of the drawn {name} probabilities")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcra",
        description="Deadline-constrained random access: simulator, solvers, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and print its metrics")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetime", type=int, default=2, help="packet lifetime in slots")
    p.add_argument("--slots", type=int, default=200_000, help="horizon")
    p.add_argument("--window", type=int,
                   help="report over the last WINDOW slots, or over all of them")
    p.add_argument("--agent", choices=AGENT_KINDS, default="r-tiny",
                   help="tracked device policy")
    p.add_argument("--agent-transmit", type=float,
                   help="transmit probability when --agent blind")
    p.add_argument("--reward", default="two-level", help='learner reward: "two-level", '
                   '"two-level-shifted:<c>" or "multi-level"')
    p.add_argument("--trace-out", metavar="FILE", help="write a per-slot trace CSV")

    p = sub.add_parser("upper-bound", help="exact two-device bound by policy iteration")
    _add_common(p, seed=None)
    _add_pair_params(p)
    p.add_argument("--lifetime", type=int, default=2, help="packet lifetime in slots")
    p.add_argument("--policy-out", metavar="FILE",
                   help="write the bound-achieving policy as CSV")
    p.add_argument("--export-lp", metavar="FILE",
                   help="write the LP in fixed-field MPS format")

    p = sub.add_parser("sweep", help="random-group comparison across agents")
    _add_common(p)
    _add_ranges(p, "arrival", "success", "transmit")
    p.add_argument("--groups", type=int, default=20, help="sampled parameter groups")
    p.add_argument("--lifetimes", nargs="+", type=int, default=[1, 2, 3],
                   help="lifetimes to sweep")
    p.add_argument("--agents", nargs="+", choices=AGENT_KINDS, default=["r-tiny", "blind"],
                   help="agent kinds to compare")
    p.add_argument("--slots", type=int, default=200_000, help="horizon per run")
    p.add_argument("--window", type=int, default=50_000, help="evaluation window")
    p.add_argument("--with-bound", action=argparse.BooleanOptionalAction, default=False,
                   help="add the exact bound column")

    p = sub.add_parser("convergence", help="windowed-throughput series for one agent")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetimes", nargs="+", type=int, default=[10, 20, 30],
                   help="lifetimes to run")
    p.add_argument("--agent", choices=LEARNER_CHOICES, default="r-tiny", help="learner kind")
    p.add_argument("--slots", type=int, default=200_000, help="horizon")
    p.add_argument("--window", type=int, default=2_000, help="series window")

    p = sub.add_parser("policy-dump", help="train a learner, dump its greedy policy")
    _add_common(p)
    _add_pair_params(p)
    p.add_argument("--lifetime", type=int, default=2, help="packet lifetime in slots")
    p.add_argument("--slots", type=int, default=200_000, help="horizon")
    p.add_argument("--agent", choices=LEARNER_CHOICES, default="r-tiny", help="learner kind")
    p.add_argument("--reward", default="two-level", help="learner reward spec")

    p = sub.add_parser("congestion", help="saturated-peer study over agent counts")
    _add_common(p)
    _add_ranges(p, "arrival", "success")
    p.add_argument("--peer-count", type=int, default=1, help="saturated legacy devices")
    p.add_argument("--agent-counts", nargs="+", type=int, default=[10],
                   help="newcomer counts to try")
    p.add_argument("--lifetime", type=int, default=10, help="packet lifetime in slots")
    p.add_argument("--agent", choices=LEARNER_CHOICES, default="r-tiny", help="learner kind")
    p.add_argument("--slots", type=int, default=200_000, help="horizon per run")
    p.add_argument("--window", type=int, default=50_000, help="evaluation window")

    for p in sub.choices.values():
        p.formatter_class = argparse.ArgumentDefaultsHelpFormatter
    return parser


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


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The config file at `path` as defaults for the subcommand `parser`.

    A value must be one its flag could produce (type, arity and choices), or
    null where the flag's default is null; numbers take the flag's type.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise RuntimeError(f"config {path} must hold a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if key not in flags:
            raise RuntimeError(f"config {path}: unknown key {key!r}")
        flag = flags[key]
        if value is not None or flag.default is not None:
            expected = _expected(flag, value)
            if expected:
                raise RuntimeError(f"config {path}: {key!r} must be {expected}, "
                                   f"got {json.dumps(value)}")
            if flag.type:
                value = [flag.type(v) for v in value] if flag.nargs else flag.type(value)
        defaults[key] = value
    return defaults


def _parse(argv: list[str] | None) -> dict:
    """Built-in defaults < config file < explicit flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
        sub.set_defaults(**_config_defaults(args.config, sub))
        args = parser.parse_args(argv)
    return vars(args)


def _note_ignored(opts: dict, *keys: str) -> None:
    ignored = [f"--{key}" for key in keys if opts[key] is not None]
    if ignored:
        print(f"note: {opts['command']} ignores {' and '.join(ignored)}", file=sys.stderr)


def _check_writable(*paths: str | None) -> None:
    """Fail now, with write_csv's message, on an output path that cannot be
    written, so that no run is spent before the write fails; creates no file.
    An empty path has no parent, so it fails as opening it would."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(path) or path and os.curdir
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not (os.access(path, os.W_OK) if os.path.exists(path)
                  else os.access(parent, os.W_OK | os.X_OK)):
            code = errno.EACCES
        else:
            continue
        exc = OSError(code, os.strerror(code), path)
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _out_path(opts: dict, default_name: str) -> str:
    """The command's --out, else default_name in the output directory; checked."""
    path = opts["out"]
    if path is None:
        path = os.path.join(experiments.default_output_dir(), default_name)
    _check_writable(path)
    return path


def _pair_params(opts: dict) -> TwoDeviceParams:
    return TwoDeviceParams(**{f.name: opts[f.name] for f in fields(TwoDeviceParams)})


def _ranges(opts: dict) -> experiments.ParamRanges:
    """ParamRanges from the command's range flags; a range it has none for
    keeps its default."""
    return experiments.ParamRanges(**{f.name: tuple(opts[f"{f.name}_range"])
                                      for f in fields(experiments.ParamRanges)
                                      if f"{f.name}_range" in opts})


def _cmd_simulate(opts: dict) -> int:
    _note_ignored(opts, "out")
    trace_out = opts["trace_out"]
    _check_writable(trace_out)
    cfg = experiments.two_device_config(
        _pair_params(opts), opts["lifetime"], opts["agent"], opts["slots"],
        seed=opts["seed"],
        agent_transmit=opts["agent_transmit"],
        reward=RewardSpec.parse(opts["reward"]),
    )
    window = opts["window"]
    if window is not None:
        check_window(window, cfg.horizon)
    result = run(cfg, trace=trace_out is not None)
    if trace_out is not None:
        write_trace_csv(result, trace_out)
    print(f"throughput={result.metrics.timely_throughput(window)!r}")
    print(f"power={result.metrics.power(window)!r}")
    return 0


def _cmd_upper_bound(opts: dict) -> int:
    _note_ignored(opts, "seed", "out")
    lp, policy = opts["export_lp"], opts["policy_out"]
    _check_writable(lp, policy)
    if None not in (lp, policy) and os.path.realpath(lp) == os.path.realpath(policy):
        raise RuntimeError(f"--export-lp {lp} and --policy-out {policy} name one file")
    model = build_mdp(_pair_params(opts), opts["lifetime"])
    bound = upper_bound(model)
    print(f"bound={bound.value!r}")
    if lp is not None:
        write_mps(model, lp)
        print(f"wrote {lp}")
    if policy is not None:
        _write_bound_policy(bound, policy)
        print(f"wrote {policy}")
    return 0


def _write_bound_policy(bound, path: str) -> None:
    majority = majority_policy(bound)
    rows = []
    for pair, transmit in enumerate(bound.transmit.tolist()):
        l1, l2 = divmod(pair, bound.model.masks)
        rows += [[l1, l2, obs, float(not transmit), float(transmit),
                  "TRANSMIT" if majority[(l2, obs)] else "WAIT"] for obs in range(4)]
    write_csv(path, ["peer_mask", "agent_mask", "observation",
                     "p_wait", "p_transmit", "majority_action"], rows)


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
        with_bound=opts["with_bound"],
        out_path=out,
    )
    print(f"wrote {out} ({len(result.rows)} groups)")
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
    print(f"wrote {out} ({len(result.rows)} windows)")
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
    print(f"wrote {out} ({len(result.rows)} rows)")
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
    try:
        opts = _parse(argv)
        return _COMMANDS[opts["command"]](opts)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
