"""CLI surface: exit codes, config merging, file outputs."""

import csv
import hashlib
import json
import os
import re

import pytest

from dcra import cli, experiments, mdp
from dcra.agents import RewardSpec
from dcra.cli import build_parser, main
from dcra.core import write_csv
from dcra.env import write_trace_csv
from dcra.mdp import TwoDeviceParams
from oracles import reference_run


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            pairs[k] = v
    return pairs


def test_parser_knows_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    names = set(actions[0].choices)
    assert names == {
        "simulate", "upper-bound", "sweep", "convergence",
        "policy-dump", "congestion",
    }


def test_simulate_prints_metrics(capsys):
    rc, out, err = run_cli(
        capsys, "simulate", "--slots", "3000", "--lifetime", "1",
        "--agent", "blind", "--agent-transmit", "0.3", "--seed", "7",
    )
    assert rc == 0 and err == ""
    kv = parse_kv(out)
    assert 0.0 <= float(kv["throughput"]) <= 1.0
    assert 0.0 <= float(kv["power"]) <= 2.0


def test_simulate_trace_output(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rc, out, _ = run_cli(
        capsys, "simulate", "--slots", "50", "--trace-out", str(trace),
    )
    assert rc == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 51
    assert rows[0][0] == "slot"


def test_simulate_trace_matches_reference_run(capsys, tmp_path):
    # the CLI trace goes through run(); the slot-by-slot reference on the
    # same scenario must write the same bytes
    trace = tmp_path / "trace.csv"
    rc, _, err = run_cli(
        capsys, "simulate", "--agent", "r-hol", "--lifetime", "3", "--slots", "3000",
        "--seed", "5", "--trace-out", str(trace),
    )
    assert rc == 0 and err == ""
    defaults = vars(build_parser().parse_args(["simulate"]))
    params = TwoDeviceParams(*(defaults[k] for k in (
        "peer_arrival", "agent_arrival", "peer_success", "agent_success", "peer_transmit")))
    cfg = experiments.two_device_config(params, 3, "r-hol", 3000, seed=5,
                                        reward=RewardSpec.parse(defaults["reward"]))
    reference = tmp_path / "reference.csv"
    write_trace_csv(reference_run(cfg, trace=True), str(reference))
    assert trace.read_bytes() == reference.read_bytes()


def test_upper_bound_reference_value(capsys):
    rc, out, err = run_cli(
        capsys, "upper-bound", "--lifetime", "1",
        "--peer-arrival", "0.5", "--agent-arrival", "0.4",
        "--peer-success", "0.7", "--agent-success", "0.6",
        "--peer-transmit", "0.4",
    )
    assert rc == 0 and err == ""
    assert float(parse_kv(out)["bound"]) == pytest.approx(0.276, abs=1e-9)


def test_upper_bound_notes_ignored_flags(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "upper-bound", "--lifetime", "1", "--seed", "3")
    assert rc == 0 and "bound=" in out
    assert err == "note: upper-bound ignores --seed\n"
    rc, out, err = run_cli(
        capsys, "upper-bound", "--lifetime", "1", "--seed", "3",
        "--out", str(tmp_path / "unused.csv"),
    )
    assert rc == 0
    assert err == "note: upper-bound ignores --seed and --out\n"
    assert not (tmp_path / "unused.csv").exists()


def test_simulate_notes_ignored_out(capsys, tmp_path):
    argv = ("simulate", "--lifetime", "1", "--slots", "500", "--seed", "3")
    rc, plain, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "unused.csv"))
    assert rc == 0 and out == plain
    assert err == "note: simulate ignores --out\n"
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (("--agent", "r-tiny", "--agent-transmit", "0.3"), "transmit_prob only applies"),
    (("--agent", "blind", "--agent-transmit", "0.3", "--reward", "multi-level"),
     "reward only applies"),
])
def test_simulate_rejects_flags_its_agent_cannot_use(capsys, argv, message):
    rc, out, err = run_cli(capsys, "simulate", "--slots", "100", *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--window", "0", "--slots", "1000"),
    ("sweep", "--window", "0", "--slots", "1000"),
    ("convergence", "--window", "3000", "--slots", "1000"),
    ("congestion", "--window", "3000", "--slots", "1000", "--agent-counts", "3"),
])
def test_window_is_checked_before_any_run(capsys, tmp_path, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(experiments, "_run_all", no_run)
    monkeypatch.setenv("DCRA_OUTPUT_DIR", str(tmp_path))
    rc, out, err = run_cli(capsys, *argv)
    window = argv[argv.index("--window") + 1]
    assert rc == 1 and out == ""
    assert err == f"error: window {window} outside [1, 1000]\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("simulate", "--trace-out", "{missing}/t.csv"),
    ("upper-bound", "--lifetime", "1", "--policy-out", "{missing}/p.csv"),
    ("upper-bound", "--lifetime", "1", "--export-lp", "{missing}/b.mps"),
    ("sweep", "--out", "{missing}/s.csv"),
    ("sweep",),  # the default path, under a missing DCRA_OUTPUT_DIR
    ("convergence", "--out", "{missing}/c.csv"),
    ("policy-dump", "--out", "{missing}/p.csv"),
    ("congestion", "--out", "{missing}/g.csv"),
    ("congestion", "--out", "{dir}"),
])
def test_output_paths_are_checked_before_any_run(capsys, tmp_path, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append("run"))
    monkeypatch.setattr(cli, "build_mdp", lambda *a, **k: calls.append("build_mdp"))
    monkeypatch.setattr(experiments, "_run_all", lambda *a, **k: calls.append("_run_all"))
    missing = tmp_path / "missing"
    monkeypatch.setenv("DCRA_OUTPUT_DIR", str(missing))
    argv = [arg.format(missing=missing, dir=tmp_path) for arg in argv]
    path = argv[-1] if len(argv) > 1 else str(missing / "sweep.csv")
    with pytest.raises(RuntimeError) as written:
        write_csv(path, ["x"], [])  # the error a write at the end would raise
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == "" and calls == []
    assert err == f"error: {written.value}\n"
    assert str(written.value).startswith(f"cannot write {path}: ")
    assert list(tmp_path.iterdir()) == []


def _subparsers() -> dict:
    return next(a for a in build_parser()._actions if a.dest == "command").choices


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_help_shows_what_each_command_runs_with(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    values = vars(build_parser().parse_args([command]))
    actions = [a for a in _subparsers()[command]._actions if a.dest != "help"]
    # each flag's entry runs from its name in the options list to the next flag's
    starts, pos = [], text.index(" options: ")
    for action in actions:
        pos = re.compile(rf" {re.escape(action.option_strings[0])}[ ,]").search(text, pos).start()
        starts.append(pos)
    for action, start, end in zip(actions, starts, starts[1:] + [len(text)]):
        assert f"(default: {values[action.dest]})" in text[start:end], action.dest


# a tiny run of each command that takes an agent kind, the kind going last
TINY_AGENT_RUNS = {
    "simulate": ("--lifetime", "1", "--slots", "100", "--agent"),
    "sweep": ("--groups", "1", "--lifetimes", "1", "--slots", "100", "--window", "50",
              "--agents"),
    "convergence": ("--lifetimes", "1", "--slots", "100", "--window", "50", "--agent"),
    "policy-dump": ("--lifetime", "1", "--slots", "100", "--agent"),
    "congestion": ("--agent-counts", "1", "--lifetime", "1", "--slots", "100", "--window",
                   "50", "--agent"),
}


def _agent_choices() -> list[tuple[str, str]]:
    return [(command, kind) for command, sub in sorted(_subparsers().items())
            for action in sub._actions if action.dest in ("agent", "agents")
            for kind in action.choices]


@pytest.mark.parametrize("command, kind", _agent_choices())
def test_every_agent_choice_runs(capsys, tmp_path, monkeypatch, command, kind):
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
    argv = [command, *TINY_AGENT_RUNS[command], kind]
    if command == "simulate":
        argv += ["--agent-transmit", "0.3"] if kind == "blind" else []
    else:
        argv += ["--out", str(tmp_path / "out.csv")]
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""


def test_upper_bound_rejects_large_lifetime(capsys):
    rc, out, err = run_cli(capsys, "upper-bound", "--lifetime", "7")
    assert rc == 1 and out == ""
    assert err == "error: lifetime 7 needs a 16 GiB kernel, over the 1 GiB one array may take\n"


def test_upper_bound_lifetime_5_needs_no_flag(capsys):
    rc, out, err = run_cli(capsys, "upper-bound", "--lifetime", "5")
    assert rc == 0 and err == ""
    assert round(float(parse_kv(out)["bound"]), 6) == 0.346631


def test_upper_bound_policy_export(capsys, tmp_path):
    out_path = tmp_path / "pol.csv"
    rc, _, _ = run_cli(
        capsys, "upper-bound", "--lifetime", "1", "--policy-out", str(out_path),
    )
    assert rc == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["peer_mask", "agent_mask", "observation",
                       "p_wait", "p_transmit", "majority_action"]
    assert len(rows) == 1 + 16  # lifetime 1: 2*2 masks x 4 observations
    for row in rows[1:]:
        assert row[5] in ("WAIT", "TRANSMIT")
        assert float(row[3]) + float(row[4]) == pytest.approx(1.0, abs=1e-9)
    assert "np.float64" not in out_path.read_text()


def test_upper_bound_mps_export(capsys, tmp_path):
    mps = tmp_path / "bound.mps"
    rc, out, _ = run_cli(
        capsys, "upper-bound", "--lifetime", "1", "--export-lp", str(mps),
    )
    assert rc == 0
    text = mps.read_text()
    assert text.startswith("*")
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"):
        assert section in text


# sha256 of the MPS and policy CSV at the default point; both are written
# from Python floats (%.12E and repr), so no BLAS build moves a byte
BOUND_GOLDEN = {
    1: ("3b5bb9b25ae01bb966f47adf7364993ed92f9354dc430eff8e71092f4d1d708d",
        "be02271d62669653f3d0ffadb014811fc6d7c067b3025cb18830c4f02397d9c0"),
    2: ("32042f20de6713c2bb565949bffcc71da3758e2b98f0eaad268776fe78d69d4f",
        "533be6a9a35d9e8b9e9f0fc6497656e6369a28f9c9a1adba4976610026fef661"),
    3: ("479aab2aea8c8200307ba18935d5e0cc242a91c64b4c50104c86aeb695f93321",
        "5abc35ccd2439524573c2d1f708b1d1d13ccfe2f5cca10c17e070cd62e34e1a6"),
}


@pytest.mark.parametrize("lifetime", sorted(BOUND_GOLDEN))
def test_upper_bound_outputs_are_pinned(capsys, tmp_path, lifetime):
    mps, policy = tmp_path / "bound.mps", tmp_path / "policy.csv"
    rc, _, _ = run_cli(capsys, "upper-bound", "--lifetime", str(lifetime),
                       "--export-lp", str(mps))
    assert rc == 0
    rc, _, _ = run_cli(capsys, "upper-bound", "--lifetime", str(lifetime),
                       "--policy-out", str(policy))
    assert rc == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (mps, policy))
    assert digests == BOUND_GOLDEN[lifetime]


@pytest.mark.parametrize("lifetime", sorted(BOUND_GOLDEN))
def test_upper_bound_writes_every_output_asked_for(capsys, tmp_path, lifetime):
    mps, policy = tmp_path / "bound.mps", tmp_path / "policy.csv"
    rc, out, err = run_cli(capsys, "upper-bound", "--lifetime", str(lifetime),
                           "--export-lp", str(mps), "--policy-out", str(policy))
    assert rc == 0 and err == ""
    bound, *wrote = out.splitlines()
    assert bound.startswith("bound=") and wrote == [f"wrote {mps}", f"wrote {policy}"]
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (mps, policy))
    assert digests == BOUND_GOLDEN[lifetime]


@pytest.mark.parametrize("lifetime", sorted(BOUND_GOLDEN))
def test_upper_bound_exports_the_lp_without_the_dense_matrix(capsys, tmp_path, monkeypatch,
                                                               lifetime):
    def refuse(*_):
        raise AssertionError("the export built the dense LP")

    monkeypatch.setattr(mdp, "bound_program", refuse)
    monkeypatch.setattr(mdp.TwoDeviceModel, "transitions", property(refuse))
    mps = tmp_path / "bound.mps"
    rc, _, err = run_cli(capsys, "upper-bound", "--lifetime", str(lifetime),
                         "--export-lp", str(mps))
    assert rc == 0 and err == ""
    assert hashlib.sha256(mps.read_bytes()).hexdigest() == BOUND_GOLDEN[lifetime][0]


def test_upper_bound_mps_at_lifetime_4_is_pinned(capsys, tmp_path):
    mps = tmp_path / "bound.mps"
    rc, _, _ = run_cli(capsys, "upper-bound", "--lifetime", "4", "--export-lp", str(mps))
    assert rc == 0
    assert (hashlib.sha256(mps.read_bytes()).hexdigest()
            == "3665f34d5e681b4fbffb41029092785b051a8ad6d991396c48ce802b5f19d8ca")


# sha256 of each simulation command's output file at small sizes and fixed
# seeds; sweep runs without --with-bound, whose last bits go through
# np.linalg.solve and so depend on the BLAS build
SIMULATION_GOLDEN = {
    "simulate": (
        ("simulate", "--agent", "r-full", "--lifetime", "3", "--slots", "3000",
         "--reward", "multi-level", "--seed", "5", "--trace-out"),
        "dc3069fb60dedad579c62161e77171ea0f5554daa2e5cb2104119c05a7920844",
    ),
    "policy-dump": (
        ("policy-dump", "--agent", "q-hol", "--lifetime", "3", "--slots", "3000",
         "--seed", "3", "--out"),
        "2625830f5ba4e8ce5504f892015fab02441335b12ca8675ac50635c3dcfb3031",
    ),
    "convergence": (
        ("convergence", "--agent", "r-full", "--lifetimes", "1", "3", "--slots", "4000",
         "--window", "1000", "--seed", "2", "--out"),
        "0dbaf77d423ed5d3c11755df2e6e4062e736554bb6070c4fe9f20a11967418d2",
    ),
    "congestion": (
        ("congestion", "--peer-count", "1", "--agent-counts", "2", "3", "--lifetime", "3",
         "--slots", "3000", "--window", "1000", "--seed", "4", "--out"),
        "30934e6bc0e9704f25bd12e77b2417a666d62ad2a0b873e9d1548d515fb5fa4c",
    ),
    "sweep": (
        ("sweep", "--groups", "2", "--lifetimes", "1", "2", "--agents", "r-tiny", "q-full",
         "blind", "--slots", "2000", "--window", "1000", "--seed", "1", "--out"),
        "7ee01ab23e8d7381ff59f7aa124f3558917cb5addb7e3fbb2cdbf6e5b9a2a231",
    ),
}


@pytest.mark.parametrize("command", sorted(SIMULATION_GOLDEN))
def test_simulation_outputs_are_pinned(capsys, tmp_path, command):
    argv, digest = SIMULATION_GOLDEN[command]
    out = tmp_path / "out.csv"
    rc, _, err = run_cli(capsys, *argv, str(out))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run_cli(
        capsys, "sweep", "--groups", "2", "--lifetimes", "1",
        "--agents", "blind", "--slots", "2000", "--window", "1000",
        "--out", str(out_path),
    )
    assert rc == 0
    assert str(out_path) in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + 2 groups + mean
    assert rows[0][0] == "group"


def test_convergence_default_out_respects_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DCRA_OUTPUT_DIR", str(tmp_path))
    rc, out, _ = run_cli(
        capsys, "convergence", "--lifetimes", "1", "--slots", "4000",
        "--window", "2000",
    )
    assert rc == 0
    assert (tmp_path / "convergence.csv").exists()


def test_policy_dump_writes_learner_table(capsys, tmp_path):
    out_path = tmp_path / "policy.csv"
    rc, _, _ = run_cli(
        capsys, "policy-dump", "--slots", "2000", "--agent", "r-tiny",
        "--lifetime", "2", "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# rho=")
    assert lines[1] == "abstraction,payload,observation,action,q_wait,q_transmit"
    assert len(lines) == 2 + 8  # tiny abstraction: 2 x 4 states


def test_congestion_writes_rows(capsys, tmp_path):
    out_path = tmp_path / "cong.csv"
    rc, _, _ = run_cli(
        capsys, "congestion", "--peer-count", "1", "--agent-counts", "2",
        "--lifetime", "2", "--slots", "3000", "--window", "1000",
        "--out", str(out_path),
    )
    assert rc == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header, baseline, one agent count


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "lifetime": 1, "slots": 2000, "agent": "blind",
        "agent-transmit": 0.5, "seed": 3,
    }))
    rc1, out1, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    rc2, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--seed", "4")
    rc3, out3, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out3  # deterministic under the config seed
    assert out1 != out2  # flag overrode the config seed


def test_config_number_runs_as_its_flag_type(capsys, tmp_path):
    # an integer in the file is the float the flag would parse
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"peer_arrival": 1}))
    argv = ("convergence", "--lifetimes", "1", "--slots", "4000", "--window", "2000")
    rc1, _, _ = run_cli(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "a.csv"))
    rc2, _, _ = run_cli(capsys, *argv, "--peer-arrival", "1", "--out", str(tmp_path / "b.csv"))
    assert rc1 == rc2 == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert rc == 1
    assert "no_such_option" in err


@pytest.mark.parametrize("command, options, key", [
    ("sweep", {"lifetimes": 2}, "lifetimes"),
    ("sweep", {"lifetimes": []}, "lifetimes"),
    ("sweep", {"agents": []}, "agents"),
    ("sweep", {"agents": ["r-tiny", "sarsa"]}, "agents"),
    ("sweep", {"arrival-range": [0.1]}, "arrival_range"),
    ("sweep", {"with_bound": "yes"}, "with_bound"),
    ("simulate", {"slots": "100"}, "slots"),
    ("simulate", {"seed": True}, "seed"),
    ("simulate", {"lifetime": None}, "lifetime"),
    ("simulate", {"reward": 1}, "reward"),
    ("upper-bound", {"lifetime": 2.5}, "lifetime"),
    ("congestion", {"agent_counts": [10, 2.0]}, "agent_counts"),
])
def test_config_value_must_fit_its_flag(capsys, tmp_path, command, options, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(options))
    rc, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err


def test_config_accepts_what_its_flags_would(capsys, tmp_path):
    # an integer where a float flag is expected, null where the default is null
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({
        "peer_arrival": 1, "window": None, "slots": 200, "lifetime": 1, "seed": 2,
    }))
    rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert rc == 0 and err == ""


def test_study_rejects_empty_or_negative_inputs(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "congestion", "--agent-counts", "-2",
                         "--out", str(tmp_path / "cong.csv"))
    assert rc == 1 and err.startswith("error:") and "agent_counts" in err
    assert not (tmp_path / "cong.csv").exists()


def test_congestion_writes_the_baseline_once(capsys, tmp_path):
    out_path = tmp_path / "cong.csv"
    rc, out, _ = run_cli(
        capsys, "congestion", "--peer-count", "1", "--agent-counts", "0", "2",
        "--lifetime", "2", "--slots", "3000", "--window", "1000",
        "--out", str(out_path),
    )
    assert rc == 0 and "2 rows" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    agent_count = rows[0].index("agent_count")
    assert [row[agent_count] for row in rows[1:]] == ["0", "2"]


@pytest.mark.parametrize("argv, name", [
    (("congestion", "--agent-counts", "2", "2"), "agent_counts"),
    (("sweep", "--agents", "blind", "blind", "--lifetimes", "1"), "agents"),
    (("sweep", "--agents", "blind", "--lifetimes", "1", "1"), "lifetimes"),
    (("convergence", "--lifetimes", "1", "1", "--slots", "4000", "--window", "2000"),
     "lifetimes"),
])
def test_study_rejects_repeated_inputs(capsys, tmp_path, argv, name):
    out_path = tmp_path / "out.csv"
    rc, _, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1
    assert f"{name} repeats" in err
    assert not out_path.exists()


def test_config_unreadable_or_malformed(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "simulate", "--config",
                         str(tmp_path / "missing.json"))
    assert rc == 1 and "missing.json" in err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert rc == 1 and "broken.json" in err


def test_invalid_parameter_is_diagnosed_not_raised(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--peer-arrival", "1.5",
                         "--slots", "100")
    assert rc == 1
    assert err.startswith("error:")


def test_unwritable_output_path(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys, "sweep", "--groups", "1", "--lifetimes", "1",
        "--agents", "blind", "--slots", "1000", "--window", "1000",
        "--out", str(tmp_path / "nope" / "deep" / "sweep.csv"),
    )
    assert rc == 1
    assert "sweep.csv" in err


@pytest.mark.parametrize("argv", [
    ("policy-dump", "--slots", "200", "--out"),
    ("simulate", "--slots", "50", "--trace-out"),
    ("upper-bound", "--lifetime", "1", "--policy-out"),
])
def test_write_failure_is_one_cannot_write_line(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.csv"
    rc, _, err = run_cli(capsys, *argv, str(path))
    assert rc == 1
    assert err.startswith(f"error: cannot write {path}: [Errno 2] ")
    assert err.count("\n") == 1
    assert not path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_export_lp_write_failure_names_its_path(capsys):
    # /dev/full passes the check before the run; only the write itself fails
    rc, _, err = run_cli(capsys, "upper-bound", "--lifetime", "1", "--export-lp", "/dev/full")
    assert rc == 1
    assert err == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


def test_congestion_has_no_transmit_range(capsys, tmp_path):
    # congestion draws only arrival and success probabilities, so a transmit
    # range, as a flag or as a config key, is an error and nothing runs
    out = tmp_path / "cong.csv"
    argv = ["congestion", "--slots", "3000", "--window", "1000", "--agent-counts", "2",
            "--out", str(out)]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--transmit-range", "0.9", "0.9"])
    assert exit_.value.code != 0
    assert "--transmit-range" in capsys.readouterr().err
    cfg = tmp_path / "cong.json"
    cfg.write_text(json.dumps({"transmit_range": [0.9, 0.9]}))
    rc, out_text, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert rc == 1 and out_text == ""
    assert err == f"error: config {cfg}: unknown key 'transmit_range'\n"
    assert not out.exists()


def test_blind_agent_accepts_the_unshifted_reward_in_either_spelling(capsys):
    argv = ("simulate", "--agent", "blind", "--agent-transmit", "0.3", "--slots", "100")
    rc, plain, err = run_cli(capsys, *argv, "--reward", "two-level")
    assert rc == 0 and err == ""
    rc, out, err = run_cli(capsys, *argv, "--reward", "two-level-shifted:0")
    assert rc == 0 and err == ""
    assert out == plain
