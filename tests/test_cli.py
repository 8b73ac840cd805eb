"""CLI surface: exit codes, config merging, file outputs."""

import csv
import hashlib
import json

import pytest

from dcra import experiments
from dcra.agents import RewardSpec
from dcra.cli import DEFAULTS, build_parser, main
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
    defaults = DEFAULTS["simulate"]
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


def test_upper_bound_rejects_large_lifetime(capsys):
    rc, out, err = run_cli(capsys, "upper-bound", "--lifetime", "5")
    assert rc == 1
    assert "allow-large" in err


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
