"""CLI surface: exit codes, config merging, file outputs."""

import csv
import json

import pytest

from dcra.cli import build_parser, main


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
