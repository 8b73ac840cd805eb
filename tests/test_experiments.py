"""Experiment orchestration: sampling, sweeps, CSV reproducibility."""

import concurrent.futures
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcra
from dcra import experiments
from dcra.agents import RewardSpec
from dcra.core import DeviceParams
from dcra.env import AgentSpec, DeviceSetup, ScenarioConfig, run
from dcra.experiments import (
    PARAM_COLUMNS,
    ParamRanges,
    default_output_dir,
    run_congestion,
    run_convergence,
    run_sweep,
    sample_params,
    simulate_two_device,
    two_device_config,
)
from dcra.mdp import TwoDeviceParams


def test_param_ranges_validation():
    with pytest.raises(ValueError):
        ParamRanges(arrival=(0.5, 0.2))
    with pytest.raises(ValueError):
        ParamRanges(transmit=(-0.1, 0.5))


def test_sample_params_respects_ranges():
    ranges = ParamRanges(arrival=(0.3, 0.4), success=(0.6, 0.7), transmit=(0.2, 0.25))
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = sample_params(ranges, rng)
        assert 0.3 <= p.peer_arrival <= 0.4
        assert 0.3 <= p.agent_arrival <= 0.4
        assert 0.6 <= p.peer_success <= 0.7
        assert 0.6 <= p.agent_success <= 0.7
        assert 0.2 <= p.peer_transmit <= 0.25


def test_sample_params_degenerate_range_is_constant():
    ranges = ParamRanges(arrival=(0.5, 0.5), success=(0.8, 0.8), transmit=(0.3, 0.3))
    p = sample_params(ranges, np.random.default_rng(0))
    assert p.as_tuple() == (0.5, 0.5, 0.8, 0.8, 0.3)


def test_sample_params_draw_order_matches_tuple_order():
    # five sequential uniforms, scaled into their ranges in tuple order
    ranges = ParamRanges()
    raw = np.random.default_rng(123).random(5)
    p = sample_params(ranges, np.random.default_rng(123))
    lo, hi = ranges.arrival
    assert p.peer_arrival == pytest.approx(lo + (hi - lo) * raw[0], abs=1e-15)
    assert p.agent_arrival == pytest.approx(lo + (hi - lo) * raw[1], abs=1e-15)
    lo, hi = ranges.success
    assert p.peer_success == pytest.approx(lo + (hi - lo) * raw[2], abs=1e-15)
    assert p.agent_success == pytest.approx(lo + (hi - lo) * raw[3], abs=1e-15)
    lo, hi = ranges.transmit
    assert p.peer_transmit == pytest.approx(lo + (hi - lo) * raw[4], abs=1e-15)


def test_default_output_dir_env(monkeypatch):
    monkeypatch.delenv("DCRA_OUTPUT_DIR", raising=False)
    assert default_output_dir() == "."
    monkeypatch.setenv("DCRA_OUTPUT_DIR", "/tmp/out")
    assert default_output_dir() == "/tmp/out"


def test_simulate_two_device_blind_matches_closed_form():
    # lone always-full sender at lifetime 1: throughput = pt * ps
    params = TwoDeviceParams(
        peer_arrival=1.0,
        agent_arrival=0.0,
        peer_success=0.5,
        agent_success=0.5,
        peer_transmit=0.4,
    )
    thr, power = simulate_two_device(
        params, lifetime=1, agent="blind", slots=100_000, seed=5,
        agent_transmit=0.0,
    )
    assert thr == pytest.approx(0.2, abs=0.005)
    assert power == pytest.approx(0.4, abs=0.005)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    result = run_sweep(
        groups=3,
        lifetimes=(1, 2),
        agents=("r-tiny", "blind"),
        seed=42,
        slots=4_000,
        window=1_000,
        with_bound=True,
        out_path=str(path),
    )
    return result, path


class TestRunSweep:
    def test_row_count_and_header(self, sweep):
        result, _ = sweep
        assert len(result.rows) == 6  # 3 groups x 2 lifetimes
        assert result.header[1:9] == PARAM_COLUMNS
        assert "throughput_r-tiny" in result.header
        assert "bound" in result.header

    def test_throughputs_in_unit_interval(self, sweep):
        result, _ = sweep
        for name in ("throughput_r-tiny", "throughput_blind", "bound"):
            for v in result.column(name):
                assert 0.0 <= v <= 1.0

    def test_bound_dominates_with_slack(self, sweep):
        # short runs, so allow generous simulation noise on top of the bound
        result, _ = sweep
        bounds = result.column("bound")
        for name in ("throughput_r-tiny", "throughput_blind"):
            for b, t in zip(bounds, result.column(name)):
                assert t <= b + 0.05

    def test_aggregate_is_exact_column_mean(self, sweep):
        result, _ = sweep
        for j, name in enumerate(result.header):
            if name == "group":
                assert result.aggregate[j] == "mean"
                continue
            vals = [row[j] for row in result.rows]
            assert result.aggregate[j] == float(np.mean(vals))

    def test_csv_roundtrip_and_byte_identical_rerun(self, sweep, tmp_path):
        result, path = sweep
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == result.header
        assert len(rows) == 8  # header + 6 groups + aggregate
        assert rows[-1][0] == "mean"
        # every float round-trips exactly
        assert float(rows[1][result.header.index("bound")]) == result.rows[0][
            result.header.index("bound")
        ]
        again = tmp_path / "again.csv"
        run_sweep(
            groups=3,
            lifetimes=(1, 2),
            agents=("r-tiny", "blind"),
            seed=42,
            slots=4_000,
            window=1_000,
            with_bound=True,
            out_path=str(again),
        )
        assert again.read_bytes() == path.read_bytes()

    def test_different_seed_changes_params(self, sweep):
        result, _ = sweep
        other = run_sweep(
            groups=1, lifetimes=(1,), agents=("blind",), seed=43,
            slots=1_000, window=1_000,
        )
        assert other.rows[0][1] != result.rows[0][1]


def test_run_sweep_rejects_bad_shape():
    with pytest.raises(ValueError):
        run_sweep(groups=0, lifetimes=(1,), agents=("blind",), seed=1)
    with pytest.raises(ValueError):
        run_sweep(groups=1, lifetimes=(1,), agents=("blind",), seed=1,
                  slots=100, window=200)


@pytest.mark.parametrize("empty", ["lifetimes", "agents"])
def test_run_sweep_rejects_empty_inputs(empty):
    shape = dict(groups=1, lifetimes=(1,), agents=("blind",), seed=1,
                 slots=1_000, window=1_000)
    with pytest.raises(ValueError, match=empty):
        run_sweep(**{**shape, empty: ()})


@pytest.mark.parametrize("repeated", [{"lifetimes": (2, 1, 2)}, {"agents": ("blind", "blind")}])
def test_run_sweep_rejects_repeated_inputs(repeated):
    shape = dict(groups=1, lifetimes=(1,), agents=("blind",), seed=1,
                 slots=1_000, window=1_000)
    (name, values), = repeated.items()
    with pytest.raises(ValueError, match=rf"{name} repeats {values[0]}"):
        run_sweep(**{**shape, **repeated})


def test_run_convergence_rejects_repeated_lifetimes():
    with pytest.raises(ValueError, match=r"lifetimes repeats 1"):
        run_convergence(TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4), lifetimes=(1, 2, 1),
                        agent="r-tiny", seed=0, slots=2_000, window=1_000)


def test_run_sweep_failed_group_reports_seed():
    with pytest.raises(RuntimeError, match=r"\(seed \(9, 1, 0\)\)"):
        run_sweep(groups=1, lifetimes=(1,), agents=("no-such-agent",), seed=9,
                  slots=1_000, window=1_000)


def test_run_sweep_refuses_an_oversized_bound_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "_run_all", no_run)
    with pytest.raises(RuntimeError, match=r"^group 0 at lifetime 7 \(seed \(9, 7, 0\)\) "
                                           r"failed: lifetime 7 needs a 2 GiB policy system"):
        run_sweep(groups=2, lifetimes=(7,), agents=("r-tiny", "blind"), seed=9,
                  slots=1_000, window=1_000, with_bound=True)


def test_run_convergence_series_shape(tmp_path):
    params = TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)
    path = tmp_path / "conv.csv"
    result = run_convergence(
        params, lifetimes=(1, 2), agent="r-tiny", seed=3,
        slots=10_000, window=2_000, out_path=str(path),
    )
    assert len(result.rows) == 10  # 5 windows per lifetime
    slots_col = result.column("slot")
    assert slots_col[:5] == [2_000, 4_000, 6_000, 8_000, 10_000]
    for v in result.column("throughput"):
        assert isinstance(v, float)
        assert 0.0 <= v <= 1.0
    text = path.read_text()
    assert "np.float64" not in text  # numpy 2 repr must not leak into CSV
    with open(path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 11


def test_run_convergence_rejects_short_horizon():
    params = TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)
    with pytest.raises(ValueError):
        run_convergence(params, lifetimes=(1,), agent="r-tiny", seed=0,
                        slots=100, window=200)


def test_run_convergence_rejects_empty_lifetimes():
    params = TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)
    with pytest.raises(ValueError, match="lifetimes"):
        run_convergence(params, lifetimes=(), agent="r-tiny", seed=0,
                        slots=1_000, window=1_000)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    path = tmp_path_factory.mktemp("cong") / "congestion.csv"
    result = run_congestion(
        peer_count=1,
        agent_counts=(2,),
        seed=11,
        lifetime=3,
        slots=20_000,
        window=5_000,
        out_path=str(path),
    )
    return result, path


class TestCongestion:
    def test_baseline_matches_lone_aloha_rate(self, study):
        # one saturated peer alone: pt=0.25, ps=0.5 -> 0.125 deliveries/slot
        result, _ = study
        assert result.rows[0][result.header.index("agent_count")] == 0
        thr = result.rows[0][result.header.index("throughput_r-tiny")]
        assert thr == pytest.approx(0.125, abs=0.01)
        assert thr == result.rows[0][result.header.index("throughput_blind")]

    def test_agent_rows_have_joined_params(self, study):
        result, _ = study
        row = result.rows[1]
        arrivals = row[result.header.index("agent_arrivals")].split(";")
        assert len(arrivals) == 2
        for a in arrivals:
            assert 0.1 <= float(a) <= 1.0

    def test_power_bounded_by_device_count(self, study):
        result, _ = study
        for row in result.rows:
            n = 1 + row[result.header.index("agent_count")]
            assert 0.0 <= row[result.header.index("power_r-tiny")] <= n

    def test_rerun_byte_identical(self, study, tmp_path):
        _, path = study
        again = tmp_path / "again.csv"
        run_congestion(
            peer_count=1, agent_counts=(2,), seed=11, lifetime=3,
            slots=20_000, window=5_000, out_path=str(again),
        )
        assert again.read_bytes() == path.read_bytes()


def test_run_congestion_rejects_zero_peers():
    with pytest.raises(ValueError):
        run_congestion(peer_count=0, agent_counts=(1,), seed=0)


def test_run_congestion_rejects_negative_agent_count():
    with pytest.raises(ValueError, match="agent_counts"):
        run_congestion(peer_count=1, agent_counts=(2, -2), seed=0)


def test_run_congestion_zero_count_names_the_baseline(study, tmp_path):
    result, path = study
    again = tmp_path / "again.csv"
    named = run_congestion(
        peer_count=1, agent_counts=(0, 2), seed=11, lifetime=3,
        slots=20_000, window=5_000, out_path=str(again),
    )
    assert named.rows == result.rows
    assert [row[named.header.index("agent_count")] for row in named.rows] == [0, 2]
    assert again.read_bytes() == path.read_bytes()
    # the baseline stays the first row wherever the 0 stands
    moved = run_congestion(peer_count=1, agent_counts=(2, 0), seed=11, lifetime=3,
                           slots=20_000, window=5_000)
    assert moved.rows == result.rows


def test_run_congestion_checks_window_before_running(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "_run_all", no_run)
    with pytest.raises(ValueError, match=r"^window 300000 outside \[1, 200000\]$"):
        run_congestion(peer_count=1, agent_counts=(3,), seed=0, slots=200_000,
                       window=300_000)


@pytest.mark.parametrize("counts", [(2, 2), (0, 3, 0), (1, 2, 1)])
def test_run_congestion_rejects_repeated_agent_count(counts):
    with pytest.raises(ValueError, match=rf"agent_counts repeats {counts[0]}"):
        run_congestion(peer_count=1, agent_counts=counts, seed=0)


# small shapes with at least two runs each, so _run_all starts a pool
SWEEP = dict(groups=2, lifetimes=(1, 2), agents=("r-tiny", "blind"), seed=42,
             slots=3_000, window=1_000)
CONGESTION = dict(peer_count=1, agent_counts=(2,), seed=11, lifetime=3,
                  slots=4_000, window=1_000)


@pytest.fixture
def pools(monkeypatch):
    """Two CPUs whatever the host has; the list collects every pool started."""
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started


@pytest.fixture
def one_cpu(monkeypatch):
    """An affinity mask of one CPU, and no pool allowed to start."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started with one CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


class TestParallelRuns:
    """Runs on worker processes give what they give one by one in-process."""

    def test_sweep_rows_equal_runs_one_by_one(self, pools):
        result = run_sweep(**SWEEP)
        assert len(pools) == 1
        ranges = ParamRanges()
        seed = SWEEP["seed"]
        for row in result.rows:
            g, lifetime = row[0], row[6]
            rng = np.random.default_rng(np.random.SeedSequence((seed, lifetime, g)))
            params = sample_params(ranges, rng)
            aloha = ranges._draw(rng, "transmit")
            assert row[1:6] == list(params.as_tuple())
            want = []
            for agent in SWEEP["agents"]:
                want += simulate_two_device(
                    params, lifetime, agent, SWEEP["slots"], seed=(seed, lifetime, g),
                    window=SWEEP["window"],
                    agent_transmit=aloha if agent == "blind" else None)
            assert row[9:] == want

    def test_congestion_rows_equal_runs_one_by_one(self, pools):
        result = run_congestion(**CONGESTION)
        assert len(pools) == 1
        seed, window = CONGESTION["seed"], CONGESTION["window"]
        ranges = ParamRanges()
        peer = DeviceSetup(DeviceParams(1.0, 0.5, transmit_prob=0.25), AgentSpec.blind())
        for row, count in zip(result.rows, (0, 2)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, count)))
            pairs = [(ranges._draw(rng, "arrival"), ranges._draw(rng, "success"))
                     for _ in range(count)]
            assert row[8:10] == [";".join(repr(a) for a, _ in pairs),
                                 ";".join(repr(s) for _, s in pairs)]
            arms = [AgentSpec.learner("r-tiny", RewardSpec.multi_level())]
            if count:
                arms.append(AgentSpec.blind(1.0 / count))
            want = []
            for spec in arms:
                newcomers = tuple(DeviceSetup(DeviceParams(a, s), spec) for a, s in pairs)
                cfg = ScenarioConfig(lifetime=CONGESTION["lifetime"], horizon=CONGESTION["slots"],
                                     seed=(seed, count), devices=(peer,) + newcomers)
                m = run(cfg).metrics
                want += [m.timely_throughput(window), m.power(window)]
            assert row[-4:] == (want if count else want * 2)

    def test_convergence_series_equal_runs_one_by_one(self, pools):
        params = TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)
        result = run_convergence(params, lifetimes=(1, 3), agent="r-hol", seed=3,
                                 slots=4_000, window=1_000)
        assert len(pools) == 1
        want = []
        for lifetime in (1, 3):
            cfg = two_device_config(params, lifetime, "r-hol", 4_000, seed=(3, lifetime))
            want += run(cfg).metrics.throughput_series(1_000).tolist()
        assert result.column("throughput") == want

    def test_spawned_workers_write_the_in_process_bytes(self, one_cpu, tmp_path):
        # the start method of Python >= 3.14 on Linux and of macOS pickles
        # every task and imports the workers afresh; the bytes must not change
        run_sweep(**SWEEP, out_path=str(tmp_path / "sweep.csv"))
        run_congestion(**CONGESTION, out_path=str(tmp_path / "congestion.csv"))
        spawned = tmp_path / "spawned"
        spawned.mkdir()
        script = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from dcra import experiments\n"
            "experiments._cpu_count = lambda: 2\n"
            f"experiments.run_sweep(**{SWEEP!r}, out_path=sys.argv[1] + '/sweep.csv')\n"
            f"experiments.run_congestion(**{CONGESTION!r},"
            " out_path=sys.argv[1] + '/congestion.csv')\n"
        )
        src = str(Path(dcra.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script, str(spawned)], check=True,
                       timeout=300, env=dict(os.environ, PYTHONPATH=path))
        for name in ("sweep.csv", "congestion.csv"):
            assert (spawned / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_failure_in_a_worker_names_its_seed(self, pools, monkeypatch):
        # a horizon shorter than the sweep's window passes the config checks
        # and raises on the worker, when the run's metrics take that window
        def failing_at_group_1(params, lifetime, agent, slots, seed, **kwargs):
            cfg = two_device_config(params, lifetime, agent, slots, seed, **kwargs)
            if seed != (9, 2, 1):
                return cfg
            return ScenarioConfig(lifetime=lifetime, horizon=10, seed=seed,
                                  devices=cfg.devices)

        monkeypatch.setattr(experiments, "two_device_config", failing_at_group_1)
        with pytest.raises(RuntimeError, match=r"^group 1 at lifetime 2 \(seed \(9, 2, 1\)\) "
                                               r"failed: window 1000 outside \[1, 10\]") as err:
            run_sweep(groups=2, lifetimes=(1, 2), agents=("r-tiny",), seed=9,
                      slots=1_000, window=1_000)
        assert len(pools) == 1
        assert isinstance(err.value.__cause__, ValueError)
        # the remote traceback is attached where the run raised in a worker
        assert "_RemoteTraceback" in type(err.value.__cause__.__cause__).__name__
