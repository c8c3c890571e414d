"""Harness tests: seed streams, config handling, run grids, outputs, CLI."""

import csv
import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from skycell import harness
from skycell.cli import main as cli_main
from skycell.environment import NetworkEnv
from skycell.harness import (ExperimentConfig, _eval_seeds, ccdf,
                             ensure_writable, greedy_rollout, parse_method,
                             run_experiment, stream_seed, write_outputs)


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        master_seed=9,
        cell_counts=(1, 2),
        methods=("brute_force", "mrt", "random"),
        num_seeds=2,
        eval_episodes=3,
        horizon=8,
        num_antennas=4,
        codebook_size=4,
        power_levels_dbm=(27.0, 30.0),
        ccdf_points=31,
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


@pytest.fixture(scope="module")
def tiny_run():
    cfg = _tiny_config()
    return cfg, run_experiment(cfg)


def test_stream_seed_matches_manual_hash():
    for parts in [(0, "dqn", 2, 1), ("a",), (7, "eval", 3, 0, 4)]:
        text = "/".join(str(p) for p in parts)
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        expected = int.from_bytes(digest[:8], "little")
        assert stream_seed(*parts) == expected


def test_stream_seed_deterministic_and_distinct():
    seen = {}
    for master in (0, 1):
        for method in ("brute_force", "random", "dqn"):
            for num_cells in (1, 2, 3):
                for idx in (0, 1, 2):
                    key = (master, method, num_cells, idx)
                    value = stream_seed(*key)
                    assert stream_seed(*key) == value
                    assert value not in seen, (key, seen.get(value))
                    seen[value] = key
    assert all(0 <= v < 2 ** 64 for v in seen)


def test_parse_method_names():
    assert parse_method("brute_force") == ("brute_force", None)
    assert parse_method("mrt") == ("mrt", None)
    assert parse_method("random") == ("random", None)
    # a bare learner name means the full-information reward
    assert parse_method("dqn") == ("dqn", "global_sinr")
    assert parse_method("dqn_global") == ("dqn", "global_sinr")
    assert parse_method("dqn_serving") == ("dqn", "serving_snr")
    assert parse_method("wolpertinger_measured") == ("wolpertinger",
                                                     "measured_sinr")
    assert parse_method("sequential_rsrq") == ("sequential", "rsrq")


def test_parse_method_rejects_unknown():
    for name in ("", "sinr", "dqn_bogus", "mrt_tdma", "brute_force_global",
                 "DQN"):
        with pytest.raises(ValueError):
            parse_method(name)


def test_config_validation_errors():
    bad = [
        dict(methods=()),
        dict(methods=("random", "nope")),
        dict(num_seeds=0),
        dict(seed_offset=-1),
        dict(train_episodes=0),
        dict(eval_episodes=0),
        dict(horizon=0),
        dict(ccdf_points=1),
        dict(brute_force_cap=0),
        dict(cell_counts=()),
        dict(cell_counts=(0,)),
        dict(agent={"sarsa": {}}),
        dict(user_placement="nowhere"),
        dict(los_probability=1.5),
        dict(num_antennas=0),
        # every NLoS link needs at least one scattered path
        dict(num_nlos_paths=0, los_probability=0.0),
    ]
    for overrides in bad:
        with pytest.raises(ValueError):
            _tiny_config(**overrides)
    # counts must be integers, not merely integral-looking numbers; the
    # error names the offending key
    not_integers = [
        ("codebook_size", dict(codebook_size=2.5)),
        (r"cell_counts\[0\]", dict(cell_counts=(2.5,))),
        (r"cell_counts\[1\]", dict(cell_counts=(2, 3.0))),
        (r"cell_counts\[0\]", dict(cell_counts=("2",))),
        ("horizon", dict(horizon=2.5)),
        ("train_episodes",
         dict(train_episodes=2.5, methods=("random", "dqn"))),
        ("ccdf_points", dict(ccdf_points=21.0)),
        ("num_seeds", dict(num_seeds=2.0)),
        ("seed_offset", dict(seed_offset=0.5)),
        ("eval_episodes", dict(eval_episodes=3.0)),
        ("num_antennas", dict(num_antennas=4.0)),
        ("num_nlos_paths", dict(num_nlos_paths=3.0)),
    ]
    for key, overrides in not_integers:
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            _tiny_config(**overrides)


@pytest.mark.parametrize("base", ["dqn", "wolpertinger", "sequential"])
def test_bad_agent_override_fails_before_any_work(base, monkeypatch):
    data = {"methods": ["brute_force", base], "agent": {base: {"bogus": 1}}}
    with pytest.raises(ValueError, match="bad agent override"):
        ExperimentConfig.from_dict(data)

    def no_search(*args, **kwargs):
        raise AssertionError("grid work started before validation")

    monkeypatch.setattr(harness, "brute_force_search", no_search)
    with pytest.raises(ValueError, match="bad agent override"):
        run_experiment(ExperimentConfig(**data))


@pytest.mark.parametrize("method", ["wolpertinger", "wolpertinger_rsrq"])
def test_wolpertinger_k_must_fit_every_cell_count(method, monkeypatch):
    # the default k=8 fits the 16 actions at L=2 but not the 4 at L=1
    data = {"cell_counts": [2, 1], "methods": ["brute_force", method]}
    with pytest.raises(ValueError, match=r"agent\.wolpertinger\.k=8 .* L=1"):
        ExperimentConfig.from_dict(data)
    for k in (0, 5):
        with pytest.raises(ValueError, match="agent.wolpertinger.k"):
            ExperimentConfig.from_dict(
                {**data, "agent": {"wolpertinger": {"k": k}}})
    ExperimentConfig.from_dict({**data, "agent": {"wolpertinger": {"k": 4}}})
    ExperimentConfig.from_dict({**data, "methods": ["dqn"]})

    def no_search(*args, **kwargs):
        raise AssertionError("grid work started before validation")

    monkeypatch.setattr(harness, "brute_force_search", no_search)
    with pytest.raises(ValueError, match="agent.wolpertinger.k"):
        run_experiment(ExperimentConfig(**data))


def test_config_from_dict_rejects_unknown_keys():
    data = _tiny_config().to_dict()
    data["powre_levels_dbm"] = [1.0]
    with pytest.raises(ValueError, match="powre_levels_dbm"):
        ExperimentConfig.from_dict(data)


def test_config_dict_roundtrip():
    cfg = _tiny_config(agent={"dqn": {"gamma": 0.9}})
    data = json.loads(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_dict(data)
    assert isinstance(back.methods, tuple)
    assert isinstance(back.power_levels_dbm, tuple)
    assert back.to_dict() == cfg.to_dict()


def test_ccdf_reference_points():
    samples = [1.0, 2.0, 3.0]
    assert ccdf(samples, [2.0])[0] == pytest.approx(2.0 / 3.0)
    assert ccdf(samples, [0.5])[0] == 1.0
    # the convention is P[X >= g], so a grid point ON a sample still counts it
    assert ccdf(samples, [3.0])[0] == pytest.approx(1.0 / 3.0)
    assert ccdf(samples, [3.1])[0] == 0.0
    with pytest.raises(ValueError):
        ccdf([], [0.0])


def test_ccdf_nonincreasing_on_random_samples():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=500)
    grid = np.linspace(-4.0, 4.0, 97)
    probs = ccdf(samples, grid)
    assert probs.shape == grid.shape
    assert np.all(np.diff(probs) <= 0.0)
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_eval_seeds_derivation():
    cfg = _tiny_config()
    seeds = _eval_seeds(cfg, 2, 1)
    assert seeds == [stream_seed(9, "eval", 2, 1, i) for i in range(3)]
    assert _eval_seeds(cfg, 2, 0) != seeds

    frozen = _tiny_config(freeze_channels=True)
    assert _eval_seeds(frozen, 2, 1) == [stream_seed(9, "instance", 2, 1)]
    # the derivation never involves the method, so every method is scored
    # on the same instance draws
    assert "method" not in _eval_seeds.__code__.co_varnames


def test_run_grid_is_complete(tiny_run):
    cfg, table = tiny_run
    keys = [(r["method"], r["L"], r["seed"]) for r in table.rows]
    expected = [(m, L, s) for L in cfg.cell_counts for m in cfg.methods
                for s in range(cfg.num_seeds)]
    assert sorted(keys) == sorted(expected)
    assert len(keys) == len(set(keys))
    assert table.skipped == []
    for row in table.rows:
        assert np.isfinite(row["mean_sum_rate"])
        assert row["std_sum_rate"] >= 0.0
        if row["method"] in ("brute_force", "mrt"):
            assert math.isnan(row["mean_reward"])
        else:
            assert np.isfinite(row["mean_reward"])


def test_brute_force_dominates_random_rowwise(tiny_run):
    cfg, table = tiny_run
    by_key = {(r["method"], r["L"], r["seed"]): r for r in table.rows}
    for L in cfg.cell_counts:
        for s in range(cfg.num_seeds):
            brute = by_key[("brute_force", L, s)]["mean_sum_rate"]
            rand = by_key[("random", L, s)]["mean_sum_rate"]
            assert brute >= rand * (1.0 - 1e-12)


def test_ccdf_sample_pools(tiny_run):
    cfg, table = tiny_run
    expected_keys = {(m, L) for m in cfg.methods for L in cfg.cell_counts}
    assert set(table.ccdf_samples) == expected_keys
    for (method, L), samples in table.ccdf_samples.items():
        # one SINR value per cell per evaluated episode per seed
        assert len(samples) == L * cfg.eval_episodes * cfg.num_seeds
        assert all(np.isfinite(v) for v in samples)


def test_write_outputs_contract(tiny_run, tmp_path):
    cfg, table = tiny_run
    out = tmp_path / "out"
    written = write_outputs(table, str(out), cfg)
    assert all(os.path.exists(p) for p in written)
    names = sorted(os.path.basename(p) for p in written)
    ccdf_names = sorted(f"ccdf_{m}_L{L}.csv" for (m, L) in table.ccdf_samples)
    assert names == sorted(["summary.csv", "skipped.csv", "config_echo"]
                           + ccdf_names)

    blob = (out / "summary.csv").read_bytes()
    assert b"\r" not in blob
    lines = blob.decode("utf-8").splitlines()
    assert lines[0] == "method,L,seed,mean_sum_rate,std_sum_rate,mean_reward"
    assert len(lines) == 1 + len(table.rows)
    for line, row in zip(lines[1:], table.rows):
        cells = next(csv.reader([line]))
        assert cells[0] == row["method"]
        assert int(cells[1]) == row["L"]
        assert int(cells[2]) == row["seed"]
        # full-precision round trip through the text form
        assert float(cells[3]) == row["mean_sum_rate"]
        assert float(cells[4]) == row["std_sum_rate"]
        if math.isnan(row["mean_reward"]):
            assert math.isnan(float(cells[5]))
        else:
            assert float(cells[5]) == row["mean_reward"]

    for (method, L), samples in table.ccdf_samples.items():
        path = out / f"ccdf_{method}_L{L}.csv"
        blob = path.read_bytes()
        assert b"\r" not in blob
        lines = blob.decode("utf-8").splitlines()
        assert lines[0] == "sinr_db,ccdf"
        assert len(lines) == 1 + cfg.ccdf_points
        grid = np.array([float(next(csv.reader([l]))[0]) for l in lines[1:]])
        probs = np.array([float(next(csv.reader([l]))[1]) for l in lines[1:]])
        arr = np.asarray(samples)
        assert grid[0] == math.floor(arr.min()) - 1.0
        assert grid[-1] == math.ceil(arr.max()) + 1.0
        assert probs[0] == 1.0
        assert probs[-1] == 0.0
        assert np.all(np.diff(probs) <= 0.0)

    echoed = json.loads((out / "config_echo").read_text())
    assert echoed == cfg.to_dict()


def test_rerun_is_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        cfg = _tiny_config(cell_counts=(2,), num_seeds=1, eval_episodes=2)
        table = run_experiment(cfg)
        out = tmp_path / tag
        write_outputs(table, str(out), cfg)
        paths.append(out)
    first, second = paths
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_seed_offset_shards_add_up_to_the_unsharded_run(tmp_path):
    grid = dict(cell_counts=(2,), methods=("random", "brute_force", "dqn"),
                train_episodes=2,
                agent={"dqn": {"hidden": (8,), "batch_size": 4,
                               "train_start": 8}})

    def summary_rows(tag, **overrides):
        cfg = _tiny_config(**grid, **overrides)
        out = tmp_path / tag
        write_outputs(run_experiment(cfg), str(out), cfg)
        return (out / "summary.csv").read_text().splitlines()

    whole = summary_rows("whole", num_seeds=2)
    shards = [summary_rows(f"shard{k}", num_seeds=1, seed_offset=k)
              for k in range(2)]
    assert all(rows[0] == whole[0] for rows in shards)

    def grid_order(line):
        method, num_cells, seed = line.split(",")[:3]
        return (grid["cell_counts"].index(int(num_cells)),
                grid["methods"].index(method), int(seed))

    merged = sorted(shards[0][1:] + shards[1][1:], key=grid_order)
    assert len(merged) == 6
    assert merged == whole[1:]


def test_config_echo_reproduces_run(tiny_run, tmp_path):
    cfg, table = tiny_run
    out = tmp_path / "echo"
    write_outputs(table, str(out), cfg)
    reloaded = ExperimentConfig.from_dict(
        json.loads((out / "config_echo").read_text()))
    again = run_experiment(reloaded)
    assert again.rows == table.rows


def test_brute_cap_skips_and_continues(tmp_path):
    cfg = _tiny_config(cell_counts=(2,), methods=("brute_force", "random"),
                       brute_force_cap=10)
    table = run_experiment(cfg)
    assert [r["method"] for r in table.rows] == ["random", "random"]
    assert len(table.skipped) == cfg.num_seeds
    for entry in table.skipped:
        assert entry["method"] == "brute_force"
        assert entry["L"] == 2
    out = tmp_path / "capped"
    write_outputs(table, str(out), cfg)
    lines = (out / "skipped.csv").read_text().splitlines()
    assert lines[0] == "method,L,seed,reason"
    assert len(lines) == 1 + cfg.num_seeds


def test_ensure_writable(tmp_path):
    target = tmp_path / "fresh" / "nested"
    ensure_writable(str(target))
    assert target.is_dir()
    assert list(target.iterdir()) == []

    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(OSError):
        ensure_writable(str(blocker / "out"))


def test_greedy_rollout_best_visited_step():
    cfg = _tiny_config(cell_counts=(1,))
    env = NetworkEnv(cfg.env_config(1, "global_sinr"))
    rng = np.random.default_rng(5)
    actions = [rng.integers(0, 2, size=2) for _ in range(cfg.horizon)]

    calls = {"i": 0}

    def act_fn(features):
        action = actions[calls["i"]]
        calls["i"] += 1
        return action

    record = greedy_rollout(env, act_fn, episode_seed=77)
    assert calls["i"] == cfg.horizon

    # independent replay of the same action tape
    env.reset(77)
    best_rate = -math.inf
    best_sinr_db = None
    total = 0.0
    for action in actions:
        out = env.step(action)
        if out.info["sum_rate"] > best_rate:
            best_rate = out.info["sum_rate"]
            best_sinr_db = 10.0 * np.log10(np.maximum(out.info["sinr"],
                                                      1e-300))
        total += out.reward
    assert record["best_rate"] == best_rate
    assert np.array_equal(record["sinr_db"], best_sinr_db)
    assert record["episode_reward"] == total


def _write_config(tmp_path, **overrides):
    data = _tiny_config(**overrides).to_dict()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, cell_counts=(1,), num_seeds=1,
                             eval_episodes=2, horizon=5,
                             methods=("brute_force", "random"))
    out = tmp_path / "results"
    rc = cli_main(["run", "--config", cfg_path, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "2 result rows" in captured.out
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_method_and_seed_overrides(tmp_path):
    cfg_path = _write_config(tmp_path, cell_counts=(1,), num_seeds=2,
                             eval_episodes=2, horizon=5)
    out = tmp_path / "results"
    rc = cli_main(["run", "--config", cfg_path, "--out", str(out),
                   "--methods", "random", "--seed-offset", "7"])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "summary.csv")))
    assert [r["method"] for r in rows] == ["random", "random"]
    assert [int(r["seed"]) for r in rows] == [7, 8]


def test_cli_error_is_json_line(tmp_path, capsys):
    data = _tiny_config().to_dict()
    data["no_such_key"] = 1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "never"
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    message = json.loads(captured.err.strip())
    assert message["error"] == "ValueError"
    assert "no_such_key" in message["message"]
    assert not out.exists()


def test_cli_bad_method_override_fails(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    rc = cli_main(["run", "--config", cfg_path, "--out",
                   str(tmp_path / "o"), "--methods", "bogus"])
    captured = capsys.readouterr()
    assert rc == 2
    assert json.loads(captured.err.strip())["error"] == "ValueError"


def test_cli_unwritable_out_fails_before_training(tmp_path, capsys):
    # a huge training budget: if the CLI only fails after training, this
    # test times out instead of finishing in well under ten seconds
    cfg_path = _write_config(tmp_path, methods=("dqn",), train_episodes=10 ** 6)
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    start = time.monotonic()
    rc = cli_main(["run", "--config", cfg_path, "--out",
                   str(blocker / "out")])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert elapsed < 10.0
    assert json.loads(captured.err.strip())["error"]
    assert captured.out == ""


def test_cli_usage_errors_exit_nonzero(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["run"])  # missing --config
    with pytest.raises(SystemExit):
        cli_main(["frobnicate"])
