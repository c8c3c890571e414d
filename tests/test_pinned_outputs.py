"""Pinned bytes of a whole `skycell run`: geometry, channels, baselines,
a learner and the output writers, end to end.

A change that is meant to keep every output byte-identical must keep these
digests. A change that alters outputs on purpose updates them and says why.
"""

import hashlib
import json

from skycell.cli import main as cli_main

CONFIG = {
    "master_seed": 3,
    "cell_counts": [1, 2, 3, 5],
    "methods": ["brute_force", "mrt", "random", "sequential"],
    "num_seeds": 2,
    "train_episodes": 3,
    "eval_episodes": 3,
    "horizon": 8,
    "num_antennas": 4,
    "codebook_size": 4,
    "power_levels_dbm": [27.0, 28.0, 29.0, 30.0],
    # 16^5 joint configurations at L=5 exceed it: those cells are skipped
    "brute_force_cap": 5000,
    "ccdf_points": 21,
    "agent": {"sequential": {"episodes_per_agent": 1, "hidden": [8],
                             "batch_size": 4, "train_start": 4,
                             "order_metric": "min_distance"}},
}

# sha256 of every output file but config_echo
PINNED = {
    "ccdf_brute_force_L1.csv":
        "e983c84abac7fc6707de3bbadfbc2b51b4eda27c385fc63d8709c8f2a4b312c3",
    "ccdf_brute_force_L2.csv":
        "b65c23a35012bfcae06cca2c2101fcdf374461578d50f5f3debb86173996b0c4",
    "ccdf_brute_force_L3.csv":
        "8ea199d4b5293e376b5377dee519dbf0ed0cc62213aa21072958dbddba96985b",
    "ccdf_mrt_L1.csv":
        "e983c84abac7fc6707de3bbadfbc2b51b4eda27c385fc63d8709c8f2a4b312c3",
    "ccdf_mrt_L2.csv":
        "abebf1e3928de2ed2fc3a58c7e715654364c15de7b19cde351a6b5505537464e",
    "ccdf_mrt_L3.csv":
        "6207436eb2c759dd118e939417a05afdb43cf4002019dca049f5be23e973d6d8",
    "ccdf_mrt_L5.csv":
        "68718d08505cc52b3735111f6a34f6ae7ac4ce69ed2c3f011345459eeaaabb6d",
    "ccdf_random_L1.csv":
        "b0dad1c0474e9e40ec0c58778b92d1b1caa8a8f936a33eb8dea0675b2ffd66b7",
    "ccdf_random_L2.csv":
        "5aa9afdb41c1ef047aaa0ac2a609a333f82c9eca39a5e760231e8ed8739bbb9e",
    "ccdf_random_L3.csv":
        "d34a620c8259031319d4939313c97ce266a051a57d3b9541bae476bc45900250",
    "ccdf_random_L5.csv":
        "b0a037f5ee9f6d5f6d7c86ec758a6c81865b008261198cd1099ece41a203d4a3",
    "ccdf_sequential_L1.csv":
        "c238215d56583553ed5a1a990744621ff69a03c33d980468ea8046fad7486d9a",
    "ccdf_sequential_L2.csv":
        "16c223d616301eabd15f2ae4a2431403ed319c91991bf4683540c187cae31187",
    "ccdf_sequential_L3.csv":
        "b7950bf63209482a898d3474ad184e2aa1f45b7a6401e2dbcd2df4f335fbf4f1",
    "ccdf_sequential_L5.csv":
        "50f59bbb2b455d72f0b9782c4764979ab9ac74a4a32275cd3007092b437de81f",
    "skipped.csv":
        "82a2db534dad380792575544590771d6e82facb65942c9bfac6af55d652cd9b7",
    "summary.csv":
        "39adc25b68829377f47a782a83edea260602a19d9f5ee2294d401626f1e7a866",
}


def run_digests(tmp_path) -> dict:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "config_echo"}


def test_fixed_run_writes_the_pinned_bytes(tmp_path):
    assert run_digests(tmp_path) == PINNED
