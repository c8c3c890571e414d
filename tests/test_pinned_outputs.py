"""Pinned bytes of whole `skycell run`s: geometry, channels, baselines,
every learner and the output writers, end to end.

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


# every trained learner on tiny nets; k=4 lets Wolpertinger run at L=1, and a
# small target_sync makes the target nets resync within the run
LEARNER_CONFIG = {
    "master_seed": 5,
    "cell_counts": [1, 2, 3],
    "methods": ["dqn", "dqn_measured", "wolpertinger", "sequential_rsrq"],
    "num_seeds": 2,
    "train_episodes": 6,
    "eval_episodes": 2,
    "horizon": 8,
    "num_antennas": 4,
    "codebook_size": 4,
    "power_levels_dbm": [27.0, 28.0, 29.0, 30.0],
    "ccdf_points": 21,
    "agent": {
        "dqn": {"hidden": [8], "batch_size": 4, "train_start": 4,
                "target_sync": 5},
        "wolpertinger": {"hidden": [8], "batch_size": 4, "train_start": 4,
                         "k": 4},
        "sequential": {"hidden": [8], "batch_size": 4, "train_start": 4,
                       "target_sync": 5},
    },
}

LEARNER_PINNED = {
    "ccdf_dqn_L1.csv":
        "6ce0d743630fc1c2aaa0d59ceec2d4e0e0ae5b616cbabdc28d56ffb8e0cef9af",
    "ccdf_dqn_L2.csv":
        "fa2cc9bc2a236efc5e631d33fa7dcf4bda0a3f29cfabde43948d9d888cf3d93e",
    "ccdf_dqn_L3.csv":
        "b57b6a67e9d9c2c7c8a721e77f156301396a64f7ad0fb95c734879dccef5244f",
    "ccdf_dqn_measured_L1.csv":
        "57ccbe2081e07ac22000012362604c3471ea0b50147a397ad8e1dfab82585330",
    "ccdf_dqn_measured_L2.csv":
        "95b7fe362ad49932a93749632c72f4f4af0c301846c20ec1d46356fff58b4789",
    "ccdf_dqn_measured_L3.csv":
        "6b9644a60b7a0ebba7d20593932af6dec549e09fb0a4d358f30f7b8b5f66a872",
    "ccdf_sequential_rsrq_L1.csv":
        "d57f553ea62bfee34c2d9e4f0a6050472ab094ac01de8f5b88a27828381ea4c4",
    "ccdf_sequential_rsrq_L2.csv":
        "5b68dbe1b5f36a8d9dfa4812b30e5fe26f9e9e3201b0f0c99852a6503b2677e3",
    "ccdf_sequential_rsrq_L3.csv":
        "e697a779d916f9f28a4ae6bb3fb631744011747f77680fdf99b25f1dcafb83a2",
    "ccdf_wolpertinger_L1.csv":
        "28b566ee5e14caae61a582ec979dc818da8511aeca3ea874e4c4ae8ec839f4dc",
    "ccdf_wolpertinger_L2.csv":
        "5aa6284d37a4f41b763828ed230b4e51572068b87ce2c8ca5fe752ed64d01e13",
    "ccdf_wolpertinger_L3.csv":
        "7398bc52619672b17a428d754df858ff1288e4c231d527893b5780350dfa2d8a",
    "skipped.csv":
        "d713b08b7eef340de79d6cecb1a3c5dc2cf1322364600b627c39ba478efc8d73",
    "summary.csv":
        "fb387363e9701cb9378104e6e011dc58bb71d731bd91dfe9f3e782dc49672294",
}


def run_digests(tmp_path, config=CONFIG) -> dict:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "config_echo"}


def test_fixed_run_writes_the_pinned_bytes(tmp_path):
    assert run_digests(tmp_path) == PINNED


def test_fixed_learner_run_writes_the_pinned_bytes(tmp_path):
    assert run_digests(tmp_path, LEARNER_CONFIG) == LEARNER_PINNED
