"""Pinned trajectory fingerprints of all five drivers.

Each fingerprint is the sha256 of a run's transcript JSONL followed by its
final head and block parameter bytes.  Any change to a random draw, to the
order of the draws, to the arithmetic of a step or to the wire format moves
it, so a refactor or speedup that claims to keep every trajectory bit for bit
must leave these hashes alone.

The linear+logistic head has no parameters (d0 = 0), so only the mlp +
softmax_fcn set-ups draw server directions; only the exponential set-up
draws compute times; only the mlp_odim2 set-up gives each party two outputs,
so only it checks that party m's values sit at columns (m-1)k..mk-1 of the
server's flat head input.

The row pins hash a run's metrics CSV and its per-party activation counts.
They pin what the trajectory hashes do not: when rows are logged (q = 3 does
not divide eval_every, so synrevel's rounds straddle the evaluation points),
when the stop rule fires, and the bytes, staleness and gnorm2 columns.
"""

import hashlib

import numpy as np
import pytest

from revelight.cli import make_synthetic, synthetic_pair
from revelight.engine import ALGORITHMS, RunConfig, matched_schedule, run_algorithm, run_asyrevel
from revelight.models import GlobalModel, LocalModel, PartitionedDataset

_RUN = dict(q=4, T=400, tau=3, latency=0.6, latency_dist="uniform", seed=4,
            eta=5e-3, eta_server=1e-3, lam_eff=1e-5, eval_every=100)

SETUPS = {
    "linear_logistic": ("linear", {}),
    "mlp_softmax": ("mlp", {}),
    "mlp_softmax_exp_straggler": ("mlp", dict(compute_dist="exponential", straggler=(2, 1.5))),
    "mlp_odim2": ("mlp_odim2", {}),
}

# computed before the streams were re-addressed in place
PINNED = {
    ("linear_logistic", "asyrevel_gau"): "7d5aaffd50b8bf6beac73a2751000381bc4b9aba6f01a5cd1c4fc3c52ad485a0",
    ("linear_logistic", "asyrevel_uni"): "6a57b0485979184946f9764b005af1bb5b385a26001a77a3102085264edc6799",
    ("linear_logistic", "synrevel"): "a23b19857c76f4007a89e94260e3cb702c50a0c5390e0a48630c0ab2302b6693",
    ("linear_logistic", "nonfed"): "29e08064831379dca8756c255e0bf6f86a89348c26ec630bcb5c04ee8133b7b2",
    ("linear_logistic", "tig"): "6e64613c8447493790b787d2d5eb5e5e57616fe89ce963b934ad254fb5dab49a",
    ("mlp_softmax", "asyrevel_gau"): "6cb604ff467c83b65561e1952e7a7fc2c8974399dfd50ed5f887bb904a41f12c",
    ("mlp_softmax", "asyrevel_uni"): "df37290d9cb94c19ca7f90761527cc5989591dd99c41f017c3fe5e36ed16592c",
    ("mlp_softmax", "synrevel"): "b6c8c420e0a43911f9fc71a0fb7a695486607452cf0accf3ae4327ca48bbab76",
    ("mlp_softmax", "nonfed"): "75f773f8a308712d1a1461b844b9f785a4f931c6833915d3326b5215c92c7b4d",
    ("mlp_softmax", "tig"): "04e418adfda5dec09db6bf31956eafbd2a82bca14a02bdfe12d67aace29c3cad",
    ("mlp_softmax_exp_straggler", "asyrevel_gau"): "034b836de48941cf65054e212b1a365e681f230ecdc812e9d026a7a3cb55bdeb",
    ("mlp_softmax_exp_straggler", "asyrevel_uni"): "bfdfac598848a51688ae049086bbfc5f61798a0d88078ade5f1e1fd58df630aa",
    ("mlp_softmax_exp_straggler", "synrevel"): "e209821c6235b2614d42db93f54dfd1f6d4b6f40ffc8c8606eb91909e1f55c45",
    ("mlp_softmax_exp_straggler", "nonfed"): "4ec76c4a547ab4fcf45128646959aaf15637e5e5d09a9897fd4bbadf8ebfd83c",
    ("mlp_softmax_exp_straggler", "tig"): "21e01956c6de1a74f536a576e90698839fe4554fdbb32b4030291e937b57d1c7",
    # computed before the server cache became one contiguous matrix
    ("mlp_odim2", "asyrevel_gau"): "37d2c29e9fcb74c6f3ea2e94fa02767f12c6cbb1e7ee78e33c113227f10e7879",
    ("mlp_odim2", "asyrevel_uni"): "5fe1134f6c2da16f5c5ff5a69028f3d1f141f079b311ee8d75963279e8e52d50",
    ("mlp_odim2", "synrevel"): "b4bc8dda9d982f3d3c4b9cb8d7fb452e988bc1c56c0ba40f14cf6ac947415bbb",
    ("mlp_odim2", "nonfed"): "9bf011fb19020a164345fab10d6c60a8d802219a1799868f964219725a326a7f",
    ("mlp_odim2", "tig"): "340a9b6d96102743a789ba9bd22cd4c702959ea287f4a6b389a004fece515942",
}


def _problem(kind: str):
    X, y = make_synthetic("noisy", 256, 16, seed=4)
    if kind == "linear":
        data = PartitionedDataset.from_matrix(X, y, [4, 4, 4, 4])
        return data, LocalModel(), GlobalModel(kind="logistic", q=4)
    data = PartitionedDataset.from_matrix(X, ((y + 1) // 2).astype(int), [4, 4, 4, 4])
    sizes = (8, 1) if kind == "mlp" else (5, 2)
    return (data, LocalModel(kind="mlp", layer_sizes=sizes),
            GlobalModel(kind="softmax_fcn", q=4, party_output_dim=sizes[-1], classes=2))


def fingerprint(setup: str, algorithm: str, workdir) -> str:
    kind, extra = SETUPS[setup]
    data, lm, gm = _problem(kind)
    metrics = run_algorithm(RunConfig(algorithm=algorithm, **_RUN, **extra), data, lm, gm)
    h = hashlib.sha256()
    if metrics.transcript is not None:
        path = workdir / "fingerprint.jsonl"
        metrics.transcript.to_jsonl(path)
        h.update(path.read_bytes())
    h.update(np.asarray(metrics.final_w0, dtype=np.float64).tobytes())
    for wm in metrics.final_w:
        h.update(np.asarray(wm, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("setup", SETUPS)
def test_trajectory_fingerprint(setup, algorithm, tmp_path):
    assert fingerprint(setup, algorithm, tmp_path) == PINNED[setup, algorithm]


_ROWS_RUN = dict(q=3, T=200, tau=2, latency=0.6, latency_dist="uniform", seed=7,
                 eta=0.05, eta_server=0.01)

ROW_CASES = {
    "every5": dict(eval_every=5),
    "stop": dict(eval_every=7, stop_loss=0.62, compute_dist="exponential", straggler=(2, 1.5)),
}

# computed before the recorder took over evaluation cadence and update counts
ROWS_PINNED = {
    ("every5", "asyrevel_gau"): "3ffa513783fc763d5a946e4daba90761a7140e748fc11f52c51c312aec016349",
    ("every5", "asyrevel_uni"): "c83cb8254448bfc1d2ac8f215527fe4e006474962cc25b4386936dad8d5dc362",
    ("every5", "synrevel"): "8668a53808e2f55339d2c2635166e97965ef46687f7ab1958076207c93cb5bf5",
    ("every5", "nonfed"): "3b0c7957173c16a3ee92c08e45dc500da1c11d19265edfeca1914aa004a6f39b",
    ("every5", "tig"): "0ca402617d784c140bce6b2277b35d3c7306af27851c316feebda214cb829290",
    ("every5", "asyrevel_gau_replay"): "a533a7e6029a50a55cd94777f74328c0cbc5ea96c49f8240a29f5e7085a2b80c",
    ("stop", "asyrevel_gau"): "405d0f3a5ba31ba2cf4d16181f42375eb41f32466eddb8d446f1be00d60fd71e",
    ("stop", "asyrevel_uni"): "409ad6e003d319bdc6e8d5b1a8fd3de624d740b1113b2eec2bd92bbaf1618199",
    ("stop", "synrevel"): "ed50bb846bd8a0574e250409a542294ab4ff3616bfbf481a9beed1fcbc72c07c",
    ("stop", "nonfed"): "a27ad096d54d74f3ec352e6791ef89478ed031a9391bc130d18c7ac70136a5e0",
    ("stop", "tig"): "e6a87317fc96f44c3ba93fb11e0c6dbb025d27254a83e90e5c960c0033fa13a1",
    ("stop", "asyrevel_gau_replay"): "4377a613312df40c8c68eac044ccad09a0891c54d461b7ea50642bbb557dff3f",
}


def rows_fingerprint(case: str, algorithm: str, workdir, replay: bool = False) -> str:
    train, test = synthetic_pair("noisy", 60, 40, 9, 3, 7)
    lm, gm = LocalModel(), GlobalModel(kind="logistic", q=3)
    cfg = RunConfig(algorithm=algorithm, **_ROWS_RUN, **ROW_CASES[case])
    if replay:
        metrics = run_asyrevel(cfg, train, lm, gm, test, schedule=matched_schedule(cfg, train.n))
    else:
        metrics = run_algorithm(cfg, train, lm, gm, test)
    path = workdir / "rows.csv"
    metrics.to_csv(path)
    h = hashlib.sha256(path.read_bytes())
    h.update(repr((metrics.activations, metrics.reached, metrics.events_to_target)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("case", ROW_CASES)
def test_metrics_rows_fingerprint(case, algorithm, tmp_path):
    assert rows_fingerprint(case, algorithm, tmp_path) == ROWS_PINNED[case, algorithm]


@pytest.mark.parametrize("case", ROW_CASES)
def test_replayed_metrics_rows_fingerprint(case, tmp_path):
    assert (rows_fingerprint(case, "asyrevel_gau", tmp_path, replay=True)
            == ROWS_PINNED[case, "asyrevel_gau_replay"])
