"""Configuration, dataset ingestion, experiment orchestration, and the
command-line surface.

Config files are flat `key = value` text with `#` comments; every run-config
field but `record_snapshots` has a key of the same name.  The built-in
synthetic families (separable and noisy-logistic, seeded) let every
benchmark run without downloads.

Subcommands: train, verify, bench-comm, speedup, audit.  Exit status is 0
iff all requested checks pass; failures print one machine-greppable
`error: ...` line.
"""

from __future__ import annotations

import argparse
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import streams
from .engine import RunConfig, run_algorithm, run_asyrevel, run_tig_baseline, measure_comm
from .errors import ConfigError, DomainError, FormatError, ParseError, ProtocolError, UsageError
from .fedproto import Transcript, audit_transcript
from .models import GlobalModel, LocalModel, PartitionedDataset, partition_features
from .verify import (
    check_smoothing_bounds,
    check_unbiasedness,
    compute_speedup,
    report_lines,
    reports_to_csv,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


# ---------------------------------------------------------------------------
# dataset ingestion


def load_libsvm(path, n_features: int | None = None) -> PartitionedDataset:
    """Parse `label idx:val ...` lines (1-based indices) into dense rows."""
    rows, labels = [], []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                labels.append(int(float(parts[0])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            feats = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
                if idx < 1:
                    raise ParseError(f"{path}:{lineno}: feature index {idx} must be >= 1")
                if n_features is not None and idx > n_features:
                    raise ParseError(
                        f"{path}:{lineno}: feature index {idx} exceeds declared {n_features}"
                    )
                feats[idx] = val
                max_idx = max(max_idx, idx)
            rows.append(feats)
    d = n_features if n_features is not None else max_idx
    X = np.zeros((len(rows), d))
    for i, feats in enumerate(rows):
        for idx, val in feats.items():
            X[i, idx - 1] = val
    y = np.array(labels)
    if set(np.unique(y)) == {0, 1}:
        y = 2 * y - 1
    return PartitionedDataset.from_matrix(X, y, [d])


def load_csv(path) -> PartitionedDataset:
    """Dense CSV with the label in the last column."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise ParseError(f"{path}:{lineno}: expected {len(rows[0])} fields")
    if not rows:
        raise ParseError(f"{path}: empty file")
    arr = np.array(rows)
    y = arr[:, -1].astype(int)
    if set(np.unique(y)) == {0, 1}:
        y = 2 * y - 1
    return PartitionedDataset.from_matrix(arr[:, :-1], y, [arr.shape[1] - 1])


def _read_idx(path, expect_magic: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expect_magic:
        raise FormatError(
            f"{path}: IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}"
        )
    ndim = magic & 0xFF
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    data = np.frombuffer(raw, dtype=np.uint8, offset=4 + 4 * ndim)
    if data.size != int(np.prod(dims)):
        raise FormatError(f"{path}: IDX payload size does not match dimensions {dims}")
    return data.reshape(dims)


def load_idx(images_path, labels_path=None) -> PartitionedDataset:
    """Big-endian IDX image/label pair; pixels scaled to [0, 1].

    When labels_path is omitted it is derived by the standard naming
    convention (images-idx3 -> labels-idx1).
    """
    images_path = str(images_path)
    if labels_path is None:
        labels_path = images_path.replace("images-idx3", "labels-idx1").replace(
            "images.idx3", "labels.idx1"
        )
        if labels_path == images_path:
            raise FormatError(f"{images_path}: cannot derive labels path, pass it explicitly")
    images = _read_idx(images_path, IDX_IMAGE_MAGIC)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError("image and label counts differ")
    X = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return PartitionedDataset.from_matrix(X, labels.astype(int), [X.shape[1]])


def load_dataset(path, fmt: str) -> PartitionedDataset:
    if fmt == "libsvm":
        return load_libsvm(path)
    if fmt == "csv":
        return load_csv(path)
    if fmt == "idx":
        return load_idx(path)
    raise UsageError(f"unknown dataset format {fmt!r}")


# ---------------------------------------------------------------------------
# synthetic benchmark families


def make_synthetic(kind: str, n: int, d: int, seed: int, *,
                   margin: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Seeded synthetic binary data around a unit planted direction.

    'separable': every margin at least `margin`.
    'noisy': labels drawn from the logistic model at temperature 1/2 on the
    planted margin.
    """
    rng = streams.stream(seed, streams.DATA)
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    X = rng.standard_normal((n, d))
    raw = X @ w_star
    if kind == "separable":
        y = np.where(raw >= 0, 1, -1)
        X = X + margin * y[:, None] * w_star[None, :]
    elif kind == "noisy":
        prob = 1.0 / (1.0 + np.exp(-2.0 * raw))
        y = np.where(rng.random(n) < prob, 1, -1)
    else:
        raise UsageError(f"unknown synthetic family {kind!r}")
    return X, y


def synthetic_pair(kind: str, n_train: int, n_test: int, d: int, q: int, seed: int,
                   **kw) -> tuple[PartitionedDataset, PartitionedDataset]:
    """Train/test pair with the same planted direction, pre-partitioned."""
    X, y = make_synthetic(kind, n_train + n_test, d, seed, **kw)
    dims = partition_features(d, q)
    train = PartitionedDataset.from_matrix(X[:n_train], y[:n_train], dims)
    test = PartitionedDataset.from_matrix(X[n_train:], y[n_train:], dims)
    return train, test


def split_tenfold(data: PartitionedDataset, seed: int):
    """Hold out the first of ten shuffled folds for testing."""
    order = streams.stream(seed, streams.SPLIT).permutation(data.n)
    test_idx = order[:data.n // 10]
    train_idx = np.setdiff1d(order, test_idx)
    X = data.concatenated()
    train = PartitionedDataset.from_matrix(X[train_idx], data.labels[train_idx], data.block_dims)
    test = PartitionedDataset.from_matrix(X[test_idx], data.labels[test_idx], data.block_dims)
    return train, test


# ---------------------------------------------------------------------------
# experiment specification


_RUN_KEYS = {
    "algorithm": str, "q": int, "T": int, "eta": float, "eta_server": float,
    "mu": float, "lam_eff": float, "tau": int, "seed": int, "scheme": str,
    "compute_dist": str, "latency": float, "latency_dist": str,
    "eval_every": int, "stop_loss": float,
}


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _straggler(text: str) -> tuple[int, float]:
    party, factor = text.split(":")
    return int(party), float(factor)


@dataclass
class ExperimentSpec:
    cfg: RunConfig
    dataset: str = "synthetic:noisy"
    fmt: str = "libsvm"
    n: int = 512
    d: int = 32
    n_test: int = 2048
    out_dir: Path = field(default_factory=lambda: Path("runs"))

    @classmethod
    def from_config(cls, path, seed_override: int | None = None,
                    out_override=None) -> "ExperimentSpec":
        kv = parse_config(path)

        def take(key, cast):
            """Pop and cast one value; a failed cast names the key and the value."""
            value = kv.pop(key)
            try:
                return cast(value)
            except ValueError as exc:
                raise ConfigError(f"{key} = {value}: {exc}") from None

        casts = {**_RUN_KEYS, "p": _floats, "straggler": _straggler}
        run_kwargs = {key: take(key, cast) for key, cast in casts.items() if key in kv}
        if "algorithm" not in run_kwargs or "q" not in run_kwargs or "T" not in run_kwargs:
            raise ConfigError("config must set algorithm, q, and T")
        cfg = RunConfig(**run_kwargs)
        if seed_override is not None:
            cfg.seed = seed_override
        spec = cls(cfg=cfg)
        if "dataset" in kv:
            spec.dataset = kv.pop("dataset")
        if "format" in kv:
            spec.fmt = kv.pop("format")
        for key, least in (("n", 1), ("d", 1), ("n_test", 0)):
            if key in kv:
                setattr(spec, key, take(key, int))
            if getattr(spec, key) < least:
                raise ConfigError(f"{key} must be at least {least}")
        if "out" in kv:
            spec.out_dir = Path(kv.pop("out"))
        if out_override is not None:
            spec.out_dir = Path(out_override)
        if kv:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(kv))}")
        cfg.validate()
        return spec

    def load(self):
        if self.dataset.startswith("synthetic:"):
            kind = self.dataset.split(":", 1)[1]
            return synthetic_pair(kind, self.n, self.n_test, self.d, self.cfg.q, self.cfg.seed)
        full = load_dataset(self.dataset, self.fmt)
        dims = partition_features(full.total_features, self.cfg.q)
        X = full.concatenated()
        repart = PartitionedDataset.from_matrix(X, full.labels, dims)
        return split_tenfold(repart, self.cfg.seed)


def parse_config(path) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if not key or not val:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            out[key] = val
    return out


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the configured algorithm; write metrics CSV, transcript (federated
    algorithms only), and print the summary line."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    train, test = spec.load()
    local_model = LocalModel()
    global_model = GlobalModel(kind="logistic", q=spec.cfg.q)
    metrics = run_algorithm(spec.cfg, train, local_model, global_model, test)
    paths = {}
    metrics_path = spec.out_dir / f"metrics_{spec.cfg.algorithm}_{spec.cfg.seed}.csv"
    metrics.to_csv(metrics_path)
    paths["metrics"] = metrics_path
    if metrics.transcript is not None:
        transcript_path = spec.out_dir / f"transcript_{spec.cfg.algorithm}_{spec.cfg.seed}.jsonl"
        metrics.transcript.to_jsonl(transcript_path)
        paths["transcript"] = transcript_path
    summary = (
        f"{spec.cfg.algorithm},{spec.cfg.seed},{metrics.final_loss:.12g},"
        f"{metrics.final_accuracy:.12g},{metrics.total_bytes},{metrics.final_vtime:.12g}"
    )
    print(summary)
    summary_path = spec.out_dir / "summary.csv"
    with open(summary_path, "a") as fh:
        fh.write(summary + "\n")
    paths["summary"] = summary_path
    return {"metrics": metrics, "paths": paths}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args) -> int:
    run_experiment(ExperimentSpec.from_config(args.config, args.seed, args.out))
    return 0


def _cmd_verify(args) -> int:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for scheme in ("gaussian", "sphere"):
        reports.extend(check_smoothing_bounds(scheme, trials=args.trials, seed=args.seed))
        reports.append(check_unbiasedness(scheme, M=100000, seed=args.seed))
    for line in report_lines(reports):
        print(line)
    reports_to_csv(reports, out / "verify_report.csv")
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"error: {len(failed)} of {len(reports)} bound checks failed", file=sys.stderr)
        return 1
    print(f"all {len(reports)} bound checks passed")
    return 0


def _bench_pair(block_dim: int, seed: int, events: int):
    n = 64
    X, y = make_synthetic("noisy", n, block_dim * 2, seed)
    data = PartitionedDataset.from_matrix(X, y, [block_dim, block_dim])
    lm, gm = LocalModel(), GlobalModel(kind="logistic", q=2)
    base = dict(q=2, T=events, eta=1e-3, mu=1e-3, lam_eff=5e-5, seed=seed)
    asy = run_asyrevel(RunConfig(algorithm="asyrevel_gau", **base), data, lm, gm)
    tig = run_tig_baseline(RunConfig(algorithm="tig", **base), data, lm, gm)
    return asy, tig


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{flag} {value}: must be at least {least}")


def _ints(flag: str, text: str) -> list[int]:
    """Comma-separated integers, each at least 1."""
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} {text}: expected comma-separated integers") from None
    _at_least(flag, min(values), 1)
    return values


def _cmd_bench_comm(args) -> int:
    blocks = _ints("--blocks", args.blocks)
    pairs = []
    for bd in blocks:
        asy, tig = _bench_pair(bd, args.seed, args.events)
        pairs.append((f"d{bd}", bd, asy, tig))
    rows = measure_comm(pairs, per_message_overhead=args.overhead)
    print("block_dim,asy_bytes,tig_bytes,byte_ratio,cost_ratio")
    for r in rows:
        print(f"{r.block_dim},{r.asy_bytes},{r.tig_bytes},{r.byte_ratio:.4f},{r.cost_ratio:.4f}")
    ok = all(r.byte_ratio > 1.0 for r in rows) and all(
        rows[i].byte_ratio <= rows[i + 1].byte_ratio for i in range(len(rows) - 1)
    )
    if not ok:
        print("error: communication ratios not >1 and monotone", file=sys.stderr)
        return 1
    return 0


def _cmd_speedup(args) -> int:
    qs = _ints("--parties", args.parties)
    _at_least("--n", args.n, 0)  # zero rows ends in the empty-training-set error
    _at_least("--features", args.features, 1)
    if 1 not in qs:
        qs = [1] + qs
    times = {}
    for q in qs:
        d = max(args.features, q)  # blocks need at least one feature each
        train, test = synthetic_pair("noisy", args.n, 256, d, q, args.seed)
        cfg = RunConfig(algorithm="asyrevel_gau", q=q, T=args.events,
                        eta=1e-3, mu=1e-3, lam_eff=5e-5, seed=args.seed)
        metrics = run_asyrevel(cfg, train, LocalModel(), GlobalModel(kind="logistic", q=q), test)
        times[q] = metrics.final_vtime
    speed = compute_speedup(times)
    print("q,time,speedup")
    for q in sorted(speed):
        print(f"{q},{times[q]:.6g},{speed[q]:.4f}")
    return 0


def _cmd_audit(args) -> int:
    dims = _ints("--dims", args.dims)
    _at_least("--d0", args.d0, 0)
    _at_least("--max-output-dim", args.max_output_dim, 1)
    transcript = Transcript.from_jsonl(args.transcript)
    report = audit_transcript(transcript, dims, d0=args.d0, max_output_dim=args.max_output_dim)
    if report.ok:
        print(f"audit pass: {len(transcript)} entries, {report.checked} payload vectors")
        return 0
    print(f"error: audit violation: {report.reason}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revelight",
        description="Black-box vertical federated learning with a function-values-only wire",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(fn=_cmd_train)

    p_verify = sub.add_parser("verify", help="run the smoothing/unbiasedness bound checks")
    p_verify.add_argument("--trials", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    p_bench = sub.add_parser("bench-comm", help="byte ratios of the gradient-transmitting baseline")
    p_bench.add_argument("--blocks", default="16,64,256,1024")
    p_bench.add_argument("--events", type=int, default=256)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--overhead", type=float, default=128.0)
    p_bench.set_defaults(fn=_cmd_bench_comm)

    p_speed = sub.add_parser("speedup", help="multi-party speedup at a fixed event budget")
    p_speed.add_argument("--parties", default="1,2,4,8")
    p_speed.add_argument("--events", type=int, default=4096)
    p_speed.add_argument("--n", type=int, default=256)
    p_speed.add_argument("--features", type=int, default=32)
    p_speed.add_argument("--seed", type=int, default=0)
    p_speed.set_defaults(fn=_cmd_speedup)

    p_audit = sub.add_parser("audit", help="check a transcript for non-function-value payloads")
    p_audit.add_argument("--transcript", required=True)
    p_audit.add_argument("--dims", required=True, help="comma-separated parameter block dims")
    p_audit.add_argument("--d0", type=int, default=0)
    p_audit.add_argument("--max-output-dim", type=int, default=1)
    p_audit.set_defaults(fn=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run ends in its one error line below, not in numpy
        # overflow warnings first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (ConfigError, DomainError, UsageError, ParseError, FormatError, ProtocolError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
