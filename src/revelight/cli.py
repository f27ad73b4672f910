"""Configuration, dataset ingestion, experiment orchestration, and the
command-line surface.

Config files are flat `key = value` text with `#` comments, read by the one
table CONFIG_KEYS; every run-config field but `record_snapshots` has a key of
the same name.  The seeded synthetic families (separable and noisy-logistic)
let every benchmark run without downloads.

Subcommands: train, verify, bench-comm, speedup, audit.  Exit status is 0
iff all requested checks pass; failures print one machine-greppable
`error: ...` line.
"""

from __future__ import annotations

import argparse
import itertools
import math
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

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


def _label(path, lineno: int, text: str) -> int:
    """An integral label as read: "+1", "-1" and "1.0" read, "1.5" does not."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad label {text!r}") from exc
    if not value.is_integer():
        raise ParseError(f"{path}:{lineno}: label {text!r} is not an integer")
    return int(value)


def _features(path, lineno: int, toks: list[str]) -> dict[int, float]:
    """A line's `idx:val` tokens as {idx: val}, a repeated index keeping its last
    value: parsed in bulk, or token by token to name the first bad token."""
    try:
        if set(map(str.count, toks, itertools.repeat(":"))) <= {1}:
            fields = ":".join(toks).split(":")
            feats = dict(zip(map(int, fields[::2]), map(float, fields[1::2])))
            if min(feats, default=1) >= 1:
                return feats
    except ValueError:
        pass
    feats = {}
    for tok in toks:
        try:
            idx_s, val_s = tok.split(":")
            idx, val = int(idx_s), float(val_s)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
        if idx < 1:
            raise ParseError(f"{path}:{lineno}: feature index {idx} must be >= 1")
        feats[idx] = val
    return feats


def _data_lines(path):
    """(lineno, stripped line) for each line of a text dataset file that is
    neither blank nor a `#` comment."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def load_libsvm(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse `label idx:val ...` lines (1-based indices): dense float64 rows, int labels."""
    rows, labels = [], []
    for lineno, line in _data_lines(path):
        label, *toks = line.split()
        labels.append(_label(path, lineno, label))
        rows.append(_features(path, lineno, toks))
    cells = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    try:
        cols = np.fromiter(itertools.chain.from_iterable(rows), np.int64, cells.size)
        X = np.zeros((len(rows), cols.max(initial=0)))
    except (OverflowError, ValueError, MemoryError):
        top = max(itertools.chain.from_iterable(rows))
        raise ParseError(f"{path}: feature index {top} is too large for a dense matrix") from None
    X[cells, cols - 1] = list(itertools.chain.from_iterable(map(dict.values, rows)))
    return X, np.array(labels)


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Dense CSV, the label in the last column: float64 rows, int labels."""
    rows = []
    for lineno, line in _data_lines(path):
        toks = line.split(",")
        try:
            rows.append([float(tok) for tok in toks])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError(f"{path}:{lineno}: expected {len(rows[0])} fields")
        _label(path, lineno, toks[-1].strip())
    if not rows:
        raise ParseError(f"{path}: empty file")
    arr = np.array(rows)
    return arr[:, :-1], arr[:, -1].astype(int)


def _read_idx(path, expect_magic: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expect_magic:
        raise FormatError(f"{path}: IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    if len(raw) < 4 + 4 * ndim:
        raise FormatError(f"{path}: IDX header ends before its {ndim} dimensions")
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    data = np.frombuffer(raw, dtype=np.uint8, offset=4 + 4 * ndim)
    if data.size != math.prod(dims):
        raise FormatError(f"{path}: IDX payload size does not match dimensions {dims}")
    return data.reshape(dims)


def load_idx(images_path) -> tuple[np.ndarray, np.ndarray]:
    """Big-endian IDX image/label pair, the labels file named by convention
    (images-idx3 -> labels-idx1): float64 rows scaled to [0, 1], int labels."""
    images_path = str(images_path)
    labels_path = images_path.replace("images-idx3", "labels-idx1").replace(
        "images.idx3", "labels.idx1"
    )
    if labels_path == images_path:
        raise FormatError(f"{images_path}: cannot derive the labels path from the name")
    images = _read_idx(images_path, IDX_IMAGE_MAGIC)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError("image and label counts differ")
    X = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return X, labels.astype(int)


def load_dataset(path, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    # built per call, so a loader rebound at run time (a tracer's) is the one called
    loaders = {"libsvm": load_libsvm, "csv": load_csv, "idx": load_idx}
    if fmt not in loaders:
        raise UsageError(f"unknown dataset format {fmt!r}")
    return loaders[fmt](path)


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
    try:
        X = rng.standard_normal((n, d))
    except ValueError as exc:  # numpy's "array is too big", raised before allocating
        raise MemoryError(f"{n} x {d} synthetic features: {exc}") from None
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


def split_tenfold(X: np.ndarray, y: np.ndarray, block_dims: list[int], seed: int):
    """Hold out the first of ten shuffled folds of the rows for testing, the
    training rows in file order; both parts are partitioned by block_dims."""
    order = streams.stream(seed, streams.SPLIT).permutation(len(y))
    test_idx = order[:len(y) // 10]
    train_idx = np.setdiff1d(order, test_idx)
    train = PartitionedDataset.from_matrix(X[train_idx], y[train_idx], block_dims)
    test = PartitionedDataset.from_matrix(X[test_idx], y[test_idx], block_dims)
    return train, test


# ---------------------------------------------------------------------------
# experiment specification


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _straggler(text: str) -> tuple[int, float]:
    party, factor = text.split(":")
    return int(party), float(factor)


class ConfigKey(NamedTuple):
    """A key's cast, the ExperimentSpec field it sets (None: the RunConfig
    field of its name, checked by RunConfig.validate), its least value, the
    one dataset kind that reads it ("synthetic" or "file"; None: both) and
    the algorithms that never read it."""

    cast: Callable[[str], object]
    spec_field: str | None = None
    least: int | None = None
    dataset_kind: str | None = None
    ignored_by: tuple[str, ...] = ()


_OFF_WIRE = ("nonfed", "tig")  # send nothing through the network model

# the config grammar, in the order the keys are read
CONFIG_KEYS = {
    "algorithm": ConfigKey(str), "q": ConfigKey(int), "T": ConfigKey(int),
    "eta": ConfigKey(float), "eta_server": ConfigKey(float),
    "mu": ConfigKey(float, ignored_by=("tig",)), "lam_eff": ConfigKey(float),
    "tau": ConfigKey(int, ignored_by=("synrevel", *_OFF_WIRE)), "seed": ConfigKey(int),
    "scheme": ConfigKey(str, ignored_by=("asyrevel_gau", "asyrevel_uni", "tig")),
    "compute_dist": ConfigKey(str), "latency": ConfigKey(float, ignored_by=_OFF_WIRE),
    "latency_dist": ConfigKey(str, ignored_by=("synrevel", *_OFF_WIRE)),
    "eval_every": ConfigKey(int),
    "stop_loss": ConfigKey(float), "p": ConfigKey(_floats), "straggler": ConfigKey(_straggler),
    "dataset": ConfigKey(str, "dataset"), "format": ConfigKey(str, "fmt", dataset_kind="file"),
    "n": ConfigKey(int, "n", 1, "synthetic"), "d": ConfigKey(int, "d", 1, "synthetic"),
    "n_test": ConfigKey(int, "n_test", 0, "synthetic"), "out": ConfigKey(Path, "out_dir"),
}


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
        """Read a config file's keys in CONFIG_KEYS order, each by its row."""
        kv = parse_config(path)
        if not {"algorithm", "q", "T"} <= kv.keys():
            raise ConfigError("config must set algorithm, q, and T")
        dataset, algorithm = kv.get("dataset", cls.dataset), kv["algorithm"]
        kind = "synthetic" if dataset.startswith("synthetic:") else "file"
        run_kwargs, spec_kwargs = {}, {}
        for key in filter(kv.__contains__, CONFIG_KEYS):
            rule, text = CONFIG_KEYS[key], kv.pop(key)
            if rule.dataset_kind not in (None, kind):
                raise ConfigError(f"{key} = {text}: not used with dataset = {dataset}")
            if algorithm in rule.ignored_by:
                raise ConfigError(f"{key} = {text}: not used with algorithm = {algorithm}")
            try:
                value = rule.cast(text)
            except ValueError as exc:
                raise ConfigError(f"{key} = {text}: {exc}") from None
            if rule.least is not None and value < rule.least:
                raise ConfigError(f"{key} must be at least {rule.least}")
            (spec_kwargs if rule.spec_field else run_kwargs)[rule.spec_field or key] = value
        if kv:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(kv))}")
        cfg = RunConfig(**run_kwargs)
        if seed_override is not None:
            cfg.seed = seed_override
        if out_override is not None:
            spec_kwargs["out_dir"] = Path(out_override)
        cfg.validate()
        return cls(cfg=cfg, **spec_kwargs)

    def load(self):
        """Partitioned (train, test); file labels in {0, 1} become -1/+1."""
        if self.dataset.startswith("synthetic:"):
            kind = self.dataset.split(":", 1)[1]
            return synthetic_pair(kind, self.n, self.n_test, self.d, self.cfg.q, self.cfg.seed)
        X, y = load_dataset(self.dataset, self.fmt)
        if set(np.unique(y)) == {0, 1}:
            y = 2 * y - 1
        return split_tenfold(X, y, partition_features(X.shape[1], self.cfg.q), self.cfg.seed)


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
    metrics = run_algorithm(spec.cfg, train, LocalModel(), GlobalModel(q=spec.cfg.q), test)
    paths = {"metrics": spec.out_dir / f"metrics_{spec.cfg.algorithm}_{spec.cfg.seed}.csv"}
    metrics.to_csv(paths["metrics"])
    if metrics.transcript is not None:
        paths["transcript"] = spec.out_dir / f"transcript_{spec.cfg.algorithm}_{spec.cfg.seed}.jsonl"
        metrics.transcript.to_jsonl(paths["transcript"])
    summary = (
        f"{spec.cfg.algorithm},{spec.cfg.seed},{metrics.final_loss:.12g},"
        f"{metrics.final_accuracy:.12g},{metrics.total_bytes},{metrics.final_vtime:.12g}"
    )
    print(summary)
    paths["summary"] = spec.out_dir / "summary.csv"
    with open(paths["summary"], "a") as fh:
        fh.write(summary + "\n")
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
    X, y = make_synthetic("noisy", 64, block_dim * 2, seed)
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
    pairs = [(f"d{bd}", bd, *_bench_pair(bd, args.seed, args.events)) for bd in blocks]
    rows = measure_comm(pairs, per_message_overhead=args.overhead)
    print("block_dim,asy_bytes,tig_bytes,byte_ratio,cost_ratio")
    for r in rows:
        print(f"{r.block_dim},{r.asy_bytes},{r.tig_bytes},{r.byte_ratio:.4f},{r.cost_ratio:.4f}")
    ratios = [r.byte_ratio for r in rows]
    if min(ratios) <= 1.0 or ratios != sorted(ratios):
        print("error: communication ratios not >1 and monotone", file=sys.stderr)
        return 1
    return 0


def _cmd_speedup(args) -> int:
    qs = _ints("--parties", args.parties)
    _at_least("--events", args.events, 1)
    _at_least("--n", args.n, 0)  # zero rows ends in the empty-training-set error
    _at_least("--features", args.features, 1)
    if 1 not in qs:
        qs = [1] + qs
    times = {}
    for q in qs:
        d = max(args.features, q)  # blocks need at least one feature each
        train, test = synthetic_pair("noisy", args.n, 256, d, q, args.seed)
        # one row at event 0 and one at event T, whose time is the run's
        cfg = RunConfig(algorithm="asyrevel_gau", q=q, T=args.events, eval_every=args.events,
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
            OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
