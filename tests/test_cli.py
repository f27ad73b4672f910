import json
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import revelight
from conftest import load_libsvm_reference
from revelight.cli import (
    CONFIG_KEYS,
    ExperimentSpec,
    load_csv,
    load_dataset,
    load_idx,
    load_libsvm,
    main,
    make_synthetic,
    parse_config,
    run_experiment,
    split_tenfold,
    synthetic_pair,
)
from revelight.engine import RunConfig
from revelight.errors import ConfigError, FormatError, ParseError, UsageError
from revelight.models import partition_features


def _number_text(value: float, form: int) -> str:
    return [repr(value), f"{value:e}", f"{value:+.3f}"][form]


# One line of a libsvm file: a comment, a blank line, or an integral label in
# one of its spellings followed by any idx:val tokens, spaced by runs of
# blanks and tabs.
_LIBSVM_LINE = st.one_of(
    st.just("# a comment"),
    st.sampled_from(["", "   ", "\t"]),
    st.builds(
        lambda label, form, feats, seps: (
            [str(label), f"{label:+d}", f"{label}.0", f"{label}e0"][form]
            + "".join(sep + f"{idx}:{_number_text(v, vf)}"
                      for (idx, v, vf), sep in zip(feats, seps))),
        st.integers(-3, 3), st.integers(0, 3),
        st.lists(st.tuples(st.integers(1, 9), st.floats(width=64), st.integers(0, 2)),
                 max_size=6),
        st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=6, max_size=6)),
)
_BAD_TOKENS = ["oops", "1:2:3", ":5", "3:", "1:x", "0:1", "-2:1"]


class TestLibsvm:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5 3:2\n-1 2:1\n")
        X, y = load_libsvm(p)
        assert X.dtype == np.float64
        assert np.array_equal(X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert list(y) == [1, -1]

    def test_infers_dimension(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 5:1\n-1 2:3\n")
        assert load_libsvm(p)[0].shape == (2, 5)

    def test_malformed_token(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5\n+1 oops\n")
        with pytest.raises(ParseError, match=":2:"):
            load_libsvm(p)

    def test_labels_as_read(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:1\n0 1:2\n+1 1:3\n-1 1:4\n1.0 1:5\n")
        assert list(load_libsvm(p)[1]) == [1, 0, 1, -1, 1]

    @pytest.mark.parametrize("label", ["1.5", "0.9", "inf", "nan"])
    def test_non_integral_label(self, tmp_path, label):
        p = tmp_path / "d.libsvm"
        p.write_text(f"1 1:1\n{label} 1:2\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(p)
        assert str(err.value) == f"{p}:2: label '{label}' is not an integer"

    @pytest.mark.parametrize("index", [2**62, 10**20])
    def test_oversized_index(self, tmp_path, index):
        """An index numpy cannot size a matrix for, refused before allocating."""
        p = tmp_path / "d.libsvm"
        p.write_text(f"1 1:1\n0 {index}:2\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(p)
        assert str(err.value) == f"{p}: feature index {index} is too large for a dense matrix"

    def test_repeated_index_keeps_last_value(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 3:1 1:2 3:5\n")
        assert np.array_equal(load_libsvm(p)[0], [[2.0, 0.0, 5.0]])

    @pytest.mark.parametrize("tok", ["oops", "1:2:3", ":5", "3:", "1:x", "0:1", "-2:1"])
    def test_bad_token_error_as_reference(self, tmp_path, tok):
        p = tmp_path / "d.libsvm"
        p.write_text(f"+1 1:0.5\n-1 2:1 {tok} 3:oops\n")
        with pytest.raises(ParseError) as want:
            load_libsvm_reference(p)
        with pytest.raises(ParseError) as got:
            load_libsvm(p)
        assert str(got.value) == str(want.value)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_LIBSVM_LINE, max_size=8),
           bad=st.none() | st.tuples(st.integers(0, 8), st.sampled_from(_BAD_TOKENS)))
    def test_matches_reference(self, tmp_path, lines, bad):
        """Comments, blank and label-only lines, unsorted and repeated indices,
        signs and exponents: the same bytes, shape and labels as the
        token-by-token reference, or the same error for a bad token."""
        if bad is not None:
            at, tok = bad
            lines = lines[:at] + [f"1 2:0.5 {tok}"] + lines[at:]
        p = tmp_path / "d.libsvm"
        p.write_text("\n".join(lines) + "\n")
        try:
            want = load_libsvm_reference(p)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                load_libsvm(p)
            assert str(got.value) == str(exc)
            return
        X, y = load_libsvm(p)
        assert X.dtype == want[0].dtype and X.shape == want[0].shape
        assert X.tobytes() == want[0].tobytes()
        assert y.dtype == want[1].dtype and y.tolist() == want[1].tolist()


class TestCsv:
    def test_label_last_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,1.5,1\n0.25,-2,-1\n")
        X, y = load_csv(p)
        assert np.array_equal(X, [[0.5, 1.5], [0.25, -2.0]])
        assert list(y) == [1, -1]

    def test_bad_field(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,x,1\n")
        with pytest.raises(ParseError, match=":1:"):
            load_csv(p)

    @pytest.mark.parametrize("text, error", [
        ("0.5,1\n0.5,2,1\n", ":2: expected 2 fields"),
        ("", ": empty file"),
        ("# a comment\n\n", ": empty file"),
    ], ids=["field_count", "empty", "comments_only"])
    def test_bad_shape(self, tmp_path, text, error):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert str(err.value) == f"{p}{error}"

    def test_integral_label_forms(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,+1\n0.5,-1\n0.5,1.0\n0.5,0\n")
        assert load_csv(p)[1].tolist() == [1, -1, 1, 0]

    @pytest.mark.parametrize("label", ["1.5", "0.9", "inf"])
    def test_non_integral_label(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"0.5,1\n0.5, {label}\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert str(err.value) == f"{p}:2: label '{label}' is not an integer"


def _zero_one(n):
    return [i % 2 for i in range(n)]


def _write_idx_pair(tmp_path, n=4, rows=3, cols=2, labels_of=range):
    images = tmp_path / "train-images-idx3-ubyte"
    labels = tmp_path / "train-labels-idx1-ubyte"
    pix = np.arange(n * rows * cols, dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + pix.tobytes())
    labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels_of(n)))
    return images, labels


class TestIdx:
    def test_loads_pair_and_scales(self, tmp_path):
        images, _ = _write_idx_pair(tmp_path)
        X, y = load_idx(images)
        assert X.shape == (4, 6) and X.dtype == np.float64
        assert X.max() <= 1.0
        assert list(y) == [0, 1, 2, 3]

    def test_underivable_labels_path(self, tmp_path):
        odd = tmp_path / "pixels.bin"
        odd.write_bytes(struct.pack(">IIII", 0x00000803, 1, 1, 1) + b"\x00")
        with pytest.raises(FormatError, match="labels path"):
            load_idx(odd)

    def test_magic_mismatch(self, tmp_path):
        bad = tmp_path / "bad-images-idx3-ubyte"
        bad.write_bytes(struct.pack(">IIII", 0x00000777, 1, 1, 1) + b"\x00")
        with pytest.raises(FormatError, match="magic"):
            load_idx(bad)

    def test_dispatch(self, tmp_path):
        images, _ = _write_idx_pair(tmp_path)
        assert load_dataset(images, "idx")[0].shape == (4, 6)

    def test_unknown_format(self, tmp_path):
        images, _ = _write_idx_pair(tmp_path)
        with pytest.raises(UsageError, match="unknown dataset format 'bogus'"):
            load_dataset(images, "bogus")

    @pytest.mark.parametrize("which, data, error", [
        ("images", b"\x00\x00\x08", "truncated IDX header"),
        ("images", struct.pack(">II", 0x00000803, 4), "IDX header ends before its 3 dimensions"),
        ("images", struct.pack(">IIII", 0x00000803, 4, 3, 2) + b"\x00" * 5,
         "IDX payload size does not match dimensions (4, 3, 2)"),
        # 2**31 * 2**31 * 4 is 0 in int64 arithmetic: the size is checked exactly
        ("images", struct.pack(">IIII", 0x00000803, 2**31, 2**31, 4),
         f"IDX payload size does not match dimensions ({2**31}, {2**31}, 4)"),
        ("labels", struct.pack(">II", 0x00000801, 3) + bytes(3), "image and label counts differ"),
    ], ids=["under_4_bytes", "short_header", "payload_size", "size_overflows_int64",
            "count_mismatch"])
    def test_malformed_pair(self, tmp_path, which, data, error):
        images, labels = _write_idx_pair(tmp_path)
        (images if which == "images" else labels).write_bytes(data)
        with pytest.raises(FormatError) as err:
            load_idx(images)
        assert str(err.value).endswith(error)


class TestSynthetic:
    def test_separable_margins(self):
        X, y = make_synthetic("separable", 200, 16, seed=0, margin=0.5)
        assert set(np.unique(y)) <= {-1, 1}

    def test_unknown_family(self):
        with pytest.raises(UsageError, match="unknown synthetic family 'bogus'"):
            make_synthetic("bogus", 10, 2, seed=0)

    def test_noisy_reproducible(self):
        a = make_synthetic("noisy", 50, 8, seed=3)
        b = make_synthetic("noisy", 50, 8, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_pair_shares_nothing_across_split(self):
        train, test = synthetic_pair("noisy", 100, 40, 12, 3, seed=1)
        assert train.n == 100 and test.n == 40
        assert train.block_dims == test.block_dims == [4, 4, 4]

    def test_tenfold_split(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((50, 6)), rng.choice([-1, 1], 50)
        train, test = split_tenfold(X, y, [3, 3], seed=2)
        assert test.n == 5 and train.n == 45
        assert train.block_dims == test.block_dims == [3, 3]
        # the training rows keep their order; together the parts hold every row once
        rows = np.hstack(train.blocks)
        kept = [int(np.flatnonzero((X == r).all(axis=1))[0]) for r in rows]
        assert kept == sorted(kept)
        both = np.vstack([rows, np.hstack(test.blocks)])
        assert np.array_equal(np.sort(both, axis=0), np.sort(X, axis=0))


CONFIG = """
# benchmark run
algorithm = asyrevel_gau
q = 4
T = 512
eta = 0.001
mu = 0.001
lam_eff = 0.00005
tau = 0
seed = 7
dataset = synthetic:noisy
n = 128
d = 16
n_test = 64
eval_every = 128
"""


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG)
        spec = ExperimentSpec.from_config(p)
        assert spec.cfg.algorithm == "asyrevel_gau"
        assert spec.cfg.q == 4 and spec.cfg.T == 512 and spec.cfg.seed == 7
        assert spec.n == 128 and spec.d == 16

    def test_seed_and_out_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG)
        spec = ExperimentSpec.from_config(p, seed_override=99, out_override=tmp_path / "o")
        assert spec.cfg.seed == 99
        assert spec.out_dir == tmp_path / "o"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG + "bogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentSpec.from_config(p)

    @pytest.mark.parametrize("key", ["algorithm", "q", "T"])
    def test_required_key_missing(self, tmp_path, key):
        p = tmp_path / "run.cfg"
        p.write_text("".join(line + "\n" for line in CONFIG.splitlines()
                             if not line.startswith(f"{key} =")))
        with pytest.raises(ConfigError, match="config must set algorithm, q, and T"):
            ExperimentSpec.from_config(p)

    def test_out_key_sets_the_output_directory(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG + f"out = {tmp_path / 'runs'}\n")
        assert ExperimentSpec.from_config(p).out_dir == tmp_path / "runs"

    def test_run_keys_are_the_run_config_fields(self):
        """README: every RunConfig field but record_snapshots is a config key."""
        run_keys = {key for key, rule in CONFIG_KEYS.items() if rule.spec_field is None}
        assert run_keys == {f.name for f in fields(RunConfig)} - {"record_snapshots"}

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("algorithm asyrevel_gau\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(p)

    def test_readme_config_parses(self, tmp_path):
        """The config block the README documents is a valid config."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "run.cfg"
        p.write_text(block)
        spec = ExperimentSpec.from_config(p)
        assert spec.cfg.algorithm == "asyrevel_gau"
        assert spec.cfg.q == 4 and spec.cfg.T == 20000

    def test_p_and_straggler_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG + "p = 0.1,0.2,0.3,0.4\nstraggler = 2:1.4\n")
        spec = ExperimentSpec.from_config(p)
        assert spec.cfg.p == [0.1, 0.2, 0.3, 0.4]
        assert spec.cfg.straggler == (2, 1.4)


class TestSpecLoad:
    """ExperimentSpec.load maps file labels, splits and partitions."""

    @staticmethod
    def _spec(tmp_path, dataset, fmt):
        p = tmp_path / "run.cfg"
        p.write_text(f"algorithm = nonfed\nq = 2\nT = 8\ndataset = {dataset}\nformat = {fmt}\n")
        return ExperimentSpec.from_config(p)

    @pytest.mark.parametrize("fmt", ["libsvm", "csv", "idx"])
    def test_zero_one_labels_mapped(self, tmp_path, fmt):
        if fmt == "idx":
            path, _ = _write_idx_pair(tmp_path, n=20, labels_of=_zero_one)
        else:
            path = tmp_path / f"d.{fmt}"
            lines = [f"{i % 2} 1:{i} 2:1" if fmt == "libsvm" else f"{i},1,{i % 2}"
                     for i in range(20)]
            path.write_text("\n".join(lines) + "\n")
        train, test = self._spec(tmp_path, path, fmt).load()
        assert set(train.labels) | set(test.labels) == {-1, 1}
        assert train.n == 18 and test.n == 2

    def test_other_labels_kept(self, tmp_path):
        images, _ = _write_idx_pair(tmp_path, n=20, labels_of=lambda n: [i % 3 for i in range(n)])
        train, test = self._spec(tmp_path, images, "idx").load()
        assert set(train.labels) | set(test.labels) == {0, 1, 2}
        assert train.block_dims == test.block_dims == partition_features(6, 2)


class TestRunExperiment:
    def test_writes_artifacts(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG)
        spec = ExperimentSpec.from_config(p, out_override=tmp_path / "out")
        result = run_experiment(spec)
        paths = result["paths"]
        assert paths["metrics"].exists() and paths["transcript"].exists()
        header = paths["metrics"].read_text().splitlines()[0]
        assert header == "t,vtime,wtime,loss,acc,bytes_up,bytes_down,staleness,gnorm2"
        with open(paths["transcript"]) as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"time", "dir", "variant", "party", "sample", "seq", "payload", "bytes"}

    def test_nonfed_emits_no_transcript(self, tmp_path):
        p = tmp_path / "run.cfg"
        # nonfed sends nothing through the network model, so it takes no tau
        p.write_text(CONFIG.replace("asyrevel_gau", "nonfed").replace("tau = 0\n", ""))
        spec = ExperimentSpec.from_config(p, out_override=tmp_path / "out")
        result = run_experiment(spec)
        assert "transcript" not in result["paths"]

    def test_deterministic_metrics_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG)
        blobs = []
        for run in range(2):
            spec = ExperimentSpec.from_config(p, out_override=tmp_path / f"o{run}")
            result = run_experiment(spec)
            blobs.append(result["paths"]["metrics"].read_bytes())
        assert blobs[0] == blobs[1]

    def test_stop_criterion_halts_before_budget(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            CONFIG.replace("T = 512", "T = 8192")
            + "stop_loss = 0.67\ndataset = synthetic:separable\n"
        )
        spec = ExperimentSpec.from_config(p, out_override=tmp_path / "out")
        result = run_experiment(spec)
        m = result["metrics"]
        assert m.reached and m.rows[-1].t < 8192


class TestMainCli:
    def test_train_command(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(CONFIG)
        rc = main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        fields = out.split(",")
        assert fields[0] == "asyrevel_gau" and len(fields) == 6

    @pytest.mark.parametrize("line", ["compute_dist = bogus", "latency_dist = bogus",
                                      "scheme = bogus", "eval_every = 0",
                                      "dataset = synthetic:bogus"])
    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys, line):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(CONFIG + line + "\n")
        rc = main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    EDGE_CONFIG = ("algorithm = asyrevel_gau\nq = 4\nT = 64\nseed = 7\n"
                   "dataset = synthetic:noisy\nn = 64\nd = 16\nn_test = 64\n")
    EDGE_ACCEPTED = {"T = 0", "lam_eff = 0", "tau = 0", "seed = 0", "latency = 0",
                     "stop_loss = -1", "stop_loss = 0", "n_test = 0",
                     # the command line's --out overrides the key
                     "out = abc", "out = nan", "out = inf", "out = -1", "out = 0"}

    @pytest.mark.parametrize("line", [
        f"{key} = {value}"
        for key in CONFIG_KEYS
        for value in ("abc", "nan", "inf", "-1", "0") + ((10**18,) if key in ("n", "d", "n_test") else ())
    ] + ["clock = wall", "base_compute = 1", "eta = 1e300", "T = 1e3", "tau = 1.5",
         "p = 0.5,0.5,a,b", "p = 0.5,0.5,0,0", "straggler = 5:1.5", "eta ="])
    def test_config_edge_runs_or_is_one_error_line(self, tmp_path, capsys, line):
        """Each value either trains (the few in EDGE_ACCEPTED) or ends in one
        error line with exit 2: a failed cast, a value `validate` rejects, an
        unknown key, an empty value, a size too large to allocate (10**18
        rows or features), or a run that diverges (eta = 1e300)."""
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(self.EDGE_CONFIG + line + "\n")
        rc = main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        if line in self.EDGE_ACCEPTED:
            assert rc == 0 and not any(e.startswith("error:") for e in err)
        else:
            assert rc == 2
            assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("dataset, line", [
        ("synthetic:noisy", "format = csv"),
        ("FILE", "n = 5"),
        ("FILE", "d = 99"),
        ("FILE", "n_test = 3"),
    ], ids=["format_with_synthetic", "n_with_file", "d_with_file", "n_test_with_file"])
    def test_key_the_dataset_ignores_is_one_error_line(self, tmp_path, capsys, dataset, line):
        data = tmp_path / "d.libsvm"
        data.write_text("".join(f"{i % 2} 1:{i} 2:1\n" for i in range(20)))
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("algorithm = nonfed\nq = 2\nT = 8\n"
                        f"dataset = {dataset.replace('FILE', str(data))}\n{line}\n")
        rc = main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {line}: not used with dataset")

    # (key, algorithm) pairs where the algorithm never reads the key
    IGNORED = {("scheme", "asyrevel_gau"), ("scheme", "asyrevel_uni"), ("scheme", "tig"),
               ("mu", "tig"), ("tau", "synrevel"), ("tau", "nonfed"), ("tau", "tig"),
               ("latency", "nonfed"), ("latency", "tig"), ("latency_dist", "synrevel"),
               ("latency_dist", "nonfed"), ("latency_dist", "tig")}

    @pytest.mark.parametrize("algorithm", ["asyrevel_gau", "asyrevel_uni", "synrevel", "nonfed",
                                           "tig"])
    @pytest.mark.parametrize("line", ["scheme = sphere", "mu = 0.01", "tau = 4", "latency = 0",
                                      "latency_dist = uniform"])
    def test_key_the_algorithm_ignores_is_one_error_line(self, tmp_path, capsys, algorithm,
                                                         line):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(self.EDGE_CONFIG.replace("asyrevel_gau", algorithm) + line + "\n")
        rc = main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        if (line.split(" = ")[0], algorithm) in self.IGNORED:
            assert rc == 2
            assert err == [f"error: {line}: not used with algorithm = {algorithm}"]
        else:
            assert rc == 0 and not err

    def test_summary_is_the_last_event(self, tmp_path, capsys):
        """eval_every defaults to the 18 training rows, so event T = 8 is no
        evaluation point; the run still ends on a row there, and the summary
        reports it."""
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{i % 3},{i * 7 % 5},{i % 2}\n" for i in range(20)))
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(f"algorithm = nonfed\nq = 2\nT = 8\ndataset = {data}\nformat = csv\n")
        assert main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        rows = [r.split(",") for r in
                (tmp_path / "out" / "metrics_nonfed_0.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "8"]
        assert summary[2] == rows[-1][3] != rows[0][3]

    @pytest.mark.parametrize("name, content, error", [
        ("d.libsvm", f"1 1:1\n0 {2**62}:2\n".encode(), f"feature index {2**62} is too large"),
        ("d.libsvm", f"1 1:1\n0 {10**20}:2\n".encode(), f"feature index {10**20} is too large"),
        ("train-images-idx3-ubyte", struct.pack(">II", 0x00000803, 4),
         "IDX header ends before its 3 dimensions"),
    ], ids=["libsvm_index_2e62", "libsvm_index_1e20", "idx_short_header"])
    def test_oversized_or_truncated_file_is_one_error_line(self, tmp_path, capsys,
                                                           name, content, error):
        data = tmp_path / name
        data.write_bytes(content)
        fmt = "idx" if name.startswith("train") else "libsvm"
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(f"algorithm = nonfed\nq = 2\nT = 8\ndataset = {data}\nformat = {fmt}\n")
        rc = main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1 and err[0].startswith(f"error: {data}: {error}")

    def test_idx_pair_with_zero_one_labels_trains_and_audits(self, tmp_path, capsys):
        images, _ = _write_idx_pair(tmp_path, n=40, labels_of=_zero_one)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(f"algorithm = asyrevel_gau\nq = 2\nT = 64\nseed = 3\n"
                        f"dataset = {images}\nformat = idx\n")
        assert main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
        transcript = tmp_path / "out" / "transcript_asyrevel_gau_3.jsonl"
        assert main(["audit", "--transcript", str(transcript), "--dims", "3,3"]) == 0
        assert "audit pass" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm,error", [
        ("asyrevel_gau", "party 1: non-finite update rejected at step 1"),
        ("asyrevel_uni", "party 1: non-finite update rejected at step 1"),
        ("synrevel", "party 1: non-finite update rejected at step 1"),
        ("nonfed", "party 1: non-finite update rejected at step 1"),
        # its updates stay finite; the parameters outgrow the objective
        ("tig", "non-finite training loss at event 64"),
    ])
    def test_diverging_run_writes_one_stderr_line(self, tmp_path, algorithm, error):
        """The whole of stderr, numpy warnings included, is the one error line."""
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(self.EDGE_CONFIG.replace("asyrevel_gau", algorithm) + "eta = 1e300\n")
        src = str(Path(revelight.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "revelight.cli", "train", "--config", str(cfgp),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {error}"]

    def test_empty_training_set_writes_one_stderr_line(self):
        """No numpy warning about an empty mean comes before the error line."""
        src = str(Path(revelight.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "revelight.cli", "speedup", "--n", "0", "--parties", "1",
             "--events", "4"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: the training set has no samples"]

    @pytest.mark.parametrize("overhead", ["nan", "inf", "-1"])
    def test_bad_overhead_is_one_error_line(self, capsys, overhead):
        assert main(["bench-comm", "--blocks", "4", "--events", "8",
                     f"--overhead={overhead}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: per-message overhead must be finite and nonnegative, "
                       f"got {float(overhead)}"]

    @pytest.mark.parametrize("argv", [
        ["audit", "--transcript", "t.jsonl", "--dims", "a,b"],
        ["bench-comm", "--blocks", "16,x"],
        ["speedup", "--parties", "1,two"],
    ], ids=["audit_dims", "bench_comm_blocks", "speedup_parties"])
    def test_bad_integer_list_is_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {argv[-2]} ")

    @pytest.mark.parametrize("argv, error", [
        (["bench-comm", "--blocks=-3"], "--blocks -3: must be at least 1"),
        (["bench-comm", "--blocks=16,0"], "--blocks 0: must be at least 1"),
        (["speedup", "--parties=0"], "--parties 0: must be at least 1"),
        (["speedup", "--events=0", "--parties", "1"], "--events 0: must be at least 1"),
        (["speedup", "--n=-5", "--parties", "1"], "--n -5: must be at least 0"),
        (["speedup", "--features=0", "--parties", "1"], "--features 0: must be at least 1"),
        (["audit", "--transcript", "t.jsonl", "--dims", "4,4", "--d0=-4"],
         "--d0 -4: must be at least 0"),
        (["audit", "--transcript", "t.jsonl", "--dims", "4,4", "--max-output-dim=0"],
         "--max-output-dim 0: must be at least 1"),
        (["audit", "--transcript", "t.jsonl", "--dims=4,-1"], "--dims -1: must be at least 1"),
    ], ids=["blocks_negative", "blocks_zero", "parties_zero", "events_zero", "n_negative",
            "features_zero",
            "d0_negative", "max_output_dim_zero", "dims_negative"])
    def test_out_of_range_flag_is_one_error_line(self, capsys, argv, error):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    def test_train_missing_config(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_audit_command_pass_and_fail(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(CONFIG)
        main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        transcript = tmp_path / "out" / "transcript_asyrevel_gau_7.jsonl"
        rc = main(["audit", "--transcript", str(transcript), "--dims", "4,4,4,4"])
        assert rc == 0
        bad = tmp_path / "bad.jsonl"
        lines = transcript.read_text().splitlines()
        lines.append(json.dumps({
            "time": 9.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0,
            "seq": 99, "payload": [0.0] * 8, "bytes": 83,
        }))
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["audit", "--transcript", str(bad), "--dims", "4,4,4,4"])
        assert rc == 1
        assert "error: audit violation" in capsys.readouterr().err

    def test_audit_command_passes_at_q_equals_d(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(CONFIG.replace("d = 16", "d = 4").replace("T = 512", "T = 64"))
        assert main(["train", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
        transcript = tmp_path / "out" / "transcript_asyrevel_gau_7.jsonl"
        rc = main(["audit", "--transcript", str(transcript), "--dims", "1,1,1,1"])
        assert rc == 0
        assert "audit pass" in capsys.readouterr().out

    UPLOAD = {"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0,
              "seq": -1, "payload": [0.5, 0.5], "bytes": 35}
    HIDDEN = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    @pytest.mark.parametrize("bad_line", [
        json.dumps(dict(UPLOAD, seq=9, payload={"w": HIDDEN}, bytes=83)),
        json.dumps(dict(UPLOAD, seq=9, payload=json.dumps(HIDDEN), bytes=83)),
        json.dumps(UPLOAD)[:40],
        json.dumps({k: v for k, v in UPLOAD.items() if k != "dir"}),
        json.dumps(dict(UPLOAD, dir="sideways")),
    ], ids=["payload_in_object", "payload_in_string", "truncated", "missing_key", "bad_dir"])
    def test_malformed_transcript_is_one_error_line(self, tmp_path, capsys, bad_line):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(self.UPLOAD) + "\n" + bad_line + "\n")
        rc = main(["audit", "--transcript", str(path), "--dims", "8,8"])
        out, err = capsys.readouterr()
        assert rc == 2 and "audit pass" not in out
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}:2: ")

    def test_audit_of_a_directory_is_one_error_line(self, tmp_path, capsys):
        rc = main(["audit", "--transcript", str(tmp_path), "--dims", "8,8"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1 and err[0].startswith("error:")

    def test_verify_command(self, tmp_path, capsys):
        rc = main(["verify", "--trials", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify_report.csv").exists()
        assert "bound checks passed" in capsys.readouterr().out

    def test_bench_comm_command(self, capsys):
        rc = main(["bench-comm", "--blocks", "16,64", "--events", "64"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "block_dim,asy_bytes,tig_bytes,byte_ratio,cost_ratio"
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(r > 1 for r in ratios) and ratios == sorted(ratios)

    def test_speedup_command(self, capsys):
        rc = main(["speedup", "--parties", "1,2", "--events", "512", "--n", "64",
                   "--features", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,time,speedup"
        speed = {int(l.split(",")[0]): float(l.split(",")[2]) for l in lines[1:]}
        assert speed[1] == 1.0 and speed[2] > 1.5

    @pytest.mark.parametrize("argv, rows", [
        (["--parties", "3", "--features", "2", "--n", "16", "--events", "8"],
         ["1,8,1.0000", "3,3,2.6667"]),
        (["--parties", "1,2", "--features", "4", "--n", "16", "--events", "40"],
         ["1,40,1.0000", "2,20,2.0000"]),
    ], ids=["events_below_n", "events_not_a_multiple_of_n"])
    def test_speedup_times_event_T(self, capsys, argv, rows):
        """Each party count is timed at its last event, not at its last
        multiple of the training-set size."""
        assert main(["speedup", *argv]) == 0
        assert capsys.readouterr().out.splitlines() == ["q,time,speedup", *rows]
