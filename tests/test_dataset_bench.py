"""Dataset harvesting/serialization and the latency benchmark harness."""

from dataclasses import replace

import numpy as np
import pytest

import predictor_lab as pl
from predictor_lab import benchmark as bench
from predictor_lab.dataset import (DatasetFormatError, SampleRanges,
                                   _config_hash, generate_dataset,
                                   load_dataset, save_dataset, solve_target)


def tiny_linear_cfg():
    return pl.SimulationConfig(system="linear", linear_a=-0.5, linear_b=1.0,
                               d_min=0.5, d_max=2.0, gamma=10.0, b=1.0,
                               dt=2e-3, t_final=4.0, law="measured",
                               grid_points=21, x0=(1.0,), d_true=1.0,
                               d_hat0=1.0)


def tiny_ranges():
    return SampleRanges(x0_lo=(-1.5,), x0_hi=(1.5,), d_true=(0.6, 1.8),
                        d_hat0=(0.6, 1.8))


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(tiny_linear_cfg(), 30, tiny_ranges(), seed=21,
                            m=21, stride_s=0.25)


def test_generate_dataset_shapes_and_provenance(tiny_dataset):
    ds = tiny_dataset
    assert len(ds) == 30
    assert ds.X.shape == (30, 1)
    assert ds.u.shape == (30, 21)
    assert ds.targets.shape == (30, 21, 1)
    assert ds.provenance["system"] == "linear"
    assert ds.provenance["max_residual"] < 1e-9
    assert "config_hash" in ds.provenance


def test_generate_dataset_validation():
    with pytest.raises(ValueError, match="stride"):
        generate_dataset(tiny_linear_cfg(), 10, tiny_ranges(), stride_s=0.0)
    with pytest.raises(ValueError, match="n_samples"):
        generate_dataset(tiny_linear_cfg(), 0, tiny_ranges())


def test_provenance_records_the_stride_harvested_at():
    """0.0029 s at dt 0.002 rounds to one step, so a 1 s source run yields
    499 harvest points and 400 samples take one run."""
    cfg = replace(tiny_linear_cfg(), t_final=1.0)
    ds = generate_dataset(cfg, 400, tiny_ranges(), seed=3, m=11,
                          stride_s=0.0029)
    assert ds.provenance["runs"] == 1
    assert ds.provenance["stride_s"] == 0.002
    assert ds.provenance["config_hash"] == _config_hash(
        cfg, tiny_ranges(), 11, 11, 0.002)


def test_config_hash_covers_only_harvest_settings():
    """The per-run draws and the forced predictor leave the hash alone."""
    base = tiny_linear_cfg()

    def config_hash(cfg):
        return _config_hash(cfg, tiny_ranges(), 21, 21, 0.25)

    per_run = replace(base, x0=(0.3,), d_true=1.7, d_hat0=0.6,
                      predictor="neural", model_path="model.no")
    assert config_hash(per_run) == config_hash(base)
    assert config_hash(replace(base, gamma=11.0)) != config_hash(base)


def test_generate_dataset_deterministic():
    a = generate_dataset(tiny_linear_cfg(), 12, tiny_ranges(), seed=5,
                         m=21, stride_s=0.25)
    b = generate_dataset(tiny_linear_cfg(), 12, tiny_ranges(), seed=5,
                         m=21, stride_s=0.25)
    c = generate_dataset(tiny_linear_cfg(), 12, tiny_ranges(), seed=6,
                         m=21, stride_s=0.25)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.u, b.u)
    assert not np.array_equal(a.targets, c.targets)


def test_parallel_generation_matches_serial():
    a = generate_dataset(tiny_linear_cfg(), 12, tiny_ranges(), seed=9,
                         m=21, stride_s=0.25, jobs=1)
    b = generate_dataset(tiny_linear_cfg(), 12, tiny_ranges(), seed=9,
                         m=21, stride_s=0.25, jobs=2)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.X, b.X)


def test_dataset_audit_resolves(tiny_dataset):
    """Re-solving stored inputs reproduces stored targets (determinism)."""
    ds = tiny_dataset
    sys = pl.make_system("linear", a=-0.5, b_in=1.0)
    rng = np.random.default_rng(0)
    for i in rng.choice(len(ds), size=3, replace=False):
        values, residual = solve_target(sys, ds.X[i], ds.u[i],
                                        ds.d_hat[i], ds.q)
        assert np.abs(values - ds.targets[i]).max() < 1e-9
        assert residual < 1e-10


def test_dataset_round_trip(tmp_path, tiny_dataset):
    path = tmp_path / "ds.bin"
    save_dataset(tiny_dataset, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.X, tiny_dataset.X)
    assert np.array_equal(loaded.u, tiny_dataset.u)
    assert np.array_equal(loaded.d_hat, tiny_dataset.d_hat)
    assert np.array_equal(loaded.targets, tiny_dataset.targets)
    assert loaded.provenance["config_hash"] == \
        tiny_dataset.provenance["config_hash"]


def test_dataset_identical_files_for_identical_seeds(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(generate_dataset(tiny_linear_cfg(), 8, tiny_ranges(),
                                  seed=3, m=21, stride_s=0.25), p1)
    save_dataset(generate_dataset(tiny_linear_cfg(), 8, tiny_ranges(),
                                  seed=3, m=21, stride_s=0.25), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_truncated_payload(tmp_path, tiny_dataset):
    path = tmp_path / "ds.bin"
    save_dataset(tiny_dataset, path)
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(raw[:-16])
    with pytest.raises(DatasetFormatError, match="mismatch"):
        load_dataset(clipped)


def test_dataset_header_only(tmp_path, tiny_dataset):
    path = tmp_path / "ds.bin"
    save_dataset(tiny_dataset, path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    header_only = tmp_path / "header.bin"
    header_only.write_bytes(raw[:header_end])
    with pytest.raises(DatasetFormatError, match="empty payload"):
        load_dataset(header_only)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"something else\n{}\n")
    with pytest.raises(DatasetFormatError, match="not a"):
        load_dataset(path)


def test_dataset_version_bump(tmp_path, tiny_dataset):
    path = tmp_path / "ds.bin"
    save_dataset(tiny_dataset, path)
    raw = path.read_bytes().replace(b"format_version=1", b"format_version=9", 1)
    bumped = tmp_path / "v9.bin"
    bumped.write_bytes(raw)
    with pytest.raises(DatasetFormatError, match="unsupported"):
        load_dataset(bumped)


# --- benchmark harness ----------------------------------------------------

def test_corpus_is_physical_and_hashable(chemostat):
    corpus = bench.make_corpus(chemostat, 8, d_range=(1.0, 2.0), seed=1)
    assert corpus["u_fine"].min() >= 0.0  # dilution stays nonnegative
    h1 = bench.corpus_hash(corpus)
    h2 = bench.corpus_hash(bench.make_corpus(chemostat, 8,
                                             d_range=(1.0, 2.0), seed=1))
    assert h1 == h2


def test_benchmark_self_speedup_near_unity(linear):
    corpus = bench.make_corpus(linear, 8, d_range=(0.5, 1.5), seed=2)
    report = bench.benchmark_predictors(linear, ["numeric"], [0.02], 40,
                                        corpus, warmup=5)
    cell = report.cell("numeric", 0.02)
    assert cell.speedup == pytest.approx(1.0)
    assert cell.mean_s > 0.0
    assert report.corpus_hash == bench.corpus_hash(corpus)


def test_benchmark_requires_model_for_neural(linear):
    corpus = bench.make_corpus(linear, 4, d_range=(0.5, 1.5), seed=2)
    with pytest.raises(ValueError, match="neural backend"):
        bench.benchmark_predictors(linear, ["numeric", "neural"], [0.02], 5,
                                   corpus)


def test_benchmark_failed_backend_marks_cell(linear, monkeypatch):
    corpus = bench.make_corpus(linear, 4, d_range=(0.5, 1.5), seed=2)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "forward", broken)
    report = bench.benchmark_predictors(linear, ["numeric", "neural"], [0.02],
                                        10, corpus,
                                        model=pl.init_model(1, 11, 4, 1),
                                        warmup=2)
    cell = report.cell("neural", 0.02)
    assert cell.failed
    assert cell.error == "RuntimeError: boom"
    assert cell.corpus_index == 0  # the first warm-up call
    numeric = report.cell("numeric", 0.02)
    assert not numeric.failed
    assert numeric.error is None and numeric.corpus_index is None


def test_benchmark_csv_layout(tmp_path, linear):
    corpus = bench.make_corpus(linear, 4, d_range=(0.5, 1.5), seed=2)
    report = bench.benchmark_predictors(linear, ["numeric", "neural"],
                                        [0.02, 0.01], 10, corpus,
                                        model=pl.init_model(1, 11, 4, 1),
                                        warmup=2)
    path = tmp_path / "bench.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("dx,numeric_mean_s,numeric_std_s,"
                        "neural_mean_s,neural_std_s,neural_speedup")
    assert len(lines) == 3  # header + one row per dx, coarse first
    assert lines[1].startswith("0.02,")
