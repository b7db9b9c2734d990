"""Metrics (accuracy, promotion, forgetting) and report files."""

import csv
import os

import numpy as np
import pytest

from boundary_distill.data import Dataset
from boundary_distill.metrics import (
    MetricsRecord,
    PhaseAccuracy,
    accuracy,
    forgetting_rate,
    performance_promotion,
)
from boundary_distill.network import NetworkSpec, forward
from boundary_distill.reporting import (
    export_boundary_grid,
    export_report,
    read_record_csv,
    t_confidence_interval,
    write_manifest,
)
from boundary_distill.protocol import write_record_csv


def _sign_model():
    """1-d input, 2 classes, logits (x, -x): predicts 0 iff x >= 0."""
    spec = NetworkSpec((1, 2))
    params = np.array([1.0, -1.0, 0.0, 0.0])
    return params, spec


class TestAccuracy:
    def test_known_predictions(self):
        params, spec = _sign_model()
        feats = np.array([[1.0], [-1.0], [2.0], [-0.5]])
        ds = Dataset(feats, np.array([0, 1, 0, 1]))
        assert accuracy(params, spec, ds) == 1.0
        half = Dataset(feats, np.array([0, 1, 1, 0]))
        assert accuracy(params, spec, half) == 0.5

    def test_tie_goes_to_lowest_class(self):
        params, spec = _sign_model()
        # x=0 gives logits (0, 0); argmax must resolve to class 0.
        tie = Dataset(np.array([[0.0]]), np.array([0]))
        assert accuracy(params, spec, tie) == 1.0

    def test_rejects_empty_and_out_of_range(self):
        params, spec = _sign_model()
        with pytest.raises(ValueError, match="empty"):
            accuracy(params, spec, Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int)))
        with pytest.raises(ValueError, match="label 2"):
            accuracy(params, spec, Dataset(np.array([[1.0]]), np.array([2])))


class TestPerformancePromotion:
    def test_telescopes(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            accs = rng.uniform(0, 1, size=rng.integers(2, 12))
            assert performance_promotion(accs) == pytest.approx(
                accs[-1] - accs[0], abs=1e-12
            )

    def test_published_style_endpoints(self):
        # 64.34% start, 69.27% end: promotion is +4.93 points.
        ladder = [0.6434, 0.651, 0.649, 0.66, 0.6927]
        assert performance_promotion(ladder) == pytest.approx(0.0493, abs=1e-12)

    def test_needs_a_sequence(self):
        with pytest.raises(ValueError, match="at least two"):
            performance_promotion([0.5])
        with pytest.raises(ValueError, match="at least two"):
            performance_promotion(np.zeros((2, 2)))


class TestForgettingRate:
    def test_sign_convention(self):
        assert forgetting_rate(0.8, 0.9) == pytest.approx(-0.1, abs=1e-15)
        assert forgetting_rate(0.95, 0.9) == pytest.approx(0.05, abs=1e-15)

    def test_same_scale_required(self):
        with pytest.raises(ValueError, match="unit mismatch"):
            forgetting_rate(64.34, 0.6434)
        # Both in percent is fine.
        assert forgetting_rate(64.34, 69.27) == pytest.approx(-4.93, abs=1e-12)


def _band_model():
    """2-d input, 2 classes: class 1 iff x0 > 0.5."""
    spec = NetworkSpec((2, 2))
    w = np.array([[-1.0, 1.0], [0.0, 0.0]])
    b = np.array([0.5, -0.5])
    return np.concatenate([w.ravel(), b]), spec


class TestBoundaryGrid:
    def test_linear_band(self):
        params, spec = _band_model()
        grid = export_boundary_grid(params, spec, (0.0, 1.0), (-1.0, 1.0), 5)
        assert grid.classes.shape == (5, 5)
        # xs = 0, .25, .5, .75, 1; the boundary cell (logits tie) goes to 0.
        expected_row = [0, 0, 0, 1, 1]
        np.testing.assert_array_equal(grid.classes, np.tile(expected_row, (5, 1)))
        assert grid.probs.min() >= 0.5  # top-1 of a 2-class softmax
        assert grid.probs.max() <= 1.0

    def test_csv_layout(self, tmp_path):
        params, spec = _band_model()
        path = tmp_path / "grid.csv"
        grid = export_boundary_grid(params, spec, (0.0, 1.0), (2.0, 3.0), 3, path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,class,prob"
        assert len(lines) == 1 + 9
        # y-major: first three rows share y = 2.0 while x walks the axis.
        first = lines[1].split(",")
        assert (float(first[0]), float(first[1])) == (0.0, 2.0)
        second = lines[2].split(",")
        assert (float(second[0]), float(second[1])) == (0.5, 2.0)
        # Exact float round-trip through repr.
        assert float(lines[1].split(",")[3]) == grid.probs[0, 0]

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # reference: one csv.writer row per grid point, the file format's
        # original writer
        params, spec = _band_model()
        x_range, y_range, res = (-1.3, 0.7), (-2.25, -0.1), 7
        path = tmp_path / "grid.csv"
        export_boundary_grid(params, spec, x_range, y_range, res, path=path)
        xx, yy = np.meshgrid(np.linspace(*x_range, res), np.linspace(*y_range, res))
        points = np.column_stack([xx.ravel(), yy.ravel()])
        probs, _ = forward(params, spec, points)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "class", "prob"])
            for point, row in zip(points, probs):
                cls = int(np.argmax(row))
                writer.writerow([repr(float(point[0])), repr(float(point[1])), cls,
                                 repr(float(row[cls]))])
        assert path.read_bytes() == reference.read_bytes()

    def test_input_validation(self):
        params, spec = _band_model()
        with pytest.raises(ValueError, match="resolution"):
            export_boundary_grid(params, spec, (0, 1), (0, 1), 1)
        spec3 = NetworkSpec((3, 2))
        with pytest.raises(ValueError, match="2-d inputs"):
            export_boundary_grid(np.zeros(spec3.num_params), spec3, (0, 1), (0, 1), 4)


class TestConfidenceInterval:
    def test_frozen_t_quantile(self):
        # t(0.975, df=4) = 2.7764451051977987; sem of 1..5 is sqrt(0.5).
        mean, half = t_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mean == 3.0
        assert half == pytest.approx(1.963243161477561, rel=1e-12)

    def test_identical_values_collapse(self):
        # 0.5 is exact in binary, so the spread is exactly zero.
        mean, half = t_confidence_interval([0.5, 0.5, 0.5])
        assert mean == 0.5
        assert half == 0.0

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_quantile_is_scipy_stats_t_ppf(self, confidence):
        from scipy import stats

        for df in range(1, 101):
            values = np.arange(df + 1) ** 1.5
            sem = float(values.std(ddof=1) / np.sqrt(values.size))
            quantile = float(stats.t.ppf(0.5 + confidence / 2.0, df=df))
            assert t_confidence_interval(values, confidence)[1] == quantile * sem

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="at least two"):
            t_confidence_interval([1.0])


def _records():
    def rec(strategy, seed, shift):
        per = tuple(
            PhaseAccuracy(phase=t, acc_test=1 / 3 + shift + t / 100, acc_base=2 / 7 - t / 200)
            for t in range(3)
        )
        return MetricsRecord(
            strategy=strategy,
            seed=seed,
            per_phase=per,
            pp=per[-1].acc_test - per[0].acc_test,
            forgetting=per[-1].acc_base - per[0].acc_base,
            config_digest="cfg123",
        )

    return [rec("fine_tune", 0, 0.0), rec("fine_tune", 1, 0.01), rec("full_data", 0, 0.05)]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestReportFiles:
    def test_round_trip_is_exact(self, tmp_path):
        records = _records()
        paths = export_report(records, tmp_path)
        phases = [(r.strategy, r.seed, p) for r in records for p in r.per_phase]
        rows = _csv_rows(paths["per_phase"])
        assert [(row["strategy"], int(row["seed"]), PhaseAccuracy(
            int(row["phase"]), float(row["acc_test"]), float(row["acc_base"])))
            for row in rows] == phases
        assert [(row["strategy"], int(row["seed"]), float(row["pp"]), float(row["forgetting"]),
                 row["config_digest"]) for row in _csv_rows(paths["summary"])] == [
            (r.strategy, r.seed, r.pp, r.forgetting, r.config_digest) for r in records]

    def test_reexport_is_byte_identical(self, tmp_path):
        records = _records()
        first = export_report(records, tmp_path / "a")
        second = export_report(records, tmp_path / "b")
        for name in ("per_phase", "summary", "manifest"):
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_manifest_contents(self, tmp_path):
        paths = export_report(_records(), tmp_path)
        manifest = dict(line.split("=", 1) for line in paths["manifest"].read_text().splitlines())
        assert manifest["records"] == "3"
        assert manifest["strategies"] == "fine_tune,full_data"
        assert manifest["seeds"] == "0,1"
        assert manifest["config_digests"] == "cfg123"

    def test_summary_has_group_statistics(self, tmp_path):
        paths = export_report(_records(), tmp_path)
        lines = paths["summary"].read_text().splitlines()
        header = lines[0].split(",")
        assert "pp_median_pct" in header and "f_ci95_pct" in header
        # Single-member group (full_data) renders a nan CI without crashing.
        full_row = next(l for l in lines[1:] if l.startswith("full_data"))
        assert "nan" in full_row

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            export_report([], tmp_path)


class TestRecordCsv:
    def test_write_read_round_trip(self, tmp_path):
        record = _records()[1]
        path = write_record_csv(record, tmp_path)
        assert read_record_csv(path) == record

    def test_rewrite_is_byte_identical(self, tmp_path):
        record = _records()[0]
        a = write_record_csv(record, tmp_path / "x")
        b = write_record_csv(record, tmp_path / "y")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_record_file_rejected(self, tmp_path):
        path = tmp_path / "record_empty.csv"
        path.write_text("strategy,seed,phase,acc_test,acc_base,pp,forgetting,config_digest\n")
        with pytest.raises(ValueError, match="empty record"):
            read_record_csv(path)


class TestManifestHelpers:
    def test_sorted_key_value_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        write_manifest(path, {"zeta": 1, "alpha": "two"})
        assert path.read_text() == "alpha=two\nzeta=1\n"

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"run": 1})
        old = path.read_bytes()
        entries = {"run": 2}
        if failure == "write":  # a lone surrogate cannot be encoded
            entries["note"] = "\ud800"
        else:
            def refuse(*_args):
                raise OSError("replace refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((UnicodeEncodeError, OSError)):
            write_manifest(path, entries)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.txt"]
