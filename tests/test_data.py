"""Synthetic drift generators, normalization stats, CSV ingestion."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from boundary_distill.data import (
    STD_FLOOR,
    CsvSchema,
    Dataset,
    DriftSpec,
    NormStats,
    SyntheticSpec,
    compute_norm_stats,
    elongated_cov,
    gen_base,
    gen_phase,
    gen_test,
    load_csv,
    phase_distribution,
    ring_means,
    save_csv,
    standardize,
)
from boundary_distill.seeding import rng_for


def _toy_spec(**overrides):
    """Small explicit spec so tests do not move when package defaults do."""
    kwargs = dict(
        num_classes=4,
        dim=2,
        samples_per_class_base=500,
        samples_per_class_phase=50,
        cluster_means=ring_means(4, 2, radius=3.0, eccentricity=0.35),
        cluster_cov=elongated_cov(2, sigma=0.3, ratio=2.5, angle=np.deg2rad(35.0)),
        seed=3,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


class TestDataset:
    def test_container_round_trip(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([0, 1, 2]))
        assert len(ds) == 3
        assert ds.dim == 2
        sub = ds.subset(np.array([2, 0]))
        np.testing.assert_array_equal(sub.features, [[5.0, 6.0], [1.0, 2.0]])
        np.testing.assert_array_equal(sub.labels, [2, 0])
        cat = Dataset.concat([ds, sub])
        assert len(cat) == 5
        np.testing.assert_array_equal(cat.labels, [0, 1, 2, 2, 0])

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="does not match"):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]))
        with pytest.raises(ValueError, match="non-negative"):
            Dataset(np.zeros((1, 2)), np.array([-1]))
        with pytest.raises(ValueError, match="zero datasets"):
            Dataset.concat([])


class TestNormStats:
    def test_two_point_column_is_unit(self):
        # Population std of {0, 2} is exactly 1, mean exactly 1.
        ds = Dataset(np.array([[0.0, 4.0], [2.0, 4.0]]), np.array([0, 1]))
        stats = compute_norm_stats(ds)
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0
        out = standardize(ds.features, stats)
        np.testing.assert_array_equal(out[:, 0], [-1.0, 1.0])

    def test_constant_column_floors_and_zeroes(self):
        ds = Dataset(np.array([[0.0, 4.0], [2.0, 4.0]]), np.array([0, 1]))
        stats = compute_norm_stats(ds)
        assert stats.std[1] == STD_FLOOR
        out = standardize(ds.features, stats)
        np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            compute_norm_stats(ds)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching 1-d"):
            NormStats(mean=np.zeros(2), std=np.ones(3))


class TestRingMeans:
    def test_even_ring_geometry(self):
        k, radius = 5, 2.0
        means = ring_means(k, 3, radius)
        np.testing.assert_allclose(np.linalg.norm(means[:, :2], axis=1), radius, rtol=1e-12)
        np.testing.assert_array_equal(means[:, 2], np.zeros(k))
        angles = np.unwrap(np.arctan2(means[:, 1], means[:, 0]))
        np.testing.assert_allclose(np.diff(angles), 2 * np.pi / k, rtol=1e-12)

    def test_irregular_layout_frozen(self):
        # Regression pin for the closed-form jitter.
        means = ring_means(4, 2, radius=3.0, eccentricity=0.35)
        expected = np.array(
            [
                [3.410089390644155, 0.803168472310041],
                [0.27014720992497643, 3.8394290035900873],
                [-2.259293896653329, 0.2901230085684746],
                [0.5976711191122825, -2.259458559833165],
            ]
        )
        np.testing.assert_allclose(means, expected, rtol=1e-12, atol=1e-12)

    def test_means_stay_distinct(self):
        for k in (2, 3, 4, 6, 8):
            means = ring_means(k, 2, radius=3.0, eccentricity=0.35)
            for i in range(k):
                for j in range(i + 1, k):
                    assert np.linalg.norm(means[i] - means[j]) > 0.5


class TestElongatedCov:
    def test_ratio_one_is_isotropic(self):
        np.testing.assert_array_equal(elongated_cov(3, 0.7), np.eye(3) * 0.7**2)

    def test_eigenstructure(self):
        sigma, ratio, angle = 0.3, 2.5, np.deg2rad(35.0)
        cov = elongated_cov(2, sigma, ratio, angle)
        w, v = np.linalg.eigh(cov)
        np.testing.assert_allclose(w, [sigma**2, (ratio * sigma) ** 2], rtol=1e-12)
        axis = np.array([np.cos(angle), np.sin(angle)])
        assert abs(float(v[:, 1] @ axis)) == pytest.approx(1.0, abs=1e-12)

    def test_higher_dims_get_short_axis(self):
        cov = elongated_cov(3, 0.5, ratio=2.0, angle=0.3)
        assert cov[2, 2] == 0.25
        np.testing.assert_array_equal(cov[2, :2], [0.0, 0.0])
        np.linalg.cholesky(cov)  # must stay positive definite

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="sigma"):
            elongated_cov(2, 0.0)
        with pytest.raises(ValueError, match="ratio"):
            elongated_cov(2, 0.3, ratio=0.5)


class TestPhaseDistribution:
    def test_phase_zero_is_base(self):
        spec = _toy_spec()
        means, cov = phase_distribution(spec, 0)
        np.testing.assert_array_equal(means, spec.cluster_means)
        np.testing.assert_array_equal(cov, spec.cluster_cov)

    def test_covariance_compounds(self):
        spec = _toy_spec()
        for t in (1, 4, 10):
            _, cov = phase_distribution(spec, t)
            np.testing.assert_array_equal(cov, spec.cluster_cov * 1.5**t)

    def test_means_move_radially(self):
        spec = _toy_spec()
        center = spec.cluster_means.mean(axis=0)
        offsets = spec.cluster_means - center
        for t in (1, 3, 7):
            means, _ = phase_distribution(spec, t)
            moved = means - center
            # Outward along the same direction, by t * shift * sigma.
            expected_norm = np.linalg.norm(offsets, axis=1) + t * 0.5 * spec.cluster_sigma
            np.testing.assert_allclose(np.linalg.norm(moved, axis=1), expected_norm, rtol=1e-12)
            cosines = np.sum(moved * offsets, axis=1) / (
                np.linalg.norm(moved, axis=1) * np.linalg.norm(offsets, axis=1)
            )
            np.testing.assert_allclose(cosines, 1.0, rtol=1e-12)

    def test_zero_drift_is_stationary(self):
        spec = _toy_spec(drift=DriftSpec(mean_shift=0.0, cov_scale=1.0))
        means7, cov7 = phase_distribution(spec, 7)
        np.testing.assert_allclose(means7, spec.cluster_means, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(cov7, spec.cluster_cov)

    def test_rotation_drift(self):
        spec = _toy_spec(drift=DriftSpec(mean_shift=0.5, cov_scale=1.5, rotation=np.pi / 2))
        center = spec.cluster_means.mean(axis=0)
        offsets = spec.cluster_means - center
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        turned = offsets @ rot.T
        norms = np.linalg.norm(turned, axis=1, keepdims=True)
        shift = 1 * 0.5 * spec.cluster_sigma
        expected = center + turned * (1.0 + shift / norms)
        means1, _ = phase_distribution(spec, 1)
        np.testing.assert_allclose(means1, expected, rtol=1e-12)

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            phase_distribution(_toy_spec(), -1)


class TestGenerators:
    def test_base_is_deterministic_and_blocked(self):
        spec = _toy_spec()
        a, b = gen_base(spec), gen_base(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert len(a) == 4 * 500
        np.testing.assert_array_equal(a.labels, np.repeat(np.arange(4), 500))

    def test_base_stream_reconstructs(self):
        # The draw order is part of the contract: per class, standard
        # normals through the covariance Cholesky factor.
        spec = _toy_spec()
        means, cov = phase_distribution(spec, 0)
        chol = np.linalg.cholesky(cov)
        rng = rng_for(spec.seed, "base")
        parts = [means[c] + rng.standard_normal((500, 2)) @ chol.T for c in range(4)]
        np.testing.assert_array_equal(gen_base(spec).features, np.concatenate(parts))

    def test_phase_stream_reconstructs(self):
        spec = _toy_spec()
        t = 3
        means, cov = phase_distribution(spec, t)
        chol = np.linalg.cholesky(cov)
        rng = rng_for(spec.seed, "phase", t)
        parts = [means[c] + rng.standard_normal((50, 2)) @ chol.T for c in range(4)]
        ds = gen_phase(spec, t)
        np.testing.assert_array_equal(ds.features, np.concatenate(parts))
        np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(4), 50))

    def test_phase_index_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            gen_phase(_toy_spec(), 0)

    def test_phases_differ_and_seeds_differ(self):
        spec = _toy_spec()
        p1, p2 = gen_phase(spec, 1), gen_phase(spec, 2)
        assert not np.array_equal(p1.features, p2.features)
        other = gen_base(replace(spec, seed=4))
        assert not np.array_equal(gen_base(spec).features, other.features)

    def test_test_pool_covers_every_stage(self):
        spec = _toy_spec()
        per = 20
        pool = gen_test(spec, 5, per)
        assert len(pool) == 6 * 4 * per
        for t in range(6):
            means, cov = phase_distribution(spec, t)
            chol = np.linalg.cholesky(cov)
            rng = rng_for(spec.seed, "test", t)
            parts = [means[c] + rng.standard_normal((per, 2)) @ chol.T for c in range(4)]
            block = pool.features[t * 4 * per : (t + 1) * 4 * per]
            np.testing.assert_array_equal(block, np.concatenate(parts))
        with pytest.raises(ValueError, match=">= 0"):
            gen_test(spec, -1, per)


class TestSpecValidation:
    def test_coinciding_means_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            SyntheticSpec(
                num_classes=2,
                dim=2,
                cluster_means=np.array([[1.0, 0.0], [1.0, 0.0]]),
            )

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="cluster_means"):
            SyntheticSpec(num_classes=3, dim=2, cluster_means=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="cluster_cov"):
            _toy_spec(cluster_cov=np.eye(3))

    def test_non_positive_definite_cov_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            _toy_spec(cluster_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError, match="dim"):
            SyntheticSpec(dim=0)
        with pytest.raises(ValueError, match="positive"):
            _toy_spec(samples_per_class_phase=0)

    def test_rotation_needs_two_dims(self):
        with pytest.raises(ValueError, match="dim == 2"):
            SyntheticSpec(
                dim=3,
                cluster_means=ring_means(4, 3, radius=3.0, eccentricity=0.35),
                cluster_cov=np.eye(3),
                drift=DriftSpec(rotation=0.1),
            )

    def test_cluster_sigma_scalarizes_covariance(self):
        spec = _toy_spec(cluster_cov=np.diag([4.0, 1.0]))
        assert spec.cluster_sigma == pytest.approx(math.sqrt(2.5), rel=1e-15)


class TestSeparability:
    def test_two_far_clusters_match_gaussian_tail(self):
        # Classes at (-3,0) and (+3,0) with unit covariance: the Bayes rule
        # is sign(x0) and its error is Phi(-3), computable from erfc.
        spec = SyntheticSpec(
            num_classes=2,
            dim=2,
            samples_per_class_base=50000,
            cluster_means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
            cluster_cov=np.eye(2),
            seed=23,
        )
        ds = gen_base(spec)
        pred = (ds.features[:, 0] > 0).astype(np.int64)
        rate = float((pred != ds.labels).mean())
        bayes = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
        assert bayes == pytest.approx(0.0013498980316300957, rel=1e-12)
        assert abs(rate - bayes) < 5e-4
        assert 1.0 - rate > 0.99


def _nearest_mean_rates(spec, n_per_class, seed):
    """Misclassification of each drift stage under the stage-0 Bayes rule
    (nearest mean in Mahalanobis distance of the base covariance)."""
    means0, cov0 = phase_distribution(spec, 0)
    prec = np.linalg.inv(cov0)
    rng = np.random.default_rng(seed)
    rates = []
    for t in range(11):
        means_t, cov_t = phase_distribution(spec, t)
        chol = np.linalg.cholesky(cov_t)
        errs = 0
        for c in range(spec.num_classes):
            x = means_t[c] + rng.standard_normal((n_per_class, spec.dim)) @ chol.T
            diffs = x[:, None, :] - means0[None, :, :]
            d2 = np.einsum("nkd,de,nke->nk", diffs, prec, diffs)
            errs += int((d2.argmin(axis=1) != c).sum())
        rates.append(errs / (spec.num_classes * n_per_class))
    return rates


class TestDriftDifficulty:
    def test_frozen_boundary_degrades_monotonically(self):
        # Later phases must present samples the base rule gets wrong, and
        # increasingly so; one sampling inversion is tolerated.
        rates = _nearest_mean_rates(_toy_spec(), n_per_class=25000, seed=99)
        assert rates[5] > rates[0] + 0.03
        assert rates[10] > rates[0] + 0.2
        inversions = sum(1 for t in range(10) if rates[t + 1] < rates[t] - 0.005)
        assert inversions <= 1


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(40, 3)) * 1e3, rng.integers(0, 4, size=40))
        path = str(tmp_path / "pool.csv")
        save_csv(ds, path)
        back = load_csv(path, CsvSchema())
        # repr round-trips float64 exactly.
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_values_parse_bit_for_bit_as_float(self, tmp_path):
        # -0.0 keeps its sign, a subnormal and 17 significant digits keep
        # every bit, and rows stay in file order
        fields = [["-0.0", "4.9e-324", "0.1"], ["2.2250738585072009e-308", "1.0000000000000002",
                                                "-3.1415926535897931"]]
        path = str(tmp_path / "bits.csv")
        with open(path, "w") as fh:
            fh.write("a,b,c,label\n" + "".join(",".join(row) + ",0\n" for row in fields))
        ds = load_csv(path, CsvSchema())
        expected = np.array([[float(v) for v in row] for row in fields])
        assert ds.features.shape == (2, 3)
        assert ds.features.tobytes() == expected.tobytes()
        assert np.signbit(ds.features[0, 0])

    def test_feature_column_selection(self, tmp_path):
        path = str(tmp_path / "wide.csv")
        with open(path, "w") as fh:
            fh.write("a,b,label,c\n1.0,2.0,0,9.0\n3.0,4.0,1,8.0\n")
        ds = load_csv(path, CsvSchema(feature_cols=("c", "a")))
        np.testing.assert_array_equal(ds.features, [[9.0, 1.0], [8.0, 3.0]])
        full = load_csv(path, CsvSchema())
        assert full.dim == 3  # every non-label column, file order

    def test_non_finite_rows_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "holes.csv")
        with open(path, "w") as fh:
            fh.write("x,y,label\n1.0,2.0,0\nnan,2.0,1\n3.0,inf,0\n4.0,5.0,1\n")
        with pytest.warns(RuntimeWarning, match="skipped 2 row"):
            ds = load_csv(path, CsvSchema())
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_label_must_be_integer(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("x,label\n1.0,0\n2.0,1.5\n")
        with pytest.raises(ValueError, match=r":3: label '1.5'"):
            load_csv(path, CsvSchema())

    @pytest.mark.parametrize(("row", "message"), [
        ("0.5,x,1", "could not convert string to float: 'x'"),
        ("0.5,2", "2 fields, the header has 3"),
        ("0.5,2,1,9", "4 fields, the header has 3"),
        ("0.5,2,inf", "label 'inf' is not an integer"),
    ], ids=["bad_value", "short_row", "long_row", "infinite_label"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write(f"f0,f1,label\n1.0,2.0,0\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: {message}")):
            load_csv(path, CsvSchema())

    def test_integer_valued_float_labels_accepted(self, tmp_path):
        path = str(tmp_path / "floaty.csv")
        with open(path, "w") as fh:
            fh.write("x,label\n1.0,3.0\n")
        ds = load_csv(path, CsvSchema())
        assert ds.labels[0] == 3

    def test_structural_errors(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        with open(missing, "w") as fh:
            fh.write("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(missing, CsvSchema())
        with pytest.raises(ValueError, match="feature column 'z'"):
            load_csv(missing, CsvSchema(feature_cols=("z",), label_col="x"))
        empty = str(tmp_path / "empty.csv")
        open(empty, "w").close()
        with pytest.raises(ValueError, match="empty file"):
            load_csv(empty, CsvSchema())
        headers_only = str(tmp_path / "headers.csv")
        with open(headers_only, "w") as fh:
            fh.write("x,label\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv(headers_only, CsvSchema())

    def test_feature_cols_distinct_and_without_label(self, tmp_path):
        path = str(tmp_path / "data.csv")
        with open(path, "w") as fh:
            fh.write("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n")
        for cols, message in ((("f0", "f0"), "list f0 more than once"),
                              (("f0", "label"), "include the label column 'label'")):
            with pytest.raises(ValueError, match=f"data.csv: feature columns {message}"):
                load_csv(path, CsvSchema(feature_cols=cols))
        assert load_csv(path, CsvSchema(feature_cols=("f1", "f0"))).features.tolist() == [
            [2.0, 1.0], [4.0, 3.0]]
