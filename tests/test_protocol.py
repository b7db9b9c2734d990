"""Benchmark assembly, training strategies, orchestration."""

import hashlib
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from boundary_distill import network, protocol
from boundary_distill.consolidation import ConsolidationSchedule
from boundary_distill.data import (
    Dataset,
    SyntheticSpec,
    compute_norm_stats,
    gen_base,
    gen_phase,
    gen_test,
    standardize,
)
from boundary_distill.distill import FuseConfig, LabelAssignment, NoiseSpec
from boundary_distill.metrics import accuracy
from boundary_distill.network import forward, init_network
from boundary_distill.protocol import (
    STRATEGIES,
    IILBenchmark,
    PhaseContext,
    RunConfig,
    run_benchmark,
    run_phase_boundary_distill,
    run_phase_fine_tune,
    run_phase_full_data,
    run_phase_vanilla_distill,
    run_phases,
    setup_seed,
    setup_seeds,
    split_benchmark,
    standardized_benchmark,
    train_base,
    write_record_csv,
)
from boundary_distill.reporting import read_record_csv
from boundary_distill.seeding import derive_seed, rng_for, seed_sequence


def _blob_spec(seed=0, per_class=200):
    return SyntheticSpec(
        num_classes=2,
        dim=2,
        samples_per_class_base=per_class,
        samples_per_class_phase=max(per_class // 10, 2),
        cluster_means=np.array([[-3.0, 0.0], [3.0, 0.0]]),
        cluster_cov=np.eye(2),
        seed=seed,
    )


def _blob_bench(seed=0, phases=1, per_class=200):
    spec = _blob_spec(seed, per_class)
    return IILBenchmark(
        base=gen_base(spec),
        phases=tuple(gen_phase(spec, t) for t in range(1, phases + 1)),
        test=gen_test(spec, phases, 50),
        num_classes=2,
    )


def _drift_bench(seed=0, phases=2):
    spec = SyntheticSpec(samples_per_class_base=100, samples_per_class_phase=20, seed=seed)
    return IILBenchmark(
        base=gen_base(spec),
        phases=tuple(gen_phase(spec, t) for t in range(1, phases + 1)),
        test=gen_test(spec, phases, 20),
        num_classes=4,
    )


def _ctx(bench, config, phase_index):
    """Standardized benchmark and phase context, built as setup_seed builds them."""
    model_space = standardized_benchmark(bench)
    return model_space, PhaseContext(
        net_spec=config.network_spec(model_space.base.dim, model_space.num_classes),
        norm_stats=compute_norm_stats(model_space.base),
        test_set=model_space.test,
        base_set=model_space.base,
        phase_index=phase_index,
        seed=derive_seed(config.seed, "phase", phase_index),
    )


class TestSeeding:
    def test_derivation_is_deterministic_and_distinct(self):
        a = derive_seed(0, "phase", 1)
        assert a == derive_seed(0, "phase", 1)
        assert a != derive_seed(0, "phase", 2)
        assert a != derive_seed(1, "phase", 1)
        assert a != derive_seed(0, "noise", 1)
        assert 0 <= a < 2**64

    def test_streams_are_independent(self):
        x = rng_for(7, "shuffle").standard_normal(4)
        y = rng_for(7, "noise").standard_normal(4)
        assert not np.allclose(x, y)
        np.testing.assert_array_equal(x, rng_for(7, "shuffle").standard_normal(4))

    def test_a_repeated_label_is_hashed_once(self, monkeypatch):
        from boundary_distill import seeding

        real = hashlib.sha256
        hashed = []
        monkeypatch.setattr(seeding.hashlib, "sha256",
                            lambda data: hashed.append(data) or real(data))
        seeding._label_token.cache_clear()
        label = "a label only this test uses"
        token = int.from_bytes(real(label.encode("utf-8")).digest()[:8], "little")
        entropy = (5, token, 3)
        expected = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
        assert [derive_seed(5, label, 3) for _ in range(3)] == [expected] * 3
        np.testing.assert_array_equal(
            rng_for(5, label, 3).random(4),
            np.random.default_rng(np.random.SeedSequence(entropy)).random(4))
        assert hashed == [label.encode("utf-8")]
        derive_seed(2**70, 7, np.int64(-1))  # int parts are not cached
        assert seeding._label_token.cache_info().currsize == 1

    def test_path_part_types(self):
        assert seed_sequence(0, 3).entropy == seed_sequence(0, np.int64(3)).entropy
        with pytest.raises(TypeError, match="int or str"):
            seed_sequence(0, 1.5)


def _labeled_ids(n, num_classes, seed):
    """Dataset whose single feature is a unique id, labels round-robin."""
    ids = np.arange(n, dtype=np.float64)[:, None]
    labels = np.arange(n) % num_classes
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return Dataset(ids[perm], labels[perm])


class TestSplitBenchmark:
    def test_exact_partition(self):
        ds = _labeled_ids(5000, 4, seed=1)
        test = Dataset(np.array([[-1.0]]), np.array([0]))
        bench = split_benchmark(ds, 0.5, 10, seed=3, test=test)
        assert len(bench.base) == 2500
        assert sum(len(p) for p in bench.phases) == 2500
        pools = [bench.base, *bench.phases]
        seen = np.concatenate([p.features[:, 0] for p in pools])
        assert len(np.unique(seen)) == 5000  # disjoint and exhaustive

    def test_every_class_lands_in_base(self):
        # Class 2 appears exactly once; the base split must claim it.
        feats = np.arange(40, dtype=np.float64)[:, None]
        labels = np.array([0, 1] * 19 + [2, 0])
        ds = Dataset(feats, labels)
        test = Dataset(np.array([[0.0]]), np.array([0]))
        for seed in range(10):
            bench = split_benchmark(ds, 0.75, 2, seed=seed, test=test)
            assert 2 in bench.base.labels

    def test_deterministic(self):
        ds = _labeled_ids(400, 4, seed=2)
        test = Dataset(np.array([[0.0]]), np.array([0]))
        a = split_benchmark(ds, 0.5, 5, seed=11, test=test)
        b = split_benchmark(ds, 0.5, 5, seed=11, test=test)
        for pa, pb in zip([a.base, *a.phases], [b.base, *b.phases]):
            np.testing.assert_array_equal(pa.features, pb.features)
        c = split_benchmark(ds, 0.5, 5, seed=12, test=test)
        assert not np.array_equal(a.base.features, c.base.features)

    def test_uniform_phases_near_equal(self):
        ds = _labeled_ids(5000, 4, seed=1)
        test = Dataset(np.array([[0.0]]), np.array([0]))
        bench = split_benchmark(ds, 0.5, 10, seed=3, test=test)
        sizes = [len(p) for p in bench.phases]
        assert max(sizes) - min(sizes) <= 1

    def test_dirichlet_phases_are_imbalanced(self):
        # Within-phase max/min class-count ratio, averaged over 20 seeds,
        # should be well above 1.5 at alpha=5.
        ds = _labeled_ids(3000, 4, seed=0)
        test = Dataset(np.array([[0.0]]), np.array([0]))
        ratios = []
        for seed in range(20):
            bench = split_benchmark(
                ds, 0.5, 10, seed=seed, imbalance="dirichlet", test=test
            )
            for p in bench.phases:
                counts = np.bincount(p.labels, minlength=4)
                if counts.min() == 0:
                    ratios.append(5.0)  # degenerate: beyond any finite ratio
                else:
                    ratios.append(counts.max() / counts.min())
        assert statistics.mean(ratios) >= 1.5

    def test_validation(self):
        ds = _labeled_ids(100, 4, seed=0)
        test = Dataset(np.array([[0.0]]), np.array([0]))
        with pytest.raises(ValueError, match="base_fraction"):
            split_benchmark(ds, 1.0, 2, seed=0, test=test)
        with pytest.raises(ValueError, match="num_phases"):
            split_benchmark(ds, 0.5, 0, seed=0, test=test)
        with pytest.raises(ValueError, match="imbalance"):
            split_benchmark(ds, 0.5, 2, seed=0, imbalance="sorted", test=test)
        with pytest.raises(ValueError, match="dirichlet_alpha"):
            split_benchmark(ds, 0.5, 2, seed=0, imbalance="dirichlet", dirichlet_alpha=0.0,
                            test=test)
        missing = Dataset(np.ones((4, 1)), np.array([0, 0, 2, 2]))
        with pytest.raises(ValueError, match="class 1 missing"):
            split_benchmark(missing, 0.5, 1, seed=0, test=test)
        with pytest.raises(ValueError, match="cannot fill"):
            split_benchmark(ds, 0.99, 5, seed=0, test=test)


class TestBenchmarkInvariants:
    def test_zero_phases_allowed(self):
        bench = _blob_bench(phases=1)
        trimmed = IILBenchmark(bench.base, (), bench.test, 2)
        assert trimmed.num_phases == 0

    def test_rejects_structural_problems(self):
        bench = _blob_bench(phases=2)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="is empty"):
            IILBenchmark(bench.base, (empty,), bench.test, 2)
        bad_label = Dataset(np.zeros((1, 2)), np.array([2]))
        with pytest.raises(ValueError, match="label 2"):
            IILBenchmark(bench.base, (bad_label,), bench.test, 2)
        bad_dim = Dataset(np.zeros((1, 3)), np.array([0]))
        with pytest.raises(ValueError, match="dimensionality"):
            IILBenchmark(bench.base, (bad_dim,), bench.test, 2)
        no_class_one = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match=r"classes \[1\] missing"):
            IILBenchmark(no_class_one, bench.phases, bench.test, 2)

    def test_rejects_oversized_phase(self):
        bench = _blob_bench(phases=1)
        big = Dataset(np.zeros((len(bench.base) // 2, 2)), np.zeros(len(bench.base) // 2, dtype=int))
        with pytest.raises(ValueError, match="more than"):
            IILBenchmark(bench.base, (big,), bench.test, 2)

    def test_rejects_duplicate_sample_across_phases(self):
        bench = _blob_bench(phases=1)
        dup = bench.phases[0].subset(np.array([0, 1]))
        with pytest.raises(ValueError, match="shares a sample"):
            IILBenchmark(bench.base, (bench.phases[0], dup), bench.test, 2)

    def test_labels_apart_by_256_are_different_samples(self):
        # a sample's key holds its whole label, not the label modulo 256
        base = Dataset(np.arange(600.0).reshape(300, 2), np.arange(300))
        x = np.array([[0.5, 1.0]])
        IILBenchmark(base, (Dataset(x, np.array([1])), Dataset(x, np.array([257]))), base, 300)
        with pytest.raises(ValueError, match="phase 3 shares a sample"):
            IILBenchmark(base, (Dataset(x, np.array([1])), Dataset(x, np.array([257])),
                                Dataset(x, np.array([257]))), base, 300)


class TestTrainBase:
    def test_separable_blobs_learned(self):
        accs = []
        for seed in range(5):
            bench = standardized_benchmark(_blob_bench(seed=seed))
            config = RunConfig(strategy="fine_tune", seed=seed)
            model = train_base(bench, config)
            spec = config.network_spec(2, 2)
            probs = forward(model, spec, bench.test.features)
            acc = float((probs.argmax(axis=1) == bench.test.labels).mean())
            accs.append(acc)
        assert statistics.median(accs) > 0.95

    def test_deterministic(self):
        bench = standardized_benchmark(_blob_bench())
        config = RunConfig(seed=1, epochs_per_phase=5)
        np.testing.assert_array_equal(train_base(bench, config), train_base(bench, config))


class TestStrategyCollapse:
    def test_distill_collapses_to_fine_tune(self):
        # Zero distillation weight, one-hot targets, consolidation off and
        # an equal epoch budget must reproduce fine-tuning bit for bit.
        bench = _drift_bench(seed=0)
        collapsed = RunConfig(
            strategy="boundary_distill",
            epochs_per_phase=10,
            distill_weight=0.0,
            assign=LabelAssignment(inner="one_hot", outer="one_hot"),
            sched=ConsolidationSchedule(mode="off"),
            seed=0,
        )
        ft = RunConfig(strategy="fine_tune", fine_tune_epochs=10, seed=0)
        model_space, ctx = _ctx(bench, collapsed, 1)
        base = train_base(model_space, collapsed)
        res_bd = run_phase_boundary_distill(base, model_space.phases[0], collapsed, ctx)
        res_ft = run_phase_fine_tune(base, model_space.phases[0], ft, ctx)
        np.testing.assert_array_equal(res_bd.model, res_ft.model)
        assert res_bd.acc_test == res_ft.acc_test
        np.testing.assert_allclose(res_bd.loss_history, res_ft.loss_history, rtol=1e-12)


class TestFineTune:
    def test_zero_epochs_returns_incoming(self):
        bench = _blob_bench()
        config = RunConfig(strategy="fine_tune", seed=0)
        model_space, ctx = _ctx(bench, config, 1)
        base = train_base(model_space, config)
        res = run_phase_fine_tune(base, model_space.phases[0], replace(config, fine_tune_epochs=0),
                                  ctx)
        np.testing.assert_array_equal(res.model, base)

    def test_negative_epochs_rejected(self):
        bench = _blob_bench()
        config = RunConfig(strategy="fine_tune", seed=0)
        model_space, ctx = _ctx(bench, config, 1)
        base = train_base(model_space, config)
        with pytest.raises(ValueError, match=">= 0"):
            run_phase_fine_tune(base, model_space.phases[0], replace(config, fine_tune_epochs=-1),
                                ctx)


class TestVanillaDistill:
    def test_pure_exemplar_phase_stays_at_teacher(self):
        # With every sample an exemplar the student starts at the loss
        # floor (it equals the teacher), so the curve must hug the
        # teacher's mean entropy and the argmax must keep matching.
        bench = _drift_bench(seed=0)
        config = RunConfig(
            strategy="vanilla_distill", exemplar_fraction=1.0, epochs_per_phase=20, seed=0
        )
        model_space, ctx = _ctx(bench, config, 1)
        base = train_base(model_space, config)
        res = run_phase_vanilla_distill(base, model_space.phases[0], config, ctx)
        spec = ctx.net_spec
        probs = forward(base, spec, model_space.phases[0].features)
        floor = float(-(probs * np.log(probs)).sum(axis=1).mean())
        assert max(res.loss_history) < floor + 0.05
        student_probs = forward(res.model, spec, model_space.phases[0].features)
        agreement = float((student_probs.argmax(axis=1) == probs.argmax(axis=1)).mean())
        assert agreement >= 0.99

    def test_forgets_less_than_fine_tune(self):
        margins = []
        for seed in range(5):
            bench = _drift_bench(seed=seed, phases=2)
            vd = RunConfig(strategy="vanilla_distill", epochs_per_phase=10, seed=seed)
            ft = RunConfig(strategy="fine_tune", seed=seed)
            _, rec_vd = run_benchmark(bench, vd)
            _, rec_ft = run_benchmark(bench, ft)
            margins.append(rec_vd.forgetting - rec_ft.forgetting)
        assert statistics.median(margins) >= 0.0


def _dirichlet_csv_bench(seed=0, rows=900):
    """A 4-class mixture in 3 features split like the CSV route, with
    class-imbalanced phases of unequal sizes and a base split of rows / 2."""
    rng = np.random.default_rng(seed)
    means = 2.0 * rng.standard_normal((4, 3))

    def mixture(rows):
        labels = np.arange(rows) % 4
        return Dataset(means[labels] + rng.standard_normal((rows, 3)), labels)

    return split_benchmark(mixture(rows), 0.5, 10, seed=seed, imbalance="dirichlet",
                           test=mixture(200))


def _full_data_per_phase(setup, config, phases):
    """run_phase_full_data on the accumulated splits of phases 1..phases."""
    bench = setup.bench
    return [run_phase_full_data(Dataset.concat([bench.base, *bench.phases[:t]]), config,
                                setup.context(t))
            for t in range(1, phases + 1)]


class TestFullData:
    def test_phase_zero_equals_train_base(self):
        bench = _blob_bench()
        config = RunConfig(strategy="full_data", epochs_per_phase=10, seed=0)
        model_space, ctx = _ctx(bench, config, 0)
        base = train_base(model_space, config)  # epochs_per_phase=10, as run_phase_full_data
        res = run_phase_full_data(model_space.base, config, ctx)
        np.testing.assert_array_equal(res.model, base)

    @pytest.mark.parametrize(("make_bench", "batch_size"), [
        (lambda: _drift_bench(seed=0, phases=3), 64),
        (_dirichlet_csv_bench, 16),
    ], ids=["drift", "dirichlet_csv"])
    def test_stacked_phases_equal_per_phase_runs(self, make_bench, batch_size):
        bench = make_bench()
        config = RunConfig(strategy="full_data", epochs_per_phase=4, batch_size=batch_size,
                           seed=5)
        setup = setup_seed(bench, config)
        results, record = run_phases(setup, config, None)
        serial = _full_data_per_phase(setup, config, bench.num_phases)
        assert len(results) == bench.num_phases + 1
        for stacked, alone in zip(results[1:], serial):
            assert stacked.phase_index == alone.phase_index
            np.testing.assert_array_equal(stacked.model, alone.model)
            assert stacked.loss_history == alone.loss_history
            assert (stacked.acc_test, stacked.acc_base) == (alone.acc_test, alone.acc_base)
        assert record == protocol._record_from_results([results[0], *serial], config)


# one phase of a 2-8-8-4 tanh net on the drift benchmark, consolidating
# every third epoch after the second
STACK_CASES = {
    "scheduled": {},
    "per_iteration": {"sched": ConsolidationSchedule(mode="per_iteration")},
    "off": {"sched": ConsolidationSchedule(mode="off")},
    "tempered_softmax": {"fuse": FuseConfig(tau=0.7, variant="tempered_softmax")},
    "one_hot_inner_teacher_outer": {"assign": LabelAssignment(inner="one_hot", outer="teacher")},
}
STACK_KNOBS = {
    "delta": ("noise", [NoiseSpec(delta=d) for d in (0.02, 0.2, 1.0, 2.0, 4.0, 10.0)]),
    "weight": ("distill_weight", [0.1, 0.5, 2.0]),
    "zero_weight": ("noise", [NoiseSpec(delta=d) for d in (0.5, 4.0)]),
}


def _stack_setup(**changes):
    sched = ConsolidationSchedule(freeze_epochs=2, period_epochs=3)
    config = RunConfig(epochs_per_phase=12, batch_size=16, hidden_layers=(8, 8),
                       activation="tanh", sched=sched, seed=3)
    config = replace(config, **changes)
    return setup_seed(_drift_bench(seed=3), config), config


def _assert_same_phase(stacked, alone):
    # the student is evaluated apart only when it is another array
    assert (stacked.student_model is stacked.model) == (alone.student_model is alone.model)
    np.testing.assert_array_equal(stacked.model, alone.model)
    np.testing.assert_array_equal(stacked.student_model, alone.student_model)
    assert stacked.loss_history == alone.loss_history
    assert stacked.ema_history == alone.ema_history
    assert (stacked.acc_test, stacked.acc_base, stacked.student_acc_test) == (
        alone.acc_test, alone.acc_base, alone.student_acc_test)


class TestBoundaryDistillStack:
    @pytest.mark.parametrize("case", STACK_CASES)
    @pytest.mark.parametrize("knob", STACK_KNOBS)
    def test_stack_equals_stacks_of_one(self, case, knob):
        setup, config = _stack_setup(**STACK_CASES[case],
                                     distill_weight=0.0 if knob == "zero_weight" else 0.1)
        field, values = STACK_KNOBS[knob]
        configs = [replace(config, **{field: value}) for value in values]
        ctx, phase = setup.context(1), setup.bench.phases[0]
        stacked = protocol._boundary_distill_lanes([setup.base_model], [phase], configs, [ctx])
        assert len(stacked) == len(configs)
        for res, cfg in zip(stacked, configs):
            _assert_same_phase(res, run_phase_boundary_distill(setup.base_model, phase, cfg, ctx))
        if case == "off":
            assert all(res.model is res.student_model for res in stacked)

    def test_configs_must_differ_only_in_delta_and_weight(self):
        setup, config = _stack_setup()
        ctx, phase = setup.context(1), setup.bench.phases[0]
        for other, message in ((replace(config, lr_incremental=0.5), "may differ only"),
                               (replace(config, noise=NoiseSpec(mu=0.5)), "may differ only"),
                               (replace(config, distill_weight=0.0), "all > 0 or all 0")):
            with pytest.raises(ValueError, match=message):
                protocol._boundary_distill_lanes([setup.base_model], [phase], [config, other],
                                                 [ctx])

    def test_diverging_model_fails_alone(self):
        # a huge distillation weight makes the middle model diverge; the
        # other two keep every bit of their lone runs
        setup, config = _stack_setup()
        configs = [replace(config, distill_weight=w) for w in (0.1, 1e300, 2.0)]
        ctx, phase = setup.context(1), setup.bench.phases[0]
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = protocol._boundary_distill_lanes([setup.base_model], [phase], configs, [ctx])
            with pytest.raises(FloatingPointError) as alone:
                run_phase_boundary_distill(setup.base_model, phase, configs[1], ctx)
        assert isinstance(stacked[1], FloatingPointError)
        assert str(stacked[1]) == str(alone.value)
        assert str(alone.value).startswith("boundary_distill, phase 1, epoch ")
        for i in (0, 2):
            _assert_same_phase(stacked[i], run_phase_boundary_distill(
                setup.base_model, phase, configs[i], ctx))


# two phases of a 2-8-4 net on the drift benchmark (80-row phases, 16-row
# batches), consolidating at epochs 2, 4 and 6
PINNED_SCHED = ConsolidationSchedule(freeze_epochs=1, period_epochs=2)
PINNED_CASES = {
    "fused": {},
    "one_hot": {"assign": LabelAssignment(inner="one_hot", outer="one_hot")},
    "teacher": {"assign": LabelAssignment(inner="teacher", outer="teacher")},
    "mixed": {"assign": LabelAssignment(inner="teacher", outer="fused")},
    "zero_weight": {"distill_weight": 0.0},
    "tempered_softmax": {"fuse": FuseConfig(tau=0.7, variant="tempered_softmax")},
    "noise_mu": {"noise": NoiseSpec(mu=0.3)},
    "per_iteration": {"sched": replace(PINNED_SCHED, mode="per_iteration")},
    "off": {"sched": replace(PINNED_SCHED, mode="off")},
    "zero_std": {},
    "short_last_batch": {"batch_size": 24},
}
# sha256 of every phase's outgoing teacher and student parameters and loss
# history, frozen from the per-minibatch generators of
# default_rng(derive_seed(seed, "noise", epoch, batch))
PINNED_DIGESTS = {
    "fused-seeds": "d6f772bda2f75fb3e94b94cb84ca38c2cbed86b4f6ca5e89a273dfcd4a1b722a",
    "fused-values": "cdab6dd4d0c94def11596f000785956dd0c40b4c2e5dbdae7c1604fb26660d36",
    "one_hot-seeds": "cb4b90c51598e7ea11062b8b30ef4c3d5cdcd28b2878ec5ae53e5365e72ec0d1",
    "one_hot-values": "95a74e2f36de17961901de4392c8b786f0b2d5e0c61b6c23f5b1816b991f5c59",
    "teacher-seeds": "20721196814fd5e70f0d4344b311d19a3523b4d9c76363327026c586c7b761aa",
    "teacher-values": "a808a8b260734d093244cbe60ab779e9cc62131e1e616c099a82c52c95e342c2",
    "mixed-seeds": "4d45d9b3b46116bac696be679c3650ee43ff39047a7560ce8a9ce886b2ca1ae3",
    "mixed-values": "de9f09fd7cdb6d4aeaf468428ab4574b0b48f48c2c1a05067d52220cfff88fe5",
    "zero_weight-seeds": "37be934c31b329895b1b10006a12d119d72fe36a8d8b487a9e81364e99373fac",
    "zero_weight-values": "32c35bbc8b4c8671c659b54f01f7cb624bd1c43dcc4a1f49219b00de442f3f6d",
    "tempered_softmax-seeds": "6fa09eeb0f257a26a4a4b75c9862bbe81c491a4872a216699a888999f8bcdbb7",
    "tempered_softmax-values": "0fdd11d8374542137c6ea640402019e99a180c0ec37cf127c961f11b658ade44",
    "noise_mu-seeds": "182120fc363166055f981fb0b58acf3edfae11b45c7a4dede1c54bee111a58c4",
    "noise_mu-values": "2d58757fe605d5f262d67c86cbe6c81b79ff5b0eeb01142e4314cddae19be8d8",
    "per_iteration-seeds": "477fc761dde154019e09dda8d880b79f720e0f2ef748b96370f9d8e8c00d83dd",
    "per_iteration-values": "275fc2869a69584965be148ad986de038b3836a9812c5d14483caba28f168cf6",
    "off-seeds": "3e34e5f13149fcfb80f50bd63c2cab21a612acc45b2d0f1cac7f52def1472639",
    "off-values": "bbfa516d9f7966fdd7dcc1008f7ee8ea2eb49d5422240f8110d9c021f773da0b",
    "zero_std-seeds": "1fb134016c41ea6d0f2a8c073b7774c9c3bbf347797ea951721198f14ec4a94d",
    "zero_std-values": "f2d763b2d6a07454b3b5d52dd98a222c88b98b346c6f7fef6d3b5c7db7625ff1",
    "short_last_batch-seeds": "8f93cf93ec632765c6b087e554fd9f803079769b55e0b30490b4933f9ac2f312",
    "short_last_batch-values": "9e0ee2a58ddb5e35203f3ecc29ebed9eb4159ac291c78907d96788fd3cc56cd4",
}


def _pinned_two_phases(case, mode):
    """(teacher, student, loss history) of each model after each of two
    boundary_distill phases: a stack of 2 seeds, one lane each, or a stack
    of 3 sweep values on one lane."""
    config = RunConfig(epochs_per_phase=6, batch_size=16, hidden_layers=(8,), sched=PINNED_SCHED)
    config = replace(config, **PINNED_CASES[case])
    seeds = (0, 1) if mode == "seeds" else (2,)
    configs = [replace(config, seed=s) for s in seeds]
    setups = setup_seeds([_drift_bench(seed=s) for s in seeds], configs)
    if mode == "values":
        weights = (0.0,) * 3 if config.distill_weight == 0 else (0.1, 0.5, 2.0)
        configs = [replace(config, seed=2, distill_weight=w, noise=replace(config.noise, delta=d))
                   for d, w in zip((0.5, 2.0, 4.0), weights)]
    models = [setups[0].base_model] * len(configs) if mode == "values" else [
        s.base_model for s in setups]
    out = []
    for t in (1, 2):
        ctxs = [s.context(t) for s in setups]
        if case == "zero_std":
            ctxs = [replace(c, norm_stats=replace(c.norm_stats, std=c.norm_stats.std * [1.0, 0.0]))
                    for c in ctxs]
        results = protocol._boundary_distill_lanes(
            models, [s.bench.phases[t - 1] for s in setups],
            configs if mode == "values" else [configs[0]] * 2, ctxs)
        models = [r.model for r in results]
        out += [(r.model, r.student_model, r.loss_history) for r in results]
    return out


class TestBoundaryDistillPinned:
    @pytest.mark.parametrize("mode", ["seeds", "values"])
    @pytest.mark.parametrize("case", PINNED_CASES)
    def test_phases_are_pinned(self, case, mode):
        if case == "zero_std":
            with pytest.warns(RuntimeWarning, match="zero std"):
                phases = _pinned_two_phases(case, mode)
        else:
            phases = _pinned_two_phases(case, mode)
        digest = hashlib.sha256()
        for teacher, student, losses in phases:
            digest.update(teacher.tobytes() + student.tobytes() + repr(losses).encode())
        assert digest.hexdigest() == PINNED_DIGESTS[f"{case}-{mode}"]


def test_teacher_is_unpacked_once_per_consolidation_event(monkeypatch):
    # the teacher changes only when consolidation replaces it: with events
    # at epochs 2, 4 and 6 of 6, the teacher stack's layer views are made
    # for the incoming models and after epochs 2 and 4, and never per
    # minibatch (the teacher of epoch 6 takes no more minibatches)
    from boundary_distill import distill

    shapes = []
    real = distill.unpack_params
    monkeypatch.setattr(distill, "unpack_params",
                        lambda params, spec: shapes.append(params.shape) or real(params, spec))
    config = RunConfig(epochs_per_phase=6, batch_size=16, hidden_layers=(8,), sched=PINNED_SCHED)
    setups = setup_seeds([_drift_bench(seed=s) for s in (0, 1)],
                         [replace(config, seed=s) for s in (0, 1)])
    results = protocol._boundary_distill_lanes(
        [s.base_model for s in setups], [s.bench.phases[0] for s in setups], [config] * 2,
        [s.context(1) for s in setups])
    assert [[epoch for epoch, _ in r.ema_history] for r in results] == [[2, 4, 6]] * 2
    assert shapes == [(2, setups[0].net_spec.num_params)] * 3


# the other strategies and base training, over two phases of a 2-8-4 net on
# the drift benchmark: 400-row base splits, 80-row phases and 22-row batches,
# so every loop (base, each phase, each full_data retrain, the exemplar mix)
# ends on a short batch
STRATEGY_PINNED_CASES = {
    "base": ("fine_tune", {}),
    "fine_tune": ("fine_tune", {}),
    "vanilla_distill": ("vanilla_distill", {}),
    "vanilla_all_exemplars": ("vanilla_distill", {"exemplar_fraction": 1.0}),
    "vanilla_no_exemplars": ("vanilla_distill", {"exemplar_fraction": 0.0}),
    "full_data": ("full_data", {}),
}
# sha256 of every outgoing model (and student) and loss history, frozen
# from the separate training loops of base training, fine_tune,
# vanilla_distill and full_data
STRATEGY_PINNED_DIGESTS = {
    "base-S2": "64d929a0850e309a44913a73c7c3dad838389c7553f426d84dae2a39eb1dea4c",
    "base-S1": "e17e5f510bf1bcae2c5804998f0c16abd91e8f37ac702948e205a9b111b6bbdb",
    "fine_tune-S2": "378c578c39050548ffd6d2ddfb0e4809c2c538700f655cc1880c40684719c6e2",
    "fine_tune-S1": "7fd10d2c7b1643ff05dcca66363d3de07aeeb08d990b85341c3c2653d23b1204",
    "vanilla_distill-S2": "16d35d0114ca20b942c263ffc48605c52b84f06c21865002f11deb5ad8b274ad",
    "vanilla_distill-S1": "5dbde9c4a18fbf3dae629c80f2cca22e41e66ca3129c546226013f7f8c783692",
    "vanilla_all_exemplars-S2": "e9f5863552eecb82e3d6ea8c7ebb126a11f09cddd45c9b97fe8a5f368dac6c31",
    "vanilla_all_exemplars-S1": "99202af275ae33856c364fe69ee975d31d8cbba9a9a29b63fd08af9db6c847be",
    "vanilla_no_exemplars-S2": "fed93a6d0f25a52e782500a86d3c57961ebe8b1874698dc1edbbef625d6f335f",
    "vanilla_no_exemplars-S1": "65d043444d99ee51f96599997b48958eda7c750b605437f64235e57693bdaafb",
    "full_data-S2": "28634cd57ae3e7074f6bcfa0f657f3be5f313139b2371af67cf092c9ede82f40",
    "full_data-S1": "95572be6d49174f006039ee188905336ab7dc1603522e119186908487b9af0e4",
}


def _pinned_strategy(case, seeds):
    """(model, student, loss history) of each seed's base model and phases:
    a stack of the given seeds. For "base", each base model and the loss
    history of the same from-scratch training alone."""
    strategy, changes = STRATEGY_PINNED_CASES[case]
    config = RunConfig(strategy=strategy, epochs_per_phase=4, fine_tune_epochs=3, batch_size=22,
                       hidden_layers=(8,), **changes)
    configs = [replace(config, seed=s) for s in seeds]
    setups = setup_seeds([_drift_bench(seed=s) for s in seeds], configs)
    if case == "base":
        return [(s.base_model, s.base_model,
                 run_phase_full_data(s.bench.base, c, s.context(0)).loss_history)
                for s, c in zip(setups, configs)]
    return [(r.model, r.student_model, r.loss_history)
            for results, _ in protocol.run_seed_stack(setups, configs, None) for r in results]


class TestStrategiesPinned:
    @pytest.mark.parametrize("seeds", [(0, 1), (2,)], ids=["S2", "S1"])
    @pytest.mark.parametrize("case", STRATEGY_PINNED_CASES)
    def test_phases_are_pinned(self, case, seeds):
        digest = hashlib.sha256()
        for model, student, losses in _pinned_strategy(case, seeds):
            digest.update(model.tobytes() + student.tobytes() + repr(losses).encode())
        assert digest.hexdigest() == STRATEGY_PINNED_DIGESTS[f"{case}-S{len(seeds)}"]


def _wide_bench(seed=0, phases=2):
    """A 10-class mixture in 8 features: 400-row base splits, 80-row phases."""
    spec = SyntheticSpec(num_classes=10, dim=8, samples_per_class_base=40,
                         samples_per_class_phase=8, seed=seed)
    return IILBenchmark(
        base=gen_base(spec),
        phases=tuple(gen_phase(spec, t) for t in range(1, phases + 1)),
        test=gen_test(spec, phases, 10),
        num_classes=10,
    )


# every strategy and base training over two phases of an 8-32-10 net: ten
# classes take NumPy's own row reductions (see network._row_reduce) and the
# 32-unit layer wider matmul tiles than the 2-8-4 cases above; 22-row
# batches end every loop on a short batch, and boundary_distill
# consolidates at epochs 2 and 4
WIDE_PINNED_DIGESTS = {
    "base-S2": "1cc3d43eb95bfdd580e69405300dbd2a8857aa2f34ebe243d86ab0cf499be6a0",
    "base-S1": "63addf2b6124848dda46122fe11275d8ca436c1bf84476f79af332df00ca58d4",
    "fine_tune-S2": "ad13536dc6a29a3b1b65adb9d3df21febb3836f54c2d2d272a2a50003bab9d1e",
    "fine_tune-S1": "6ccf6a36c0e12338296e76ed9a407621fe1e0402263aa31cfd624eb5019f9712",
    "vanilla_distill-S2": "e47658598ebd01dab4d388e422da5e5933284ea3087b4081212855deb6974320",
    "vanilla_distill-S1": "435f19e1f4da4ee24e2c1e04f7cbfa683ef53563ca9cee44b921b5182ee52cab",
    "full_data-S2": "aad1c2d115d8843e60e3e434784bff4da484341f0ae01313f9fddbff8367cbf6",
    "full_data-S1": "09224af5a510bd6ec87472f62bce58f2c7b18dab3bfc681f4cfc192441aab625",
    "boundary_distill-S2": "87f83999f06f385abddbb77375e9e9b577a945c478d4478803b5413c65794877",
    "boundary_distill-S1": "efc2bfb5b6e28355bb4093caf06058333b7609ba9af8b5154abef3c76abe456c",
}


def _pinned_wide(case, seeds):
    """(model, student, loss history) of each seed's base model and phases,
    as _pinned_strategy gives them, on the 10-class mixture."""
    config = RunConfig(strategy="fine_tune" if case == "base" else case, epochs_per_phase=4,
                       fine_tune_epochs=3, batch_size=22, hidden_layers=(32,), sched=PINNED_SCHED)
    configs = [replace(config, seed=s) for s in seeds]
    setups = setup_seeds([_wide_bench(seed=s) for s in seeds], configs)
    if case == "base":
        return [(s.base_model, s.base_model,
                 run_phase_full_data(s.bench.base, c, s.context(0)).loss_history)
                for s, c in zip(setups, configs)]
    return [(r.model, r.student_model, r.loss_history)
            for results, _ in protocol.run_seed_stack(setups, configs, None) for r in results]


class TestWideStrategiesPinned:
    @pytest.mark.parametrize("seeds", [(0, 1), (2,)], ids=["S2", "S1"])
    @pytest.mark.parametrize("case", ["base", *STRATEGIES])
    def test_phases_are_pinned(self, case, seeds):
        digest = hashlib.sha256()
        for model, student, losses in _pinned_wide(case, seeds):
            digest.update(model.tobytes() + student.tobytes() + repr(losses).encode())
        assert digest.hexdigest() == WIDE_PINNED_DIGESTS[f"{case}-S{len(seeds)}"]


def _uniform_csv_bench(seed=0):
    """One 4-class mixture in 3 features, the same rows for every seed,
    split like the CSV route under uniform_random: equal split sizes."""
    rng = np.random.default_rng(11)
    means = 2.0 * rng.standard_normal((4, 3))

    def mixture(rows):
        labels = np.arange(rows) % 4
        return Dataset(means[labels] + rng.standard_normal((rows, 3)), labels)

    train, test = mixture(900), mixture(200)
    return split_benchmark(train, 0.5, 10, seed=seed, test=test)


SEED_BENCHES = {
    "drift": lambda seed: _drift_bench(seed=seed, phases=3),
    "uniform_csv": _uniform_csv_bench,
}


def _seed_configs(strategy, seeds):
    # 24-row batches leave a short last batch on every split; the teacher
    # consolidates at epochs 2 and 4
    sched = ConsolidationSchedule(freeze_epochs=1, period_epochs=2)
    return [RunConfig(strategy=strategy, epochs_per_phase=4, fine_tune_epochs=3, batch_size=24,
                      sched=sched, seed=seed) for seed in seeds]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestSeedStack:
    @pytest.mark.parametrize("bench", SEED_BENCHES)
    @pytest.mark.parametrize("seeds", [(0, 1), (2, 3, 4)], ids=["S2", "S3"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stack_equals_stacks_of_one(self, strategy, seeds, bench, tmp_path):
        configs = _seed_configs(strategy, seeds)
        setups = [setup_seed(SEED_BENCHES[bench](seed), config)
                  for seed, config in zip(seeds, configs)]
        stacked = protocol.run_seed_stack(setups, configs, tmp_path / "stack")
        for (results, record), setup, config in zip(stacked, setups, configs):
            alone, alone_record = run_phases(setup, config, tmp_path / "alone")
            assert record == alone_record
            assert len(results) == len(alone) == setup.bench.num_phases + 1
            for res, res_alone in zip(results, alone):
                _assert_same_phase(res, res_alone)
        assert _files(tmp_path / "stack") == _files(tmp_path / "alone")

    def test_seeds_stack_by_split_sizes(self, monkeypatch):
        # dirichlet phases differ in size from seed to seed, so those seeds
        # train alone; the two drift seeds share sizes and stack
        stack_sizes = []
        real = protocol._fine_tune_seeds

        def spy(models_prev, phase_datas, configs, ctxs):
            stack_sizes.append((ctxs[0].phase_index, len(ctxs)))
            return real(models_prev, phase_datas, configs, ctxs)

        monkeypatch.setattr(protocol, "_fine_tune_seeds", spy)
        configs = _seed_configs("fine_tune", (0, 1, 2, 3))
        benches = [_dirichlet_csv_bench(0), _drift_bench(1, phases=3), _dirichlet_csv_bench(2),
                   _drift_bench(3, phases=3)]
        assert len(benches[0].phases[0]) != len(benches[2].phases[0])
        setups = [setup_seed(b, c) for b, c in zip(benches, configs)]
        stacked = protocol.run_seed_stack(setups, configs, None)
        assert sorted(stack_sizes) == sorted([(t, 1) for t in range(1, 11)] * 2
                                             + [(t, 2) for t in (1, 2, 3)])
        monkeypatch.undo()
        for (results, record), setup, config in zip(stacked, setups, configs):
            alone, alone_record = run_phases(setup, config, None)
            assert record == alone_record
            for res, res_alone in zip(results, alone):
                _assert_same_phase(res, res_alone)

    def test_configs_must_differ_only_in_the_seed(self):
        configs = _seed_configs("fine_tune", (0, 1))
        setups = [setup_seed(_drift_bench(s), c) for s, c in zip((0, 1), configs)]
        with pytest.raises(ValueError, match="differ only in the seed"):
            protocol.run_seed_stack(setups, [configs[0], replace(configs[1], lr_incremental=0.5)],
                                    None)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_poisoned_seed_fails_alone(self, strategy, tmp_path):
        # a phase-2 row of seed 1 scaled to -1e200 makes that seed diverge;
        # seed 0 keeps every bit of its lone run
        configs = _seed_configs(strategy, (0, 1))
        bench = _drift_bench(seed=1, phases=3)
        second = bench.phases[1]
        features = second.features.copy()
        features[2] *= -1e200
        poisoned = replace(bench, phases=(bench.phases[0], Dataset(features, second.labels),
                                          bench.phases[2]))
        setups = [setup_seed(_drift_bench(seed=0, phases=3), configs[0]),
                  setup_seed(poisoned, configs[1])]
        with np.errstate(over="ignore", invalid="ignore"):
            (results, record), failed = protocol.run_seed_stack(setups, configs,
                                                                 tmp_path / "stack")
            alone, alone_record = run_phases(setups[0], configs[0], tmp_path / "alone")
            with pytest.raises(FloatingPointError) as alone_failed:
                run_phases(setups[1], configs[1], tmp_path / "alone")
        assert isinstance(failed, FloatingPointError)
        assert str(failed) == str(alone_failed.value)
        assert str(failed).startswith(f"{strategy}, phase 2")
        assert record == alone_record
        for res, res_alone in zip(results, alone):
            _assert_same_phase(res, res_alone)
        files = _files(tmp_path / "stack")
        assert files == _files(tmp_path / "alone")
        assert f"record_{strategy}_partial_seed1.csv" in files


class TestRunBenchmark:
    def test_bitwise_reproducible(self):
        bench = _drift_bench(seed=0)
        config = RunConfig(epochs_per_phase=6, seed=0)
        res_a, rec_a = run_benchmark(bench, config)
        res_b, rec_b = run_benchmark(bench, config)
        assert rec_a == rec_b
        for ra, rb in zip(res_a, res_b):
            np.testing.assert_array_equal(ra.model, rb.model)

    def test_model_length_never_changes(self):
        bench = _drift_bench(seed=1)
        config = RunConfig(epochs_per_phase=4, seed=1)
        results, _ = run_benchmark(bench, config)
        spec = config.network_spec(2, 4)
        assert {r.model.size for r in results} == {spec.num_params}

    def test_record_shape_and_summaries(self):
        bench = _drift_bench(seed=0, phases=3)
        config = RunConfig(strategy="fine_tune", epochs_per_phase=4, seed=0)
        results, rec = run_benchmark(bench, config)
        assert [p.phase for p in rec.per_phase] == [0, 1, 2, 3]
        accs = [p.acc_test for p in rec.per_phase]
        assert rec.pp == pytest.approx(accs[-1] - accs[0], abs=1e-12)
        assert rec.forgetting == pytest.approx(
            rec.per_phase[-1].acc_base - rec.per_phase[0].acc_base, abs=1e-15
        )
        assert rec.strategy == "fine_tune"

    def test_zero_phase_benchmark_runs(self):
        bench = _blob_bench(phases=1)
        trimmed = IILBenchmark(bench.base, (), bench.test, 2)
        config = RunConfig(strategy="fine_tune", epochs_per_phase=3, seed=0)
        results, rec = run_benchmark(trimmed, config)
        assert len(results) == 1
        assert math.isnan(rec.pp) and math.isnan(rec.forgetting)

    def test_record_files_byte_identical(self, tmp_path):
        bench = _drift_bench(seed=2)
        config = RunConfig(strategy="fine_tune", epochs_per_phase=4, seed=2)
        _, rec = run_benchmark(bench, config, out_dir=tmp_path / "a")
        _, _ = run_benchmark(bench, config, out_dir=tmp_path / "b")
        name = "record_fine_tune_seed2.csv"
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b
        assert read_record_csv(tmp_path / "a" / name) == rec

    def test_partial_record_flushed_on_failure(self, tmp_path, monkeypatch):
        bench = _drift_bench(seed=0, phases=3)
        config = RunConfig(strategy="fine_tune", epochs_per_phase=3, seed=0)
        import boundary_distill.protocol as protocol

        real = protocol._fine_tune_seeds

        def explode_on_phase_two(models_prev, phase_datas, configs, ctxs):
            if ctxs[0].phase_index == 2:
                raise RuntimeError("injected failure")
            return real(models_prev, phase_datas, configs, ctxs)

        monkeypatch.setattr(protocol, "_fine_tune_seeds", explode_on_phase_two)
        with pytest.raises(RuntimeError, match="injected"):
            run_benchmark(bench, config, out_dir=tmp_path)
        partial = read_record_csv(tmp_path / "record_fine_tune_partial_seed0.csv")
        assert partial.strategy == "fine_tune(partial)"
        assert [p.phase for p in partial.per_phase] == [0, 1]

    def test_complete_record_removes_partial(self, tmp_path, monkeypatch):
        # a failed run leaves a partial record; a later successful run of the
        # same strategy and seed must not leave it beside the complete one
        self.test_partial_record_flushed_on_failure(tmp_path, monkeypatch)
        monkeypatch.undo()
        bench = _drift_bench(seed=0, phases=3)
        run_benchmark(bench, RunConfig(strategy="fine_tune", epochs_per_phase=3, seed=0),
                      out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["record_fine_tune_seed0.csv"]

    def test_failed_rerun_removes_complete_record(self, tmp_path):
        # a rerun that fails must not leave the earlier run's complete record
        # beside its partial one, where report would read it as this run's
        bench = _drift_bench(seed=0, phases=2)
        config = RunConfig(strategy="fine_tune", epochs_per_phase=3, seed=0)
        run_benchmark(bench, config, out_dir=tmp_path)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            run_benchmark(bench, replace(config, lr_incremental=1e300), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["record_fine_tune_partial_seed0.csv"]


class TestDivergence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_phase_loop_raises_naming_strategy_phase_epoch(self, strategy):
        bench = _drift_bench(seed=0)
        config = RunConfig(strategy=strategy, epochs_per_phase=3, fine_tune_epochs=3, seed=0)
        setup = setup_seed(bench, config)
        exploding = replace(config, lr_incremental=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            if strategy == "full_data":  # retrains at the base rate
                with pytest.raises(FloatingPointError, match=r"full_data, phase 1, epoch \d"):
                    run_phase_full_data(bench.base, replace(config, lr_base=1e300),
                                        setup.context(1))
            else:
                with pytest.raises(FloatingPointError, match=rf"{strategy}, phase 1, epoch \d"):
                    run_phases(setup, exploding, None)

    def test_diverging_full_data_phase_fails_alone(self, tmp_path):
        # a phase-3 row scaled to -1e200 (far across the origin, so it is
        # misclassified) makes phases 3 and 4 diverge in epoch 2; the stacked
        # phases 1 and 2 keep every bit of their lone runs
        bench = _drift_bench(seed=0, phases=4)
        third = bench.phases[2]
        features = third.features.copy()
        features[2] *= -1e200
        bench = replace(bench, phases=(*bench.phases[:2], Dataset(features, third.labels),
                                       bench.phases[3]))
        config = RunConfig(strategy="full_data", epochs_per_phase=3, seed=0)
        setup = setup_seed(bench, config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"^full_data, phase 3, epoch 2: ") as stacked:
                run_phases(setup, config, tmp_path)
            with pytest.raises(FloatingPointError) as alone:
                _full_data_per_phase(setup, config, 3)
        assert str(stacked.value) == str(alone.value)
        partial = read_record_csv(tmp_path / "record_full_data_partial_seed0.csv")
        assert [p.phase for p in partial.per_phase] == [0, 1, 2]
        for phase, res in zip(partial.per_phase[1:], _full_data_per_phase(setup, config, 2)):
            assert (phase.acc_test, phase.acc_base) == (res.acc_test, res.acc_base)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_non_finite_outgoing_model_fails(self, strategy, monkeypatch):
        # One epoch of one batch: its loss is taken before the only update,
        # which the injected step makes infinite, so only the check on the
        # outgoing parameters can see it.
        bench = _drift_bench(seed=0)
        config = RunConfig(strategy=strategy, epochs_per_phase=1, fine_tune_epochs=1,
                           batch_size=10_000, sched=ConsolidationSchedule(mode="off"), seed=0)
        setup = setup_seed(bench, config)
        real_step = network.Trainer.step

        def overflowing_step(self, *args):
            losses = real_step(self, *args)
            self.params[..., 0] = np.inf
            return losses

        monkeypatch.setattr(network.Trainer, "step", overflowing_step)
        with pytest.raises(FloatingPointError,
                           match="base training, phase 0: outgoing parameters are not finite"):
            setup_seed(bench, config)
        with pytest.raises(FloatingPointError,
                           match=f"{strategy}, phase 1: outgoing parameters are not finite"):
            run_phases(setup, config, None)


class TestSeedSetup:
    def test_phase_models_reproduce_their_accuracies(self):
        # phase runners update their working vector in place; no phase may
        # write into a model an earlier phase returned (grids are exported
        # from them after the walk)
        bench = _drift_bench(seed=4, phases=3)
        sched = ConsolidationSchedule(freeze_epochs=1, period_epochs=1)
        configs = [RunConfig(strategy=s, epochs_per_phase=4, sched=sched, seed=4)
                   for s in STRATEGIES]
        setup = setup_seed(bench, configs[0])
        before = setup.base_model.copy()
        for config in configs:
            results, _ = run_phases(setup, config, None)
            for res in results:
                assert accuracy(res.model, setup.net_spec, setup.bench.test) == res.acc_test
                assert accuracy(res.model, setup.net_spec, setup.bench.base) == res.acc_base
                assert accuracy(res.student_model, setup.net_spec,
                                setup.bench.test) == res.student_acc_test
        assert not setup.base_model.flags.writeable
        np.testing.assert_array_equal(setup.base_model, before)

    def test_phase0_is_evaluated_once_per_seed(self, monkeypatch):
        # every strategy's phase 0 is the setup's base_result, whose two
        # accuracies the setup took once
        bench = _drift_bench(seed=4)
        evaluated = []
        real = protocol.accuracy
        monkeypatch.setattr(protocol, "accuracy",
                            lambda model, *args: evaluated.append(model) or real(model, *args))
        setup = setup_seed(bench, RunConfig(epochs_per_phase=2, seed=4))
        assert setup.base_result is setup.base_result
        assert [model is setup.base_model for model in evaluated] == [True, True]
        assert (setup.base_result.acc_test, setup.base_result.acc_base) == (
            real(setup.base_model, setup.net_spec, setup.bench.test),
            real(setup.base_model, setup.net_spec, setup.bench.base))
        for strategy in STRATEGIES:
            results, _ = run_phases(setup, RunConfig(strategy=strategy, epochs_per_phase=2,
                                                     seed=4), None)
            assert results[0] is setup.base_result
        assert sum(model is setup.base_model for model in evaluated) == 2

    def test_shared_setup_matches_separate_runs(self):
        bench = _drift_bench(seed=3)
        configs = [RunConfig(strategy=s, epochs_per_phase=4, seed=3) for s in STRATEGIES]
        setup = setup_seed(bench, configs[0])
        before = setup.base_model.copy()
        for config in configs:
            shared_results, shared_record = run_phases(setup, config, None)
            results, record = run_benchmark(bench, config)
            assert shared_record == record
            for a, b in zip(shared_results, results):
                np.testing.assert_array_equal(a.model, b.model)
        # every strategy started from copies: the shared base is untouched
        np.testing.assert_array_equal(setup.base_model, before)
        assert not setup.base_model.flags.writeable

    def test_rejects_config_with_another_base_model(self):
        bench = _drift_bench(seed=0)
        setup = setup_seed(bench, RunConfig(epochs_per_phase=2, seed=0))
        for changed in (RunConfig(epochs_per_phase=2, seed=1),
                        RunConfig(epochs_per_phase=2, lr_base=0.1, seed=0)):
            with pytest.raises(ValueError, match="seed setup"):
                run_phases(setup, changed, None)


def _assert_same_setup(stacked, alone):
    for split_a, split_b in zip((stacked.bench.base, stacked.bench.test, *stacked.bench.phases),
                                (alone.bench.base, alone.bench.test, *alone.bench.phases)):
        np.testing.assert_array_equal(split_a.features, split_b.features)
        np.testing.assert_array_equal(split_a.labels, split_b.labels)
    np.testing.assert_array_equal(stacked.norm_stats.mean, alone.norm_stats.mean)
    np.testing.assert_array_equal(stacked.norm_stats.std, alone.norm_stats.std)
    np.testing.assert_array_equal(stacked.base_model, alone.base_model)
    assert (stacked.net_spec, stacked.base_config) == (alone.net_spec, alone.base_config)
    assert not stacked.base_model.flags.writeable


class TestSeedGroupSetup:
    @pytest.mark.parametrize("bench", SEED_BENCHES)
    def test_stack_equals_setups_of_one(self, bench):
        seeds = (0, 1, 2)
        configs = _seed_configs("boundary_distill", seeds)
        benches = [SEED_BENCHES[bench](seed) for seed in seeds]
        setups = setup_seeds(benches, configs)
        for setup, b, config in zip(setups, benches, configs):
            _assert_same_setup(setup, setup_seed(b, config))

    def test_seeds_stack_by_base_size(self, monkeypatch):
        # the dirichlet CSV splits of 900 rows share a 450-row base split and
        # stack; the one of 800 rows and the 2-feature drift seed train alone
        stack_seeds = []
        real = protocol._fit_from_scratch

        def spy(datasets, sizes, spec, configs, epochs, wheres):
            stack_seeds.append(tuple(c.seed for c in configs))
            return real(datasets, sizes, spec, configs, epochs, wheres)

        monkeypatch.setattr(protocol, "_fit_from_scratch", spy)
        configs = _seed_configs("boundary_distill", (0, 1, 2, 3))
        benches = [_dirichlet_csv_bench(0), _dirichlet_csv_bench(1, rows=800),
                   _dirichlet_csv_bench(2), _drift_bench(3)]
        setups = setup_seeds(benches, configs)
        assert stack_seeds == [(0, 2), (1,), (3,)]
        monkeypatch.undo()
        for setup, bench, config in zip(setups, benches, configs):
            _assert_same_setup(setup, setup_seed(bench, config))

    def test_diverging_seed_fails_alone(self, monkeypatch):
        # seed 1 starts from 1e300 times its initialization, so its base
        # training diverges in epoch 1; seeds 0 and 2 keep every bit
        configs = _seed_configs("boundary_distill", (0, 1, 2))
        benches = [_drift_bench(seed) for seed in (0, 1, 2)]
        clean = setup_seeds(benches, configs)
        real = protocol.init_network
        poisoned = derive_seed(1, "init")
        monkeypatch.setattr(protocol, "init_network", lambda spec, seed: real(spec, seed) * (
            1e300 if seed == poisoned else 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            setups = setup_seeds(benches, configs)
            with pytest.raises(FloatingPointError) as alone:
                setup_seed(benches[1], configs[1])
        assert isinstance(setups[1], FloatingPointError)
        assert str(setups[1]) == str(alone.value)
        assert str(alone.value).startswith("base training, phase 0, epoch 1: ")
        for s in (0, 2):
            _assert_same_setup(setups[s], clean[s])

    def test_configs_must_differ_only_in_the_seed(self):
        configs = _seed_configs("boundary_distill", (0, 1))
        benches = [_drift_bench(0), _drift_bench(1)]
        with pytest.raises(ValueError, match="differ only in the seed"):
            setup_seeds(benches, [configs[0], replace(configs[1], lr_base=0.5)])


class TestStandardizedBenchmark:
    def test_base_split_is_centered(self):
        bench = _drift_bench(seed=0)
        model_space = standardized_benchmark(bench)
        np.testing.assert_allclose(model_space.base.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(model_space.base.features.std(axis=0), 1.0, atol=1e-12)

    def test_all_splits_share_base_stats(self):
        bench = _drift_bench(seed=1)
        model_space = standardized_benchmark(bench)
        stats = compute_norm_stats(bench.base)
        for raw, cooked in zip(
            [bench.base, bench.test, *bench.phases],
            [model_space.base, model_space.test, *model_space.phases],
        ):
            np.testing.assert_array_equal(cooked.features, standardize(raw.features, stats))
            np.testing.assert_array_equal(cooked.labels, raw.labels)


class TestRunConfig:
    def test_incremental_rate_defaults_to_tenth(self):
        config = RunConfig(lr_base=0.2)
        assert config.lr_incremental_resolved == pytest.approx(0.02, rel=1e-15)
        assert RunConfig(lr_base=0.2, lr_incremental=0.5).lr_incremental_resolved == 0.5

    def test_digest_tracks_content(self):
        # the identity of an experiment: every seed shares it, and any other
        # field or the data changes it
        assert RunConfig(seed=0).digest() == RunConfig(seed=0).digest()
        assert RunConfig(seed=0).digest() == RunConfig(seed=1).digest()
        assert RunConfig(seed=0).digest() != RunConfig(seed=0, lr_base=0.3).digest()
        assert RunConfig().digest() != RunConfig(strategy="fine_tune").digest()
        assert RunConfig().digest("a") != RunConfig().digest("b") != RunConfig().digest()

    def test_network_spec_shape(self):
        spec = RunConfig(hidden_layers=(16,)).network_spec(2, 4)
        assert spec.layer_sizes == (2, 16, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            RunConfig(strategy="sgd")
        with pytest.raises(ValueError, match="epochs_per_phase"):
            RunConfig(epochs_per_phase=0)
        with pytest.raises(ValueError, match="lr_base"):
            RunConfig(lr_base=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig(batch_size=0)
        with pytest.raises(ValueError, match="distill_weight"):
            RunConfig(distill_weight=-0.1)
        with pytest.raises(ValueError, match="exemplar_fraction"):
            RunConfig(exemplar_fraction=1.5)
