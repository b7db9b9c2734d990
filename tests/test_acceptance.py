"""End-to-end acceptance gate, one test per criterion.

Criteria 1-5, 9 are property/identity checks on the core math (gradients,
consolidation algebra, label fusion, metric arithmetic, schedule timing,
strategy collapse). Criteria 6-8 reproduce the directional claims on the
reference synthetic benchmark: 4 classes in 2-D, a 2000-sample base pool,
10 phases of 200 samples, seeds 0-4, medians across seeds. Criterion 10 is
byte-level reproducibility of the run records.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line with its measured
margins (run ``pytest -s`` to see the lines as they pass). The reference
runs are shared module-wide; the whole gate targets a couple of minutes.
"""

import statistics
from dataclasses import replace

import numpy as np
import pytest

from boundary_distill.cli import _sweep_cell
from boundary_distill.config import ExperimentConfig
from boundary_distill.consolidation import (
    ConsolidationSchedule,
    EmaState,
    adaptive_momentum,
    closed_form_teacher,
    consolidate,
    should_consolidate,
    with_mode,
)
from boundary_distill.data import Dataset, compute_norm_stats
from boundary_distill.distill import (
    FuseConfig,
    LabelAssignment,
    NoiseSpec,
    distillation_loss,
    fuse_labels_batch,
)
from boundary_distill.metrics import forgetting_rate, performance_promotion
from boundary_distill.network import NetworkSpec, loss_and_grad, one_hot
from boundary_distill.protocol import run_benchmark, run_seed_stack, setup_seeds

SEEDS = (0, 1, 2, 3, 4)
med = statistics.median


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def benchmarks(config):
    return {seed: config.build_benchmark(seed) for seed in SEEDS}


def _raise_failures(items: list) -> list:
    """The items, unless one of them is an exception, which is raised."""
    for item in items:
        if isinstance(item, Exception):
            raise item
    return items


@pytest.fixture(scope="module")
def setups(config, benchmarks):
    """One setup per seed, the base models trained once, as one stack; every
    strategy below walks from them, as `run` does."""
    return _raise_failures(setup_seeds([benchmarks[seed] for seed in SEEDS],
                                       [config.run_config("boundary_distill", seed)
                                        for seed in SEEDS]))


def _seed_runs(setups, run_configs) -> list:
    """(results, record) per seed of SEEDS, the seeds walked as one stack."""
    return _raise_failures(run_seed_stack(setups, run_configs, None))


@pytest.fixture(scope="module")
def reference_runs(config, setups):
    """(results, record) per (strategy, seed) for the compared strategies."""
    out = {}
    for strategy in ("full_data", "boundary_distill", "fine_tune"):
        runs = _seed_runs(setups, [config.run_config(strategy, seed) for seed in SEEDS])
        out.update({(strategy, seed): run for seed, run in zip(SEEDS, runs)})
    return out


@pytest.fixture(scope="module")
def per_iteration_finals(config, setups):
    """Final teacher test accuracy when the EMA fires every minibatch."""
    run_configs = []
    for seed in SEEDS:
        rc = config.run_config("boundary_distill", seed)
        run_configs.append(replace(rc, sched=with_mode(rc.sched, "per_iteration")))
    return [record.per_phase[-1].acc_test for _, record in _seed_runs(setups, run_configs)]


# --- 1: gradients -----------------------------------------------------------


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / scale


def _central_diff(fn, params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        up = fn(bumped)
        bumped[i] -= 2 * h
        down = fn(bumped)
        grad[i] = (up - down) / (2 * h)
    return grad


def test_criterion_01_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for case in range(24):
        dim = int(rng.integers(2, 5))
        classes = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(w) for w in rng.integers(3, 7, size=depth))
        spec = NetworkSpec((dim, *hidden, classes))
        params = rng.standard_normal(spec.num_params) * 0.7
        batch = rng.standard_normal((int(rng.integers(2, 9)), dim))
        labels = rng.integers(0, classes, size=batch.shape[0])

        if case % 2 == 0:
            targets = one_hot(labels, classes)

            def objective(p):
                return loss_and_grad(p, spec, batch, targets)[0]

            analytic = loss_and_grad(params, spec, batch, targets)[1]
        else:
            teacher = rng.standard_normal(spec.num_params) * 0.7
            stats = compute_norm_stats(Dataset(batch, labels))
            noise = NoiseSpec(delta=1.5, seed=int(rng.integers(1 << 16)))

            def objective(p):
                terms, _ = distillation_loss(
                    p, teacher, spec, batch, labels, stats, noise,
                    FuseConfig(), 0.3, rng=np.random.default_rng(77),
                )
                return terms.total

            _, analytic = distillation_loss(
                params, teacher, spec, batch, labels, stats, noise,
                FuseConfig(), 0.3, rng=np.random.default_rng(77),
            )

        worst = max(worst, _relative_error(analytic, _central_diff(objective, params)))
    _verdict(1, worst < 1e-4, f"worst relative error {worst:.3e} over 24 networks")


# --- 2: consolidation algebra ------------------------------------------------


def test_criterion_02_closed_form_matches_recursion():
    rng = np.random.default_rng(2)
    worst = 0.0
    for alpha in (0.0, 0.5, 500.0 / 515.0, 0.99, 1.0):
        teacher0 = rng.standard_normal(40)
        students = [rng.standard_normal(40) for _ in range(200)]
        state = EmaState(teacher=teacher0)
        for n, student in enumerate(students, start=1):
            state = consolidate(state, student, alpha)
            direct = closed_form_teacher(teacher0, students[:n], alpha)
            worst = max(worst, float(np.max(np.abs(state.teacher - direct))))
    _verdict(2, worst < 1e-10, f"max coordinate error {worst:.3e} for n <= 200")


# --- 3: fused labels ----------------------------------------------------------


def test_criterion_03_fused_label_invariants():
    rng = np.random.default_rng(3)
    fuse = FuseConfig()
    checked = 0
    failures = []
    while checked < 10_000:
        classes = int(rng.integers(2, 9))
        rows = min(int(rng.integers(1, 257)), 10_000 - checked)
        labels = rng.integers(0, classes, size=rows)
        concentration = float(rng.uniform(0.1, 5.0))
        teacher = rng.dirichlet(np.full(classes, concentration), size=rows)
        fused = fuse_labels_batch(one_hot(labels, classes), teacher, fuse)

        if not (np.abs(fused.sum(axis=1) - 1.0) <= 1e-9).all() or fused.min() < -1e-9:
            failures.append("simplex")
        target = fused[np.arange(rows), labels]
        target_teacher = teacher[np.arange(rows), labels]
        if not np.allclose(target, (1.0 + target_teacher) / 2.0, atol=1e-12, rtol=0.0):
            failures.append("target sharpening")
        if (target < target_teacher - 1e-12).any():
            failures.append("target not promoted")
        off = ~np.eye(classes, dtype=bool)[labels]
        if not np.allclose(fused[off], teacher[off] / 2.0, atol=1e-12, rtol=0.0):
            failures.append("non-target halving")
        for r in range(rows):
            others = np.flatnonzero(np.arange(classes) != labels[r])
            order = np.argsort(teacher[r, others], kind="stable")
            if not np.array_equal(order, np.argsort(fused[r, others], kind="stable")):
                failures.append("rank order")
                break
        checked += rows
    _verdict(3, not failures, f"{checked} cases, violations: {sorted(set(failures)) or 'none'}")


# --- 4: metric arithmetic -----------------------------------------------------


def test_criterion_04_metric_identities():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        ladder = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 24)))
        worst = max(worst, abs(performance_promotion(ladder) - (ladder[-1] - ladder[0])))
    telescopes = worst < 1e-12

    sign_ok = forgetting_rate(final_base_acc=0.61, initial_base_acc=0.83) < 0

    row = [64.34, *np.random.default_rng(40).uniform(60.0, 70.0, size=9), 69.27]
    promoted = performance_promotion(row)
    row_ok = abs(promoted - 4.93) < 1e-9

    _verdict(
        4,
        telescopes and sign_ok and row_ok,
        f"telescope error {worst:.2e}, drop sign negative {sign_ok}, "
        f"64.34->69.27 gives {promoted:+.2f}",
    )


# --- 5: strategy collapse -----------------------------------------------------


def test_criterion_05_distill_collapses_to_fine_tune(config, benchmarks):
    bench = benchmarks[0]
    # equal budgets everywhere (base stage included) so only the strategy
    # dispatch path differs between the two trajectories
    ft_config = replace(config.run_config("fine_tune", 0), epochs_per_phase=10)
    ft_results, _ = run_benchmark(bench, ft_config)
    collapsed = replace(
        config.run_config("boundary_distill", 0),
        epochs_per_phase=10,
        distill_weight=0.0,
        assign=LabelAssignment(inner="one_hot", outer="one_hot"),
        sched=with_mode(ConsolidationSchedule(), "off"),
    )
    bd_results, _ = run_benchmark(bench, collapsed)
    same = len(ft_results) == len(bd_results) and all(
        np.array_equal(f.model, b.model) for f, b in zip(ft_results, bd_results)
    )
    _verdict(5, same, f"{len(ft_results)} phase models compared bitwise")


# --- 6: strategy orderings ----------------------------------------------------


def test_criterion_06_reference_benchmark_orderings(reference_runs):
    finals, pps, forgettings = {}, {}, {}
    for strategy in ("full_data", "boundary_distill", "fine_tune"):
        records = [reference_runs[strategy, seed][1] for seed in SEEDS]
        finals[strategy] = med(r.per_phase[-1].acc_test for r in records)
        pps[strategy] = [r.pp for r in records]
        forgettings[strategy] = med(r.forgetting for r in records)

    a = finals["full_data"] >= finals["boundary_distill"] >= finals["fine_tune"]
    b = abs(forgettings["boundary_distill"]) < abs(forgettings["fine_tune"])
    positive_seeds = sum(1 for v in pps["boundary_distill"] if v > 0)
    c = positive_seeds >= 4 and med(pps["boundary_distill"]) > med(pps["fine_tune"])
    d = med(pps["fine_tune"]) <= 0.01

    _verdict(
        6,
        a and b and c and d,
        f"(a) {finals['full_data']:.4f} >= {finals['boundary_distill']:.4f} >= "
        f"{finals['fine_tune']:.4f}: {a}; "
        f"(b) |{forgettings['boundary_distill']:+.4f}| < "
        f"|{forgettings['fine_tune']:+.4f}|: {b}; "
        f"(c) positive in {positive_seeds}/5, median "
        f"{med(pps['boundary_distill']):+.4f} vs {med(pps['fine_tune']):+.4f}: {c}; "
        f"(d) fine_tune median {med(pps['fine_tune']):+.4f} <= 0.01: {d}",
    )


# --- 7: consolidation schedule vs per-iteration EMA ---------------------------


def test_criterion_07_scheduled_ema_beats_per_iteration(
    reference_runs, per_iteration_finals
):
    scheduled_finals = [
        reference_runs["boundary_distill", seed][1].per_phase[-1].acc_test
        for seed in SEEDS
    ]
    a = med(per_iteration_finals) <= med(scheduled_finals)

    # teacher vs its student at the last phase boundary, median across seeds
    student_finals = [
        reference_runs["boundary_distill", seed][0][-1].student_acc_test
        for seed in SEEDS
    ]
    b = med(scheduled_finals) >= med(student_finals)

    _verdict(
        7,
        a and b,
        f"per-iteration {med(per_iteration_finals):.4f} <= scheduled "
        f"{med(scheduled_finals):.4f}: {a}; teacher {med(scheduled_finals):.4f} >= "
        f"student {med(student_finals):.4f}: {b}",
    )


# --- 8: sensitivity sweep shape ------------------------------------------------


def _phase1_student_medians(config, knob: str, grid: tuple[float, ...]) -> dict:
    """Median phase-1 student accuracy over SEEDS for each grid value."""
    accs = {value: [] for value in grid}
    for seed in SEEDS:
        for cell in _sweep_cell(config, knob, grid, seed):
            assert cell["status"] == "ok", cell.get("error")
            accs[cell["value"]].append(cell["acc_student"])
    return {value: med(values) for value, values in accs.items()}


def test_criterion_08_sweep_shapes(config):
    noise_curve = _phase1_student_medians(config, "delta", config.grid_delta)
    largest = config.grid_delta[-1]
    best_interior = max(noise_curve[v] for v in config.grid_delta[:-1])
    a = noise_curve[largest] < best_interior

    weight_medians = _phase1_student_medians(config, "lambda", config.grid_lambda)
    weight_curve = [weight_medians[value] for value in config.grid_lambda]
    spread = max(weight_curve) - min(weight_curve)
    b = spread < 0.01

    _verdict(
        8,
        a and b,
        f"noise: largest value {noise_curve[largest]:.4f} < best interior "
        f"{best_interior:.4f}: {a}; weight spread {spread:.4f} < 0.01: {b}",
    )


# --- 9: schedule timing ---------------------------------------------------------


def test_criterion_09_schedule_fires_and_momentum():
    sched = ConsolidationSchedule()
    fires = [epoch for epoch in range(1, 61) if should_consolidate(epoch, sched)]
    fires_ok = fires == list(range(15, 61, 5))

    alpha15 = adaptive_momentum(15, sched)
    expected = min(0.99, 1.0 - 15.0 / 515.0)
    alpha_ok = abs(alpha15 - expected) < 1e-9

    _verdict(
        9,
        fires_ok and alpha_ok,
        f"fires {fires[0]}..{fires[-1]} step 5 ({len(fires)} times): {fires_ok}; "
        f"alpha(15) = {alpha15:.5f} vs {expected:.5f}: {alpha_ok}",
    )


# --- 10: byte-level reproducibility ---------------------------------------------


def test_criterion_10_records_reproduce_byte_identically(config, benchmarks, tmp_path):
    rc = config.run_config("boundary_distill", 0)
    payloads = []
    for sub in ("first", "second"):
        run_benchmark(benchmarks[0], rc, out_dir=tmp_path / sub)
        payloads.append(
            (tmp_path / sub / "record_boundary_distill_seed0.csv").read_bytes()
        )
    identical = payloads[0] == payloads[1]
    _verdict(10, identical, f"two runs, {len(payloads[0])} byte records compared")
