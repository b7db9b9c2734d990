"""Traced rounds of a workload, in one process, through `cli.main`.

Usage: python3 perfbench/tracer.py SPEC.json  (with the checkout's src/ on
PYTHONPATH). SPEC holds the CLI argument lists of one round, the output
directory, a time budget in seconds and the path of the result file.

Wrappers around the public functions through which each layer of the
program is entered record, per span name, the call count, the total time
and the self time (total minus the time of wrapped calls nested inside).
Spans are aggregated in memory per round and written out at the end.
Nothing in the program changes: the wrappers replace module attributes in
this process only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import shutil
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name or None, count name or None). A span name
# shared by several functions adds their times; None means count only.
TARGETS = (
    ("cli", "_run_cell", "cli.cell", "cli.cells"),
    ("cli", "_sweep_cell", "cli.cell", "cli.cells"),
    ("config", "ExperimentConfig.build_benchmark", "data.build", "data.build_calls"),
    ("data", "standardize", "data.standardize", "data.standardize_calls"),
    ("data", "load_csv", "data.load_csv", None),
    ("protocol", "split_benchmark", "data.split", None),
    ("protocol", "train_base", "protocol.base_train", "protocol.base_train_calls"),
    ("protocol", "run_phase_boundary_distill", "protocol.phase.boundary_distill", None),
    ("protocol", "run_phase_fine_tune", "protocol.phase.fine_tune", None),
    ("protocol", "run_phase_vanilla_distill", "protocol.phase.vanilla_distill", None),
    ("protocol", "run_phase_full_data", "protocol.phase.full_data", None),
    ("network", "forward", "network.forward", "network.forward_calls"),
    ("network", "backward", "network.backward", "network.backward_calls"),
    ("network", "loss_and_grad", "network.loss_and_grad", None),
    ("network", "sgd_step", "network.sgd_step", None),
    ("network", "unpack_params", None, "network.unpack_calls"),
    ("distill", "distillation_loss", "distill.loss", "distill.loss_calls"),
    ("distill", "perturb_inputs", "distill.perturb", None),
    ("seeding", "seed_sequence", "seeding", "seeding.streams"),
    ("seeding", "rng_for", "seeding", None),
    ("seeding", "derive_seed", "seeding", None),
    ("consolidation", "consolidate", "consolidation", "consolidation.events"),
    ("consolidation", "adaptive_momentum", "consolidation", None),
    ("consolidation", "should_consolidate", "consolidation", None),
    ("metrics", "accuracy", "metrics.accuracy", "metrics.accuracy_calls"),
    ("reporting", "export_boundary_grid", "reporting.grid", "reporting.grid_calls"),
    ("reporting", "export_report", "reporting.report", None),
    ("protocol", "write_record_csv", "reporting.record", None),
    ("reporting", "read_record_csv", "reporting.record", None),
)
PACKAGE = "boundary_distill"


class Tracer:
    """Per-round span aggregates: counts, total and self seconds."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, seconds of nested spans]
        self.reset()

    def reset(self) -> None:
        self.counts: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.cell_s: list[float] = []
        self.base_seeds: set[int] = set()

    def snapshot(self) -> dict:
        return {
            "counts": dict(self.counts),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "cell_s": list(self.cell_s),
            "base_seeds": len(self.base_seeds),
        }

    def wrap(self, fn, span: str | None, count: str | None):
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[count] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            self._observe(span, args)
            frame = [span, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
                if span == "cli.cell":
                    self.cell_s.append(elapsed)
        return timed

    def _observe(self, span: str, args: tuple) -> None:
        if span == "protocol.base_train":
            self.base_seeds.add(args[1].seed)  # train_base(bench, config, ...)
        elif span == "network.sgd_step" and any(
            name.startswith("protocol.phase.") for name, _ in self.stack
        ):
            self.counts["protocol.sgd_steps"] += 1

    def install(self) -> None:
        """Replace every reference to each target inside the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr, span, count in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), span, count))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span, count)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    deadline = time.perf_counter() + spec["seconds"]
    from boundary_distill import cli  # noqa: PLC0415 - import after the clock starts

    tracer = Tracer()
    tracer.install()
    out = Path(spec["out"])
    rounds = []
    with open(spec["log"], "a") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        while True:
            shutil.rmtree(out, ignore_errors=True)
            tracer.reset()
            start = time.perf_counter()
            codes = [cli.main(list(argv)) for argv in spec["commands"]]
            elapsed = time.perf_counter() - start
            rounds.append({**tracer.snapshot(), "codes": codes, "wall_s": elapsed,
                           "write_bytes": tree_bytes(out)})
            if time.perf_counter() + elapsed > deadline:
                break
    Path(spec["result"]).write_text(json.dumps(rounds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
