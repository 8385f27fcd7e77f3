"""Run the synthaudit CLI with spans recorded around each layer's public functions.

    python bench/traced_cli.py SPANS_JSON RUN_ID -- CLI_ARGS...

The functions in LAYERS are wrapped from outside the package: every
attribute of a loaded ``synthaudit`` module (or class) that is bound to the
wrapped function object is replaced, so re-imports such as
``synthaudit.linkage.detect_outliers`` are traced without naming importers.
A function that no longer exists is listed under ``missing`` rather than
failing the run. Spans stay in memory and are written to SPANS_JSON when the
CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# (module, qualified name, layer). The layer is the module name plus the
# operation; the benchmark reports <layer>_s as the layer's self time.
LAYERS = (
    ("synthaudit.config", "load_config", "config.load"),
    ("synthaudit.dataset", "load_dataset", "dataset.load"),
    ("synthaudit.dataset", "save_dataset", "dataset.save"),
    ("synthaudit.outliers", "detect_outliers", "outliers.detect"),
    ("synthaudit.dp_synth", "synthesize", "dp_synth.synthesize"),
    ("synthaudit.utility", "compute_utility", "utility.compute"),
    ("synthaudit.linkage", "attack", "linkage.attack"),
    ("synthaudit.linkage", "save_matches", "linkage.save_matches"),
    ("synthaudit.report", "write_report", "report.write"),
    ("synthaudit.audit", "run_audit", "audit.run"),
    ("synthaudit.audit", "sweep_epsilon", "audit.sweep"),
    ("synthaudit.comparators", "ComparatorSpec.score", "comparators.score"),
)
ROOT_LAYER = "cli.main"


def _count_attack(args, result, counts: dict) -> None:
    targets, rows = result.attack_surface
    counts["linkage.candidate_pairs"] = counts.get("linkage.candidate_pairs", 0) + targets * rows
    counts["linkage.matches"] = counts.get("linkage.matches", 0) + len(result.pairs)
    counts["linkage.unique_matches"] = counts.get("linkage.unique_matches", 0) + result.unique_match_count


def _count_detect(args, result, counts: dict) -> None:
    counts["outliers.targets"] = counts.get("outliers.targets", 0) + len(result)


def _count_load(args, result, counts: dict) -> None:
    counts["dataset.rows_kept"] = counts.get("dataset.rows_kept", 0) + result.row_count
    counts.setdefault("dataset.paths", []).append(str(args[0]))


def _count_save(args, result, counts: dict) -> None:
    counts["dataset.rows_written"] = counts.get("dataset.rows_written", 0) + args[0].row_count


COUNTERS = {
    "linkage.attack": _count_attack,
    "outliers.detect": _count_detect,
    "dataset.load": _count_load,
    "dataset.save": _count_save,
}


class Tracer:
    """Spans as [id, parent id, layer, start, end] plus exact counts per layer."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict = {}
        self.missing: list[str] = []
        self.uncounted: list[str] = []
        self._stack: list[int] = []

    def call(self, layer: str, fn, args, kwargs):
        span_id = len(self.spans)
        span = [span_id, self._stack[-1] if self._stack else None, layer, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span_id)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(layer)
        if counter is not None and layer not in self.uncounted:
            try:
                counter(args, result, self.counts)
            except (AttributeError, TypeError, ValueError, IndexError):
                self.uncounted.append(layer)
        return result

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for module_name, qualname, layer in LAYERS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(layer)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if not callable(target):
                self.missing.append(layer)
                continue
            wrapper = self.wrap(layer, target)
            holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "synthaudit"]
            holders += [
                cls for m in list(holders) for cls in vars(m).values()
                if inspect.isclass(cls) and cls.__module__.startswith("synthaudit")
            ]
            replaced = 0
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is target:
                        setattr(holder, key, wrapper)
                        replaced += 1
            if not replaced:  # e.g. bound through a descriptor, so nothing traced
                self.missing.append(layer)

    def dump(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "layer", "start", "end"],
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
            "uncounted": self.uncounted,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    import synthaudit.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.call(ROOT_LAYER, synthaudit.cli.main, (cli_args,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
