#!/usr/bin/env python3
"""Run one courtlift CLI command in-process with timing wrappers on its layers.

Usage:
  python3 perfbench/trace_cli.py SUMMARY.json COMMAND [ARGS...]

COMMAND and ARGS are what a user passes to ``courtlift``; they go to
``courtlift.cli.main`` unchanged. Before the call, each layer's entry
point is replaced by a wrapper that records a span (layer, start, end,
parent span, rows handled). Every wrapped name is a module-level name
that courtlift looks up at call time, so the package itself is not
edited. A name that no longer exists is listed as absent instead of
failing the run.

Spans stay in memory; when the command returns, the per-layer totals
and the command's self time are written to SUMMARY.json, and the
process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter


def _rows_of_result(args, kwargs, result) -> int:
    return len(result)


def _rows_of_arg(position: int, name: str):
    def rows(args, kwargs, result) -> int:
        return len(args[position] if len(args) > position else kwargs[name])

    return rows


def _rows_written(args, kwargs, result) -> int:
    return len((args[0] if args else kwargs["ds"]).samples)


def _rows_read(args, kwargs, result) -> int:
    return len(result.samples)


# (layer, module, attribute, rows handled per call or None)
LAYERS = (
    ("synth.generate_dataset", "courtlift.cli", "generate_dataset", _rows_of_result),
    ("dataio.write_dataset", "courtlift.cli", "write_dataset", _rows_written),
    ("dataio.read_dataset", "courtlift.cli", "read_dataset", _rows_read),
    ("cli.sample_arrays", "courtlift.cli", "_sample_arrays", _rows_of_arg(0, "samples")),
    ("predictors.predict_heights", "courtlift.cli", "predict_heights", _rows_of_result),
    ("predictors.predict_diameters", "courtlift.cli", "predict_diameters", _rows_of_result),
    (
        "reconstruct.height_batch",
        "courtlift.cli",
        "reconstruct_from_height_batch",
        _rows_of_arg(1, "cal_index"),
    ),
    (
        "reconstruct.diameter_batch",
        "courtlift.cli",
        "reconstruct_from_diameter_batch",
        _rows_of_arg(1, "cal_index"),
    ),
    ("metrics.evaluate_arrays", "courtlift.cli", "evaluate_arrays", _rows_of_arg(0, "truth_xyz")),
    ("synth.sample_ball", "courtlift.synth", "sample_ball", None),
)

# Modules whose own `stream` name is rebound to the traced rng.stream.
STREAM_MODULES = ("courtlift.rng", "courtlift.synth", "courtlift.predictors", "courtlift.dataio")

COMMAND_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.absent: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, layer: str, fn, rows, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append((layer, 0.0, 0.0, parent, 0))
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (layer, start, end, parent, 0)
        if rows is not None:
            self.spans[index] = (layer, start, end, parent, rows(args, kwargs, result))
        return result

    def wrap(self, layer: str, fn, rows):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, rows, args, kwargs)

        return traced

    def install(self) -> None:
        for layer, module_name, attr, rows in LAYERS:
            module = _import_or_none(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(layer)
                continue
            setattr(module, attr, self.wrap(layer, fn, rows))
        rng = _import_or_none("courtlift.rng")
        stream = getattr(rng, "stream", None)
        if stream is None:
            self.absent.append("rng.stream")
            return
        traced_stream = self.wrap("rng.stream", stream, None)
        for module_name in STREAM_MODULES:
            module = _import_or_none(module_name)
            if getattr(module, "stream", None) is stream:
                setattr(module, "stream", traced_stream)

    def summary(self) -> dict:
        layers: dict[str, dict] = {}
        for layer, start, end, _, rows in self.spans:
            entry = layers.setdefault(layer, {"calls": 0, "seconds": 0.0, "rows": 0})
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["rows"] += rows
        command = [i for i, span in enumerate(self.spans) if span[0] == COMMAND_SPAN]
        command_s = sum(self.spans[i][2] - self.spans[i][1] for i in command)
        self_s = sum(_self_time(self.spans, i) for i in command)
        return {
            "layers": layers,
            "command_s": command_s,
            "self_s": self_s,
            "absent": self.absent,
        }


def _import_or_none(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _self_time(spans, index: int) -> float:
    """Span duration minus the part of it covered by its direct children."""
    _, start, end, _, _ = spans[index]
    intervals = sorted((s[1], s[2]) for s in spans if s[3] == index)
    covered = 0.0
    reach = start
    for lo, hi in intervals:
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, cli_argv = argv[0], argv[1:]
    cli = importlib.import_module("courtlift.cli")
    tracer = Tracer()
    tracer.install()
    code = tracer.call(COMMAND_SPAN, cli.main, None, (cli_argv,), {})
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
