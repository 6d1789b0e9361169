"""Outside-in layer trace for the benchmark.

The program has no tracing of its own yet, so the benchmark wraps the
program's entry points from outside. Each wrapper is installed where its
caller looks the name up (``harness`` imports ``attention_map`` by name, so
the harness module's binding is patched, not only the projection module's),
records one span per call (name, start, end, parent span, op id) plus the
layer's work counters, and is removed again when the op's CLI call returns,
so the benchmark's own output checks never show up in the trace.

Spans are kept in flat arrays in memory and written out once, when the run
ends. A layer's self time is its span duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(position: int):
    """Counter of the rows of the (n, D) array passed at ``position``."""
    return lambda args, result: {"rows": args[position].shape[0]}


def _values(args, result) -> dict:
    return {"values": args[1]}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _probes():
    """(owner, attribute, span name, counter function) for every traced boundary."""
    from fuzzydiff import cli, config, core, denoiser, harness, projection, sampler

    field, gmm = denoiser.GaussianFieldModel, denoiser.GmmPixelModel
    return [
        (cli, "entrypoint", "cli.entrypoint", None),
        (cli, "load_config", "config.load", None),
        (cli, "build_model", "denoiser.build", None),
        (config, "linear_schedule", "schedule.build", None),
        (core.RngStream, "normals", "core.rng.normals", _values),
        (core.RngStream, "uniforms", "core.rng.uniforms", _values),
        (core.Grid, "__init__", "core.grid", lambda args, result: {"constructs": 1}),
        (field, "predict_array", "denoiser.gaussian_field.predict", _rows(1)),
        (gmm, "predict_array", "denoiser.gmm_pixel.predict", _rows(1)),
        (field, "sample_x0", "denoiser.sample_x0", None),
        (gmm, "sample_x0", "denoiser.sample_x0", None),
        (cli, "fuzzy_sample", "sampler.fuzzy", None),
        (harness, "fuzzy_sample", "sampler.fuzzy", None),
        # The reverse step is private, but it is the one boundary where the
        # per-step arithmetic of every chain (sampler and projection) shows.
        (sampler, "_reverse_step_array", "sampler.ancestral", None),
        (projection, "_reverse_step_array", "sampler.ancestral", None),
        (projection, "project_reconstruct_array", "projection.reconstruct", _rows(2)),
        (cli, "validation_stats", "projection.validation_stats", None),
        (harness, "validation_stats", "projection.validation_stats", None),
        (cli, "attention_map", "projection.attention_map", None),
        (harness, "attention_map", "projection.attention_map", None),
        (cli, "run_correction_experiment", "harness.experiment", None),
        (harness, "pixel_auc", "harness.metrics", None),
        (harness, "masked_mse", "harness.metrics", None),
        (cli, "degrade", "harness.degrade", None),
        (harness, "degrade", "harness.degrade", None),
        (cli, "write_grid", "gridio.write", _file_bytes),
        (harness, "write_grid", "gridio.write", _file_bytes),
        (projection, "write_grid", "gridio.write", _file_bytes),
        (cli, "read_grid", "gridio.read", _file_bytes),
        (config, "read_grid", "gridio.read", _file_bytes),
        (projection, "read_grid", "gridio.read", _file_bytes),
    ]


class Tracer:
    """Spans and counters of one traced run; single-threaded (ops run with --workers 1)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, counter):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counts, stack = self.counts, self._stack
        calls_key = f"{name}.calls"

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self, op_id: int):
        """Patch every probe in place for the duration of one op."""
        self.op_id = op_id
        saved = []
        try:
            for owner, attr, name, counter in _probes():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        per_name = np.bincount(
            np.asarray(self.name_id),
            weights=dur - child,
            minlength=len(self.names),
        )
        return dict(zip(self.names, per_name.tolist()))

    def save(self, path) -> None:
        """Write every span and counter; start/end are perf_counter seconds."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)]),
        )
