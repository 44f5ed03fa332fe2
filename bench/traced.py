"""Traced replay of the CLI handlers' own sequence of public genpos calls.

Each op runs the calls `genpos.cli` makes for that command, with a span
around every call into a layer. Spans are kept in memory; a layer's self
time is its spans' durations minus the part covered by their child spans.
The replay must print byte for byte what the CLI prints; the harness
compares the two.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from workloads import Op


class Tracer:
    """Spans as [name, start, end, parent index, op id], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def self_times(self) -> dict[str, Counter]:
        """Per op id, the summed self time of each span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, Counter] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out.setdefault(op, Counter())[name] += end - start - covered[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


class Replay:
    """Runs ops as spans of public calls and counts the work per layer."""

    def __init__(self, gp, tracer: Tracer):
        self.gp = gp
        self.tracer = tracer
        self.counts = Counter()
        self._patterns: dict[tuple[int, int], int] = {}

    def run(self, op: Op, path, op_id: str) -> tuple[int, str]:
        self.tracer.op_id = op_id
        with self.tracer.span("op"):
            code, payload = getattr(self, "_" + op.kind)(op, [path(f) for f in op.files])
        self.counts["cli.bytes_out"] += len(payload)
        return code, payload

    def _load(self, path: str):
        with self.tracer.span("io.load"):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            obj = json.loads(text)
        self.counts["io.bytes_in"] += len(text)
        return obj

    def _config(self, path: str):
        obj = self._load(path)
        with self.tracer.span("geometry.from_json"):
            return self.gp.configuration_from_json(obj)

    def _serialise(self, to_json) -> str:
        """`to_json` builds the document; building it is serialisation too."""
        with self.tracer.span("cli.serialise"):
            return json.dumps(to_json(), indent=2)

    def _decide(self, op, files):
        config = self._config(files[0])
        with self.tracer.span("genericity.decide"):
            verdict = self.gp.decide_all_projections(config)
        payload = self._serialise(lambda: self.gp.verdict_to_json(verdict))
        self.counts["genericity.decide_calls"] += 1
        self.counts["genericity.violations"] += not verdict.generic
        self.counts["genericity.patterns_total"] += self._pattern_count(config)
        return (0 if verdict.generic else 1), payload

    def _pattern_count(self, config) -> int:
        key = (len(config.points), config.dimension)
        if key not in self._patterns:
            n, dim = key
            self._patterns[key] = sum(
                1
                for k in range(1, dim)
                for p in self.gp.minimal_patterns(k, dim)
                if sum(p.sizes) <= n
            )
        return self._patterns[key]

    def _check(self, op, files):
        config = self._config(files[0])
        obj = self._load(files[1])
        with self.tracer.span("geometry.from_json"):
            kernel = self.gp.subspace_from_json(obj)
        with self.tracer.span("geometry.check"):
            report = self.gp.check_general_position(config, kernel)
        payload = self._serialise(
            lambda: self.gp.geometry.subspace_check_to_json(report))
        self.counts["geometry.check_calls"] += 1
        self.counts["geometry.check_points"] += len(config.points)
        return (0 if report.passed else 1), payload

    def _perturb(self, op, files):
        config = self._config(files[0])
        epsilon = self.gp.as_rational(op.epsilon)
        with self.tracer.span("generators.perturb"):
            out = self.gp.perturb_to_generic(config, epsilon, op.seed, 16)
        payload = self._serialise(lambda: self.gp.configuration_to_json(out))
        self.counts["generators.perturb_calls"] += 1
        return 0, payload

    def _hausdorff(self, op, files):
        a = self._config(files[0])
        b = self._config(files[1])
        with self.tracer.span("metric.hausdorff"):
            value = self.gp.hausdorff_sq(a, b)
        payload = self._serialise(lambda: {"hausdorff_squared": str(value)})
        self.counts["metric.hausdorff_pairs"] += len(a.points) * len(b.points)
        return 0, payload

    def _classical(self, op, files):
        config = self._config(files[0])
        with self.tracer.span("genericity.classical"):
            report = self.gp.classical_general_position(config)

        def doc():
            out = {"in_general_position": report.in_general_position}
            if report.witness is not None:
                out["witness"] = list(report.witness)
            return out

        payload = self._serialise(doc)
        self.counts["genericity.classical_calls"] += 1
        return (0 if report.in_general_position else 1), payload
