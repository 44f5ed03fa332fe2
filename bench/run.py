"""genpos benchmark: fixed-seed CLI workloads, end to end and per layer.

    python3 bench/run.py --workload generic-planar --seed 1 --seconds 25 --trace 0

Run from a source checkout; genpos is imported from ./src. One process, one
thread, standard library only.

Set-up (import, input generation, writing the inputs as JSON files) runs
several times and reports its median. The timed phase then runs the
workload's fixed batch of CLI ops through `genpos.cli.run(argv)` in whole
passes until `--seconds` is spent, at least twice. The end-to-end metrics
come from each op's median time over the passes.

Times are reported on a nominal host. The shared host's speed drifts by
tens of percent over seconds and minutes, for CPU time as much as for wall
time, so a fixed probe (`probe()`, about 1.4 ms) runs before and after
every op and every set-up, and each wall time is scaled by PROBE_REF_S over
the mean of its two probes. The probe is benchmark code and does not call
genpos, so a change to genpos moves the scaled times as it moves wall time.

The first pass's outputs go through the correctness gate (gate.py) outside
the timed region, later passes must repeat them byte for byte, and on the
default seed they must match the committed reference digests.

With `--trace 1` untraced and traced passes alternate. A traced pass
replays each op as the CLI handler's sequence of public calls with a span
around each call (traced.py). Per-layer self times are scaled like op times
and averaged over the traced passes; `trace.overhead_frac` compares traced
with untraced op time. Spans are written to .bench_work/ when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit code 0 unless the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True  # every set-up compiles genpos as a clean checkout does

from gate import Gate  # noqa: E402
from traced import Replay, Tracer  # noqa: E402
from workloads import WORKLOADS, config_file  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 1
SETUPS = 9
MIN_PASSES = 2
CALIBRATION_SAMPLES = 5
PROBE_REF_S = 1.4e-3  # probe time that defines the nominal host

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
LAYER_TIMES = [
    "io.load", "geometry.from_json", "genericity.decide", "genericity.classical",
    "geometry.check", "generators.perturb", "metric.hausdorff", "cli.serialise",
]
LAYER_COUNTS = {
    "io.bytes_in": "B", "cli.bytes_out": "B",
    "genericity.decide_calls": "count", "genericity.violations": "count",
    "genericity.patterns_total": "count", "genericity.classical_calls": "count",
    "geometry.check_calls": "count", "geometry.check_points": "count",
    "generators.perturb_calls": "count", "metric.hausdorff_pairs": "count",
}


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed only."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def probe() -> float:
    """Host-speed probe run between ops: exact Fraction sums with growing
    denominators plus dict and tuple churn, the mix genpos ops spend their
    time in. The collector is paused so that garbage an op leaves behind
    cannot slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x, seen = Fraction(0), {}
        for i in range(1, 300):
            x += Fraction(i % 7 + 1, i)
            seen[i, i % 5] = x.numerator & 0xFF
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def nominal(seconds: float, probe_before: float, probe_after: float) -> float:
    """Wall time rescaled to the nominal host, by the probes around it."""
    return seconds * 2 * PROBE_REF_S / (probe_before + probe_after)


def import_genpos():
    for name in [m for m in sys.modules if m == "genpos" or m.startswith("genpos.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    gp = importlib.import_module("genpos")
    importlib.import_module("genpos.cli")
    return gp


def set_up(workload: str, seed: int, work: Path):
    """Import genpos, generate the batch and write its inputs."""
    before = probe()
    t0 = time.perf_counter()
    gp = import_genpos()
    t1 = time.perf_counter()
    batch = WORKLOADS[workload](gp, seed)
    t2 = time.perf_counter()
    for name, config in batch.configs.items():
        text = json.dumps(gp.configuration_to_json(config))
        (work / config_file(name)).write_text(text, encoding="utf-8")
    total = time.perf_counter() - t0
    after = probe()
    return gp, batch, nominal(total, before, after), nominal(t2 - t1, before, after)


def write_derived(batch, label: str, code: int, payload: str, path) -> None:
    """Files later ops read: a decide's witness, a perturb's result."""
    target = batch.derived.get(label)
    if target is None or code not in (0, 1):
        return
    try:
        doc = json.loads(payload)
    except ValueError:
        return  # the gate reports the op
    if "certificate" in doc:
        text = json.dumps(doc["certificate"].get("witness_H"))
    elif "points" in doc:
        text = payload
    else:
        return
    Path(path(target)).write_text(text, encoding="utf-8")


@dataclass
class Pass:
    pass_id: int
    outputs: dict  # label -> (exit code, payload)
    wall: dict  # label -> wall seconds
    scaled: dict  # label -> seconds on the nominal host
    probes: list  # probe times, one before the first op and one after each
    replay: Replay | None


def run_pass(gp, batch, path, replay: Replay | None, pass_id: int) -> Pass:
    """One pass over the batch, with a host probe before and after each op."""
    wall, outputs, probes = {}, {}, [probe()]
    for op in batch.ops:
        argv = op.argv(path)
        start = time.perf_counter()
        try:
            if replay is None:
                result = gp.cli.run(argv)
                code, payload = result.exit_code, result.payload
            else:
                code, payload = replay.run(op, path, f"{pass_id}:{op.label}")
        except Exception as exc:  # an op that raises is a failed op
            code, payload = -1, f"{type(exc).__name__}: {exc}"
        wall[op.label] = time.perf_counter() - start
        outputs[op.label] = (code, payload)
        write_derived(batch, op.label, code, payload, path)
        probes.append(probe())
    scaled = {
        op.label: nominal(wall[op.label], probes[i], probes[i + 1])
        for i, op in enumerate(batch.ops)
    }
    return Pass(pass_id, outputs, wall, scaled, probes, replay)


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_failures(workload: str, seed: int, outputs) -> set[str]:
    """Ops whose default-seed output is not the committed reference."""
    if seed != DEFAULT_SEED:
        return set()
    ref_path = REFERENCE / f"{workload}.json"
    if not ref_path.is_file():
        return set(outputs)
    ref = json.loads(ref_path.read_text(encoding="utf-8"))["ops"]
    return {
        label for label, (code, payload) in outputs.items()
        if ref.get(label) != [code, digest(payload)]
    }


def tally(batch, passes, bad) -> tuple[int, int]:
    """Attempted and failed op runs. A run fails when its op is in `bad`
    (it failed the gate or the reference) or when its output differs from
    the first pass's."""
    attempted = failed = 0
    for outputs in passes:
        for op in batch.ops:
            attempted += 1
            failed += op.label in bad or outputs[op.label] != passes[0][op.label]
    return attempted, failed


def measure(args, work: Path) -> tuple[dict, int, int]:
    def path(name: str) -> str:
        return str(work / name)

    calib_before = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    setups, generates = [], []
    for _ in range(SETUPS):
        gp, batch, total, generate = set_up(args.workload, args.seed, work)
        setups.append(total)
        generates.append(generate)

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        done = len(untraced) + len(traced)
        traced_pass = args.trace and len(untraced) > len(traced)
        replay = Replay(gp, tracer) if traced_pass else None
        (traced if traced_pass else untraced).append(
            run_pass(gp, batch, path, replay, done))
        done += 1
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Correctness: gate on the first pass, every later pass must repeat it.
    first = untraced[0].outputs
    oracle_runs = {}

    def oracle(name: str):
        if name not in oracle_runs:
            result = gp.cli.run(["decide-oracle", "-c", path(name)])
            oracle_runs[name] = (result.exit_code, result.payload)
        return oracle_runs[name]

    gate_failures = Gate(batch, oracle).judge(first)
    bad = set(gate_failures) | reference_failures(args.workload, args.seed, first)
    attempted, failed = tally(batch, [p.outputs for p in untraced + traced], bad)
    notes = [f"{label}: {'; '.join(errs)}" for label, errs in gate_failures.items()]
    notes += [f"{label}: differs from the reference" for label in
              sorted(bad - set(gate_failures))]

    if args.record:
        REFERENCE.mkdir(exist_ok=True)
        doc = {"seed": args.seed, "ops": {
            label: [code, digest(payload)] for label, (code, payload) in first.items()
        }}
        (REFERENCE / f"{args.workload}.json").write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    calib = calib_before + [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    per_op = [statistics.median(p.scaled[op.label] for p in untraced)
              for op in batch.ops]
    summary = {
        "passes": len(untraced), "traced_passes": len(traced),
        "op_samples": len(per_op), "error_rate": failed / attempted,
        "wall_s": elapsed,
        "host.probe_s": statistics.median(t for p in untraced for t in p.probes),
        "host.calib_before_s": statistics.median(calib_before),
        "host.calib_after_s": statistics.median(calib[CALIBRATION_SAMPLES:]),
    }
    if not args.trace:
        metrics = {
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = layer_metrics(untraced, traced, tracer, generates, calib)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}))
    for note in notes:
        print("FAIL", note)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed


def layer_metrics(untraced, traced, tracer: Tracer, generates, calib):
    """Self time per span name, rescaled to the nominal host op by op and
    averaged over the traced passes, plus the per-pass work counts."""
    selfs = tracer.self_times()
    layers = Counter()
    for p in traced:
        for label, wall in p.wall.items():
            scale = p.scaled[label] / wall
            for name, seconds in selfs[f"{p.pass_id}:{label}"].items():
                layers[name] += scale * seconds / len(traced)
    traced_s = sum(layers.values())
    untraced_s = statistics.mean(sum(p.scaled.values()) for p in untraced)
    metrics, units = {}, {}
    for layer in LAYER_TIMES:
        metrics[layer + "_s"] = layers[layer]
        units[layer + "_s"] = "s"
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = traced[0].replay.counts[name]
        units[name] = unit
    extra = {
        "generators.generate_s": (statistics.median(generates), "s"),
        "op.self_s": (layers["op"], "s"),
        "op.traced_s": (traced_s, "s"),
        "op.untraced_s": (untraced_s, "s"),
        "op.count": (len(traced[0].wall), "count"),
        "genericity.decide_share": (layers["genericity.decide"] / traced_s, "frac"),
        "trace.overhead_frac": (traced_s / untraced_s - 1, "frac"),
        "host.calib_s": (statistics.median(calib), "s"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = value
        units[name] = unit
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's output digests as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "genpos" / "cli.py").is_file():
        print(f"error: no genpos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        metrics, attempted, failed = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
