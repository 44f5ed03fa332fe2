"""Self-test of the benchmark's correctness gate and of clean runs.

    python3 bench/selftest.py

Feeds the gate real CLI outputs and corrupted copies of them: a flipped
verdict, an altered certificate or witness, a passing check, a perturbation
that moves a point too far and a wrong Hausdorff value must each count as
failed ops. Then runs every workload briefly on the default seed (which
compares with the committed reference digests) and on a second seed, and
requires both to be clean. Exits 1 if any expectation breaks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from gate import Gate
from workloads import WORKLOADS, Batch, Op, config_file, perturbed_file, witness_file

sys.path.insert(0, str(run.SRC))
import genpos as gp  # noqa: E402
import genpos.cli  # noqa: E402,F401


def mini_batch() -> Batch:
    square = gp.Configuration(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    configs = {
        "square": square,
        "spatial": gp.random_configuration(7, 3, 10**6, 5),
        "grid": gp.Configuration(2, tuple((i, j) for i in range(3) for j in range(3))),
    }
    ops = [
        Op("0 decide square", "decide", "square", (config_file("square"),)),
        Op("1 check square", "check", "square",
           (config_file("square"), witness_file("square"))),
        Op("2 decide spatial", "decide", "spatial", (config_file("spatial"),)),
        Op("3 perturb grid", "perturb", "grid", (config_file("grid"),),
           epsilon="1/100", seed=3),
        Op("4 hausdorff grid", "hausdorff", "grid",
           (config_file("grid"), perturbed_file("grid"))),
        Op("5 classical grid", "classical", "grid", (perturbed_file("grid"),)),
    ]
    derived = {"0 decide square": witness_file("square"),
               "3 perturb grid": perturbed_file("grid")}
    return Batch(configs, ops, derived)


def corruptions(outputs):
    """(name, label, replacement output) for each corruption to feed."""
    code, payload = outputs["0 decide square"]
    cert = json.loads(payload)
    moved = json.loads(payload)
    moved["certificate"]["groups"][0][1] = 3
    witness = json.loads(payload)
    witness["certificate"]["witness_H"]["generators"] = [["1", "1"]]
    k = json.loads(payload)
    k["certificate"]["k"] = 0
    check = json.loads(outputs["1 check square"][1])
    check["pass"] = True
    far = json.loads(outputs["3 perturb grid"][1])
    far["points"][0] = ["1/2", "0"]
    dumps = lambda doc: json.dumps(doc, indent=2)  # noqa: E731
    return [
        ("degenerate verdict flipped to generic", "0 decide square",
         (0, dumps({"generic": True}))),
        ("exit code disagrees with verdict", "0 decide square", (0, payload)),
        ("certificate group altered", "0 decide square", (1, dumps(moved))),
        ("witness altered", "0 decide square", (1, dumps(witness))),
        ("certificate k altered", "0 decide square", (1, dumps(k))),
        ("check passes the certificate", "1 check square", (0, dumps(check))),
        ("generic verdict flipped to a certificate", "2 decide spatial",
         (1, dumps(cert))),
        ("perturbed point moved too far", "3 perturb grid", (0, dumps(far))),
        ("hausdorff value altered", "4 hausdorff grid",
         (0, dumps({"hausdorff_squared": "1/3"}))),
        ("classical verdict flipped", "5 classical grid",
         (1, dumps({"in_general_position": False, "witness": [0, 1, 2]}))),
        ("op raised", "2 decide spatial", (-1, "RuntimeError: boom")),
    ]


def check_gate() -> list[str]:
    errors = []
    batch = mini_batch()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)

        def path(name):
            return str(work / name)

        for name, config in batch.configs.items():
            (work / config_file(name)).write_text(
                json.dumps(gp.configuration_to_json(config)), encoding="utf-8")
        outputs = run.run_pass(gp, batch, path, None, 0).outputs

        def oracle(name):
            result = gp.cli.run(["decide-oracle", "-c", path(name)])
            return result.exit_code, result.payload

        def error_rate(outputs) -> float:
            bad = set(Gate(batch, oracle).judge(outputs))
            attempted, failed = run.tally(batch, [outputs], bad)
            return failed / attempted

        if error_rate(outputs) != 0:
            errors.append(f"clean outputs fail the gate: "
                          f"{Gate(batch, oracle).judge(outputs)}")
        for name, label, replacement in corruptions(outputs):
            if error_rate({**outputs, label: replacement}) == 0:
                errors.append(f"gate accepts: {name}")
        attempted, failed = run.tally(
            batch, [outputs, {**outputs, "2 decide spatial": (0, "{}")}], set())
        if failed != 1:
            errors.append("a pass that differs from the first is not counted")
    return errors


def check_runs() -> list[str]:
    errors = []
    for workload in WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.DEFAULT_SEED + 1):
            out = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=600,
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                errors.append(f"{workload} seed {seed} is not clean:\n"
                              + out.stdout[-2000:] + out.stderr[-2000:])
            else:
                print(f"ok {workload} seed {seed}: {result['attempted']} ops")
    return errors


def main() -> int:
    errors = check_gate()
    print("gate:", "ok" if not errors else "FAILED")
    errors += check_runs()
    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
