"""Seeded inputs and CLI op batches for the four benchmark workloads.

Every batch is a fixed list of ops built from the workload seed. The shapes
(point count, dimension, denominator) follow a fixed schedule per workload,
so the cost mix is the same on every seed and only the coordinates change;
that keeps the latency quantiles inside one cost class instead of on the
boundary between two. Ops refer to input files by name; the harness owns the
directory they live in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `label` is stable across runs and keys the
    reference outputs; `files` are input file names in argv order."""

    label: str
    kind: str  # decide | check | perturb | hausdorff | classical
    config: str  # the configuration this op is about
    files: tuple[str, ...]
    epsilon: str | None = None
    seed: int | None = None

    def argv(self, path) -> list[str]:
        paths = [path(f) for f in self.files]
        if self.kind in ("decide", "classical"):
            return [self.kind, "-c", paths[0]]
        if self.kind == "check":
            return ["check", "-c", paths[0], "-s", paths[1]]
        if self.kind == "hausdorff":
            return ["hausdorff", "-a", paths[0], "-b", paths[1]]
        if self.kind == "perturb":
            return [
                "perturb", "-c", paths[0],
                "--epsilon", self.epsilon, "--seed", str(self.seed),
            ]
        raise ValueError(f"unknown op kind {self.kind}")


@dataclass
class Batch:
    configs: dict  # name -> genpos Configuration, in file-writing order
    ops: list[Op]
    derived: dict  # op label -> file the harness writes from that op's output


def witness_file(name: str) -> str:
    return f"{name}.witness.json"


def perturbed_file(name: str) -> str:
    return f"{name}.perturbed.json"


def config_file(name: str) -> str:
    return f"{name}.json"


# (points, dimension, copies), cheapest shape first. Every quantile the
# benchmark reports falls well inside one shape's share of the batch: the
# median among the n=9, N=3 ops, the 90th percentile among n=8, N=4. Costs
# on a 2-core x86 host: n=8/9/10 at N=3 about 45/110/210 ms, n=8/9 at N=4
# about 200/450 ms; a pass takes about 12 s.
GENERIC_SPATIAL = [(8, 3, 38), (9, 3, 28), (8, 4, 30), (10, 3, 2), (9, 4, 2)]
# Median among n=15, 90th percentile among n=18. Costs at n=14/15/16/18/20
# are about 50/60/100/170/300 ms; a pass takes about 10 s.
GENERIC_PLANAR = [(14, 2, 35), (15, 2, 35), (16, 2, 15), (18, 2, 12), (20, 2, 3)]
GENERIC_DENOMINATOR = 10**6

# (points, dimension, denominator) for the random small-denominator sets of
# degenerate-certify; small denominators guarantee a collision but not where.
# Their check costs vary up to fourfold with the witness direction, so few
# of them are large.
DEGENERATE_RANDOM = [
    (60, 2, 15), (60, 2, 15), (80, 2, 20), (80, 2, 20), (100, 2, 25),
    (100, 2, 25), (120, 2, 30), (120, 2, 30), (150, 2, 40), (200, 2, 50),
    (60, 3, 6), (60, 3, 6), (60, 3, 8), (80, 3, 8), (80, 3, 10), (80, 3, 10),
]
REPAIR_EPSILONS = ("1/64", "1/100", "1/1000")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"genpos-bench:{workload}:{seed}")


def _grid(gp, *sides):
    return gp.Configuration(
        len(sides),
        tuple(tuple(Fraction(x) for x in p) for p in product(*map(range, sides))),
    )


def _product_cantor(gp, dimension: int, stage: int):
    origin = gp.Configuration(dimension, (tuple([0] * dimension),))
    return gp.iterate_system(gp.product_cantor_system(dimension), stage, origin)


def _affine_image(gp, config, rng: random.Random):
    """Image under a seeded map x -> Ax + t, A unimodular with small integer
    entries, t with small denominators. Degeneracy is invariant under
    invertible affine maps (difference-vector ranks are kept), so the shape
    keeps its verdict while its coordinates vary with the seed."""
    dim = config.dimension
    a = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(dim)]
         for i in range(dim)]
    rng.shuffle(a)
    t = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)]
    points = tuple(
        tuple(sum(r * x for r, x in zip(row, p)) + ti for row, ti in zip(a, t))
        for p in config.points
    )
    return gp.Configuration(dim, points)


def _decide_batch(gp, workload: str, seed: int, schedule) -> Batch:
    rng = _rng(workload, seed)
    configs, position = {}, {}
    for n, dim, copies in schedule:
        for c in range(copies):
            name = f"n{n}d{dim}-{c:02d}"
            configs[name] = gp.random_configuration(
                n, dim, GENERIC_DENOMINATOR, rng.getrandbits(63)
            )
            # Spread every shape evenly over the pass.
            position[name] = (c + 0.5) / copies
    order = sorted(configs, key=lambda k: (position[k], k))
    ops = [
        Op(f"{i:03d} decide {name}", "decide", name, (config_file(name),))
        for i, name in enumerate(order)
    ]
    return Batch(configs, ops, {})


def generic_spatial(gp, seed: int) -> Batch:
    return _decide_batch(gp, "generic-spatial", seed, GENERIC_SPATIAL)


def generic_planar(gp, seed: int) -> Batch:
    return _decide_batch(gp, "generic-planar", seed, GENERIC_PLANAR)


def degenerate_certify(gp, seed: int) -> Batch:
    rng = _rng("degenerate-certify", seed)
    shapes = {}
    for stage in (5, 6, 7):
        shapes[f"cantor{stage}"] = gp.cantor_graph_stage(stage)
    for dim, stage in ((2, 2), (2, 3), (3, 1), (3, 2)):
        shapes[f"pcantor{dim}s{stage}"] = _product_cantor(gp, dim, stage)
    for sides in ((8, 8), (12, 12), (4, 4, 4), (5, 5, 3)):
        shapes["grid" + "x".join(map(str, sides))] = _grid(gp, *sides)
    # Stage 6 carries both quantiles: its decides (about 22 ms: parse,
    # certificate and serialisation of 128 points, cheap search) hold the
    # median and its checks (about 70 ms) the 90th percentile. The stage 7
    # checks and the costlier random sets stay above it.
    copies = {"cantor6": 30}
    configs = {}
    for name, shape in shapes.items():
        for c in range(copies.get(name, 3)):
            configs[f"{name}-{c}"] = _affine_image(gp, shape, rng)
    for i, (n, dim, den) in enumerate(DEGENERATE_RANDOM):
        configs[f"rand{n}d{dim}q{den}-{i:02d}"] = gp.random_configuration(
            n, dim, den, rng.getrandbits(63)
        )
    ops, derived = [], {}
    for name in configs:
        decide = Op(f"{len(ops):03d} decide {name}", "decide", name, (config_file(name),))
        ops.append(decide)
        derived[decide.label] = witness_file(name)
        ops.append(Op(
            f"{len(ops):03d} check {name}", "check", name,
            (config_file(name), witness_file(name)),
        ))
    return Batch(configs, ops, derived)


def repair_tools(gp, seed: int) -> Batch:
    rng = _rng("repair-tools", seed)
    shapes = {
        "cantor2": gp.cantor_graph_stage(2),
        "cantor3": gp.cantor_graph_stage(3),
        "grid3x3": _grid(gp, 3, 3),
        "grid3x4": _grid(gp, 3, 4),
        "grid4x4": _grid(gp, 4, 4),
        "grid2x2x2": _grid(gp, 2, 2, 2),
        "pcantor3s1": _product_cantor(gp, 3, 1),
    }
    # The 90th percentile falls among the perturbs of the 8-point cubes and
    # the 3x4 grid (about 50 ms); the 16-point perturbs (about 130 ms) stay
    # above it.
    copies = {"cantor3": 3, "grid4x4": 2}
    configs = {}
    for name, shape in shapes.items():
        for c in range(copies.get(name, 6)):
            configs[f"{name}-{c}"] = shape
    ops, derived = [], {}
    for name in list(configs):
        perturb = Op(
            f"{len(ops):03d} perturb {name}", "perturb", name, (config_file(name),),
            epsilon=rng.choice(REPAIR_EPSILONS), seed=rng.getrandbits(32),
        )
        ops.append(perturb)
        derived[perturb.label] = perturbed_file(name)
        ops.append(Op(
            f"{len(ops):03d} hausdorff {name}", "hausdorff", name,
            (config_file(name), perturbed_file(name)),
        ))
        ops.append(Op(
            f"{len(ops):03d} classical {name}", "classical", name,
            (perturbed_file(name),),
        ))
    for stage in range(1, 6):
        configs[f"stage{stage}"] = gp.cantor_graph_stage(stage)
    for stage in (1, 2, 3, 4):
        a, b = f"stage{stage}", f"stage{stage + 1}"
        ops.append(Op(
            f"{len(ops):03d} hausdorff {a}-{b}", "hausdorff", a,
            (config_file(a), config_file(b)),
        ))
    return Batch(configs, ops, derived)


WORKLOADS = {
    "generic-spatial": generic_spatial,
    "generic-planar": generic_planar,
    "degenerate-certify": degenerate_certify,
    "repair-tools": repair_tools,
}
