"""Correctness gate for the benchmark's op outputs.

The checks here are written independently of genpos, except that N >= 3
generic verdicts on a small subsample are compared with the CLI's own
brute-force `decide-oracle`, run outside the timed region:

- a certificate names disjoint groups whose in-group difference vectors
  span fewer than min(m, N) dimensions, its k is that span's dimension and
  its witness spans exactly that space, and `check` against it fails;
- in the plane a set is generic iff all C(n, 2) primitive pair directions
  are distinct (a shared direction is a collinear triple or two parallel
  disjoint chords); in any dimension a shared direction proves degeneracy;
- a `perturb` result has the same size, moves no point by more than
  epsilon, is generic, and `hausdorff` against the original is at most
  epsilon squared and equal to an exact recomputation;
- `classical` on a generic set reports general position.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from workloads import perturbed_file

ORACLE_MAX_POINTS = 8
ORACLE_SAMPLE = 6


def rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _primitive(v) -> tuple[int, ...]:
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    ints = [i // g for i in ints]
    if next(i for i in ints if i != 0) < 0:
        ints = [-i for i in ints]
    return tuple(ints)


def direction_collision(points) -> bool:
    """True iff two point pairs share a primitive, sign-normalised direction."""
    seen = set()
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            d = _primitive(_sub(q, p))
            if d in seen:
                return True
            seen.add(d)
    return False


def hausdorff_sq(a, b) -> Fraction:
    def d2(p, q):
        return sum((x - y) ** 2 for x, y in zip(p, q))

    def directed(src, dst):
        return max(min(d2(p, q) for q in dst) for p in src)

    return max(directed(a, b), directed(b, a))


def parse_points(doc) -> tuple:
    return tuple(tuple(Fraction(c) for c in row) for row in doc["points"])


def certificate_errors(points, dimension: int, cert) -> list[str]:
    groups = cert["groups"]
    seen = set()
    for g in groups:
        if len(g) < 2:
            return [f"group {g} has fewer than 2 points"]
        for i in g:
            if not isinstance(i, int) or not 0 <= i < len(points) or i in seen:
                return [f"group index {i} is out of range or repeated"]
            seen.add(i)
    diffs = [_sub(points[i], points[g[0]]) for g in groups for i in g[1:]]
    r = rank(diffs)
    errors = []
    if r >= min(len(diffs), dimension):
        errors.append(f"groups span {r} dimensions: no violation")
    if cert["k"] != r:
        errors.append(f"k={cert['k']} but the groups span {r} dimensions")
    witness = cert["witness_H"]
    gens = [tuple(Fraction(c) for c in g) for g in witness["generators"]]
    if witness["ambient_dimension"] != dimension or not gens:
        errors.append("witness has the wrong ambient dimension or no generators")
    elif rank(gens) != r or rank(diffs + gens) != r:
        errors.append("witness is not the span of the groups' difference vectors")
    return errors


class Gate:
    """Judges one pass of op outputs; `oracle(file)` runs `decide-oracle`."""

    def __init__(self, batch, oracle):
        self.batch = batch
        self.oracle = oracle

    def oracle_sample(self) -> set[str]:
        """Labels of N >= 3 decide ops small enough for the oracle, spread
        evenly over the batch."""
        labels = [
            op.label for op in self.batch.ops
            if op.kind == "decide"
            and self.batch.configs[op.config].dimension >= 3
            and len(self.batch.configs[op.config].points) <= ORACLE_MAX_POINTS
        ]
        step = max(1, len(labels) // ORACLE_SAMPLE)
        return set(labels[::step][:ORACLE_SAMPLE])

    def judge(self, outputs) -> dict[str, list[str]]:
        """Map every op label to the list of its gate failures.

        `outputs` maps label -> (exit_code, payload) from the CLI."""
        failures = {}
        sample = self.oracle_sample()
        verdicts, perturbed = {}, {}
        for op in self.batch.ops:
            code, payload = outputs[op.label]
            cfg = self.batch.configs[op.config]
            try:
                doc = json.loads(payload)
                if op.kind == "decide":
                    errors = self._decide(op, cfg, code, payload, op.label in sample)
                    verdicts[op.config] = doc
                elif op.kind == "check":
                    errors = self._check(code, doc, verdicts.get(op.config))
                elif op.kind == "perturb":
                    errors = self._perturb(op, cfg, code, doc)
                    perturbed[op.config] = (parse_points(doc), Fraction(op.epsilon))
                elif op.kind == "hausdorff":
                    errors = self._hausdorff(op, cfg, code, doc, perturbed)
                else:
                    errors = self._classical(code, doc)
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            if errors:
                failures[op.label] = errors
        return failures

    def _decide(self, op, cfg, code, payload, in_sample) -> list[str]:
        doc = json.loads(payload)
        generic = doc["generic"]
        errors = []
        if code != (0 if generic else 1):
            errors.append(f"exit code {code} for generic={generic}")
        if not generic:
            errors += certificate_errors(cfg.points, cfg.dimension, doc["certificate"])
        collision = direction_collision(cfg.points)
        if cfg.dimension == 2 and generic == collision:
            errors.append(f"generic={generic} but direction collision={collision}")
        if cfg.dimension > 2 and generic and collision:
            errors.append("generic verdict on a set with two parallel pairs")
        if in_sample:
            oracle_code, oracle_payload = self.oracle(op.files[0])
            if (oracle_code, oracle_payload) != (code, payload):
                errors.append("verdict differs from decide-oracle")
        return errors

    def _check(self, code, doc, verdict) -> list[str]:
        if verdict is None or verdict["generic"]:
            return ["no certificate to check against"]
        errors = []
        if code != 1 or doc["pass"] is not False:
            errors.append("certificate passes check")
        if doc["k"] != verdict["certificate"]["k"]:
            errors.append("check k differs from the certificate's k")
        return errors

    def _perturb(self, op, cfg, code, doc) -> list[str]:
        if code != 0:
            return [f"perturb exit code {code}"]
        points = parse_points(doc)
        eps_sq = Fraction(op.epsilon) ** 2
        errors = []
        if doc["dimension"] != cfg.dimension or len(points) != len(cfg.points):
            return ["perturbed set has another size or dimension"]
        if any(sum((x - y) ** 2 for x, y in zip(p, q)) > eps_sq
               for p, q in zip(points, cfg.points)):
            errors.append("a point moved by more than epsilon")
        if len(set(points)) != len(points):
            errors.append("perturbed points are not distinct")
        elif direction_collision(points):
            errors.append("perturbed set has two parallel pairs")
        elif cfg.dimension > 2 and self.oracle(perturbed_file(op.config))[0] != 0:
            errors.append("decide-oracle finds the perturbed set degenerate")
        return errors

    def _hausdorff(self, op, cfg, code, doc, perturbed) -> list[str]:
        if op.config in perturbed:
            other, eps = perturbed[op.config]
            bound = eps * eps
        else:
            other_name = op.files[1].removesuffix(".json")
            other, bound = self.batch.configs[other_name].points, None
        value = Fraction(doc["hausdorff_squared"])
        errors = []
        if code != 0:
            errors.append(f"hausdorff exit code {code}")
        if value != hausdorff_sq(cfg.points, other):
            errors.append("hausdorff differs from the exact recomputation")
        if bound is not None and value > bound:
            errors.append("hausdorff exceeds epsilon squared")
        return errors

    def _classical(self, code, doc) -> list[str]:
        if code != 0 or doc != {"in_general_position": True}:
            return ["generic set is not in classical general position"]
        return []
