"""Every integer argument goes through linalg.integer: a bool, a float or a
numeric string is refused with an InputError that names the argument."""

import json
import re
from fractions import Fraction

import pytest

from genpos import (
    AffineMap,
    Configuration,
    DegeneracyPattern,
    IncrementalSpan,
    InputError,
    IteratedFunctionSystem,
    SplitMix64,
    Subspace,
    cantor_graph_stage,
    decide_all_projections_oracle,
    iterate_system,
    minimal_patterns,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
)
from genpos.cli import run

SQUARE = Configuration(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
LINE = Configuration(1, ((0,),))
HALF = AffineMap(((Fraction(1, 2),),), (0,))

# number: (argument name as the diagnostic gives it, call with the value in
# place); a site keeps its number, and so its test ids, when a site before it
# is removed.
SITES = {
    0: ("seed", lambda v: SplitMix64(v)),
    1: ("stage", lambda v: cantor_graph_stage(v)),
    2: ("dimension", lambda v: IteratedFunctionSystem(v, (HALF,))),
    3: ("dimension", lambda v: product_cantor_system(v)),
    4: ("stage", lambda v: iterate_system(product_cantor_system(1), v, LINE)),
    5: ("count", lambda v: random_configuration(v, 2, 10, 1)),
    6: ("dimension", lambda v: random_configuration(3, v, 10, 1)),
    7: ("denominator", lambda v: random_configuration(3, 2, v, 1)),
    8: ("seed", lambda v: random_configuration(3, 2, 10, v)),
    9: ("seed", lambda v: perturb_to_generic(SQUARE, Fraction(1, 100), v)),
    10: (
        "max_attempts",
        lambda v: perturb_to_generic(SQUARE, Fraction(1, 100), 1, v),
    ),
    11: ("dimension", lambda v: Configuration(v, ((1,), (2,)))),
    12: ("ambient_dimension", lambda v: Subspace(v, ((1, 0),))),
    13: ("k", lambda v: DegeneracyPattern(v, (2, 2))),
    14: ("sizes[1]", lambda v: DegeneracyPattern(1, (2, v))),
    17: ("k", lambda v: minimal_patterns(v, 3)),
    18: ("dimension", lambda v: minimal_patterns(1, v)),
    19: (
        "max_points",
        lambda v: decide_all_projections_oracle(SQUARE, max_points=v),
    ),
    20: ("dimension", lambda v: IncrementalSpan(v)),
    21: ("bound", lambda v: SplitMix64(1).below(v)),
}


@pytest.mark.parametrize("value", [True, 2.0, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "name, call",
    SITES.values(),
    ids=[f"{i}-{name}" for i, (name, _) in SITES.items()],
)
def test_non_int_argument_is_refused_by_name(name, call, value):
    with pytest.raises(InputError, match=rf"^{re.escape(name)}: must be an integer"):
        call(value)


@pytest.mark.parametrize("bound", [0, -3])
def test_bound_below_one_is_refused(bound):
    with pytest.raises(InputError, match=r"^bound: must be an integer >= 1$"):
        SplitMix64(1).below(bound)


# A field that the constructor unpacks or enumerates is checked first, so a
# bare number is an input error naming the field, not a TypeError.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AffineMap(5, (0,)), "matrix: missing or not a list"),
        (lambda: AffineMap(None, (0,)), "matrix: missing or not a list"),
        (lambda: IteratedFunctionSystem(1, 5), "maps: missing or not a list"),
        (lambda: IteratedFunctionSystem(1, None), "maps: missing or not a list"),
        (lambda: IteratedFunctionSystem(1, (HALF, 5)), "maps[1]: not an AffineMap"),
    ],
)
def test_unpacked_fields_are_refused_by_name(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "command, key",
    [("config", "dimension"), ("subspace", "ambient_dimension")],
)
def test_json_bool_dimension_exits_two(tmp_path, fixture_files, command, key):
    if command == "config":
        doc = {"dimension": True, "points": [["0", "0"], ["1", "0"]]}
        path = tmp_path / "bool-dimension.json"
        argv = ["decide", "-c", str(path)]
    else:
        doc = {"ambient_dimension": True, "generators": [["1", "0"]]}
        path = tmp_path / "bool-ambient.json"
        argv = ["check", "-c", fixture_files["square"], "-s", str(path)]
    path.write_text(json.dumps(doc))
    result = run(argv)
    assert result.exit_code == 2
    assert result.payload == ""
    assert result.diagnostics == f"error: {key}: must be an integer >= 1"
