import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genpos import (
    AffineMap,
    Configuration,
    InputError,
    PerturbationError,
    SplitMix64,
    Subspace,
    cantor_graph_stage,
    check_general_position,
    configuration_to_json,
    decide_all_projections,
    hausdorff_sq,
    IteratedFunctionSystem,
    iterate_system,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
)
from genpos.generators import _distinct_draws
from genpos.linalg import fractions
from genpos.selftest import grid_configuration
from test_geometry import _assert_lattice_record_behaves

F = Fraction


class TestCantorGraph:
    def test_stage_one_points(self):
        config = cantor_graph_stage(1)
        assert config.points == (
            (F(0), F(0)),
            (F(1, 3), F(1, 2)),
            (F(2, 3), F(1, 2)),
            (F(1), F(1)),
        )

    def test_stage_two_adds_quarter_levels(self):
        config = cantor_graph_stage(2)
        assert (F(1, 9), F(1, 4)) in config.points
        assert (F(2, 9), F(1, 4)) in config.points
        assert (F(7, 9), F(3, 4)) in config.points
        assert (F(8, 9), F(3, 4)) in config.points

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_point_count(self, stage):
        config = cantor_graph_stage(stage)
        assert len(config) == 2 + 2 * (2**stage - 1)

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_plateau_values_come_in_pairs(self, stage):
        config = cantor_graph_stage(stage)
        counts = Counter(p[1] for p in config.points)
        doubles = {y for y, c in counts.items() if c == 2}
        assert len(doubles) == 2**stage - 1
        assert counts[F(0)] == 1 and counts[F(1)] == 1

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_never_generic(self, stage):
        assert not decide_all_projections(cantor_graph_stage(stage)).generic

    def test_stage_one_violates_by_parallel_chords(self):
        verdict = decide_all_projections(cantor_graph_stage(1))
        assert verdict.certificate.groups == ((0, 1), (2, 3))
        assert verdict.certificate.witness.dim == 1

    @pytest.mark.parametrize("stage", [2, 3])
    def test_fails_horizontal_kernel_from_stage_two(self, stage):
        report = check_general_position(
            cantor_graph_stage(stage), Subspace(2, ((1, 0),))
        )
        assert not report.passed

    def test_stage_zero_rejected(self):
        with pytest.raises(InputError):
            cantor_graph_stage(0)


def _system(dimension, maps):
    """A system of affine maps, each given as (translation, matrix), where a
    matrix given as one Fraction is that multiple of the identity."""
    built = []
    for translation, matrix in maps:
        if isinstance(matrix, Fraction):
            matrix = tuple(
                tuple(matrix if i == j else F(0) for j in range(dimension))
                for i in range(dimension)
            )
        built.append(AffineMap(matrix, translation))
    return IteratedFunctionSystem(dimension, tuple(built))


def _rational_apply(m, point):
    """The map on a Fraction point, from its integer form (A, c) over D."""
    return tuple(
        (sum(a * x for a, x in zip(row, point)) + t) / m.denominator
        for row, t in zip(m.matrix, m.translation)
    )


def _word_by_word(system, stage, seeds):
    """Every length-stage word of the maps applied to every seed, one word
    at a time in Fraction, deduplicated and sorted: the definition
    iterate_system follows level by level on the lattice."""
    out = set()
    for word in product(range(len(system.maps)), repeat=stage):
        for x in seeds.points:
            for index in word:
                x = _rational_apply(system.maps[index], x)
            out.add(x)
    return Configuration(system.dimension, tuple(sorted(out)))


def _cantor_by_intervals(stage):
    """The Cantor graph stage built from its intervals: each gap removed at
    step s, from the i-th interval left, gives its two endpoints at the
    plateau value (2i + 1) / 2^s."""
    points = [(F(0), F(0)), (F(1), F(1))]
    intervals = [(F(0), F(1))]
    for s in range(1, stage + 1):
        nxt = []
        for i, (a, b) in enumerate(intervals):
            third = (b - a) / 3
            left, right = a + third, b - third
            y = F(2 * i + 1, 2**s)
            points.append((left, y))
            points.append((right, y))
            nxt.append((a, left))
            nxt.append((right, b))
        intervals = nxt
    points.sort(key=lambda p: p[0])
    return Configuration(2, tuple(points))


class TestAffineMap:
    def test_holds_integer_matrix_and_translation_over_one_denominator(self):
        m = AffineMap(((F(1, 3), 0), (0, "1/2")), ("2/3", F(1, 2)))
        assert m.matrix == ((2, 0), (0, 3))
        assert m.translation == (4, 3)
        assert m.denominator == 6

    def test_apply_maps_a_row_over_scale_to_a_row_over_d_times_scale(self):
        m = AffineMap(((F(1, 3), 0), (0, "1/2")), ("2/3", F(1, 2)))
        # (1/2, 1/4) -> (1/6 + 2/3, 1/8 + 1/2) = (5/6, 5/8), over 6 * 4.
        assert m.apply((2, 1), 4) == (20, 15)

    @pytest.mark.parametrize(
        "matrix, translation, message",
        [
            (((1, 0),), (0, 0), r"^matrix: expected 2x2 to match the translation"),
            (((1, 0), (0, 1), (1, 1)), (0, 0), r"^matrix: expected 2x2"),
            (((1, 0), (0, "x")), (0, 0), r"^matrix\[1\]\[1\]: not a rational"),
            (((1, 0), (0, 1)), (0, 0.5), r"^translation\[0\]\[1\]: floating point"),
            (((1, 0), (0, 1, 2)), (0, 0), r"^matrix\[1\]: expected 2 coordinates"),
        ],
    )
    def test_bad_cells_are_named(self, matrix, translation, message):
        with pytest.raises(InputError, match=message):
            AffineMap(matrix, translation)


def _product_cantor_by_fractions(dimension):
    """The product-Cantor system built from Fraction(1, 3) cells through
    the checked AffineMap constructor, as it was before its maps were built
    on the lattice."""
    third = F(1, 3)
    identity_third = tuple(
        tuple(third if i == j else F(0) for j in range(dimension))
        for i in range(dimension)
    )
    maps = tuple(
        AffineMap(identity_third, t)
        for t in product((F(0), F(2, 3)), repeat=dimension)
    )
    return IteratedFunctionSystem(dimension, maps)


@pytest.mark.parametrize("dimension", range(1, 7))
def test_product_cantor_system_matches_the_fraction_construction(dimension):
    built = product_cantor_system(dimension)
    reference = _product_cantor_by_fractions(dimension)
    assert built == reference
    assert [repr(m) for m in built.maps] == [repr(m) for m in reference.maps]
    assert [hash(m) for m in built.maps] == [hash(m) for m in reference.maps]


@st.composite
def _affine_rows(draw):
    """(dimension, denominator, rows): a matrix's integer rows and then a
    translation, as lists, over a denominator they often share a factor
    with."""
    dimension = draw(st.integers(1, 3))
    least, factor = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    cell = st.integers(-9, 9).map(lambda x: x * factor)
    row = st.lists(cell, min_size=dimension, max_size=dimension)
    rows = draw(st.lists(row, min_size=dimension + 1, max_size=dimension + 1))
    return dimension, least * factor, rows


@settings(max_examples=300, deadline=None)
@given(case=_affine_rows())
@example(case=(1, 6, [[2], [4]]))
@example(case=(2, 3, [[1, 0], [0, 1], [0, 0]]))
def test_affine_map_on_lattice_is_the_constructor_on_the_rational_rows(case):
    dimension, den, rows = case
    *matrix, translation = fractions(den, rows)
    built = AffineMap._on_lattice(dimension, den, rows)
    reference = AffineMap(matrix, translation)
    _assert_lattice_record_behaves(built, reference)
    assert (built.matrix, built.translation, built.denominator) == (
        reference.matrix, reference.translation, reference.denominator
    )
    assert all(type(r) is tuple for r in (*built.matrix, built.translation))
    point = tuple(range(1, dimension + 1))
    assert built.apply(point, 5) == reference.apply(point, 5)


class TestIteratedSystem:
    def test_product_stage_one(self):
        system = product_cantor_system(2)
        origin = Configuration(2, ((0, 0),))
        config = iterate_system(system, 1, origin)
        assert set(config.points) == {
            (F(0), F(0)),
            (F(2, 3), F(0)),
            (F(0), F(2, 3)),
            (F(2, 3), F(2, 3)),
        }

    def test_product_stage_one_not_generic(self):
        system = product_cantor_system(2)
        origin = Configuration(2, ((0, 0),))
        config = iterate_system(system, 1, origin)
        assert not decide_all_projections(config).generic

    def test_stage_zero_is_identity(self):
        system = product_cantor_system(2)
        seeds = Configuration(2, ((0, 0), (1, 1)), labels=("o", "c"))
        assert iterate_system(system, 0, seeds) is seeds

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2)])
    def test_composition(self, a, b):
        system = product_cantor_system(2)
        origin = Configuration(2, ((0, 0),))
        combined = iterate_system(system, a + b, origin)
        nested = iterate_system(system, a, iterate_system(system, b, origin))
        assert combined == nested

    def test_dimension_mismatch(self):
        system = product_cantor_system(2)
        with pytest.raises(InputError):
            iterate_system(system, 1, Configuration(3, ((0, 0, 0),)))

    @pytest.mark.parametrize("stage", [0, 1, 2, 3])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_product_cantor_matches_word_by_word(self, dimension, stage):
        system = product_cantor_system(dimension)
        origin = Configuration(dimension, ((0,) * dimension,))
        config = iterate_system(system, stage, origin)
        assert config == _word_by_word(system, stage, origin)
        assert len(config) == 2 ** (dimension * stage)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    @pytest.mark.parametrize("system, seeds", [
        # Three halvings of [0, 1] whose images overlap.
        (_system(1, [((0,), F(1, 2)), ((F(1, 4),), F(1, 2)),
                     ((F(1, 2),), F(1, 2))]),
         ((0,), (1,))),
        # A rotation by a quarter turn and two halvings; the rotation maps
        # the seed square onto itself, and it and a halving fix the origin.
        (_system(2, [((0, 0), ((0, -1), (1, 0))),
                     ((0, 0), F(1, 2)),
                     ((F(1, 2), 0), F(1, 2))]),
         ((0, 0), (1, 1), (-1, 1), (-1, -1), (1, -1))),
    ])
    def test_overlapping_maps_merge_points_as_word_by_word(self, system, seeds, stage):
        seeds = Configuration(system.dimension, seeds)
        config = iterate_system(system, stage, seeds)
        assert config == _word_by_word(system, stage, seeds)
        assert len(config) < len(system.maps) ** stage * len(seeds)

    def test_each_level_maps_the_last_once(self, monkeypatch):
        """Stage s applies every map to every point of levels 0..s-1, not
        every word of length s to the seeds."""
        system = product_cantor_system(2)
        origin = Configuration(2, ((0, 0),))
        applies = Counter()
        apply = AffineMap.apply

        def counting_apply(self, row, scale):
            applies["calls"] += 1
            return apply(self, row, scale)

        monkeypatch.setattr(AffineMap, "apply", counting_apply)
        iterate_system(system, 4, origin)
        assert applies["calls"] == 4 * (1 + 4 + 16 + 64)

    @pytest.mark.parametrize("stage", [1, 2, 3, 5, 7])
    def test_two_map_system_gives_the_cantor_graph(self, stage):
        # (x, y) -> (x/3, y/2) and (x/3 + 2/3, y/2 + 1/2) from (0,0), (1,1).
        system = _system(2, [
            ((0, 0), ((F(1, 3), 0), (0, F(1, 2)))),
            ((F(2, 3), F(1, 2)), ((F(1, 3), 0), (0, F(1, 2)))),
        ])
        seeds = Configuration(2, ((0, 0), (1, 1)))
        reference = _cantor_by_intervals(stage)
        assert iterate_system(system, stage, seeds) == reference
        assert cantor_graph_stage(stage) == reference


class TestRandomConfiguration:
    def test_single_point_is_generic(self):
        config = random_configuration(1, 2, 100, seed=7)
        assert len(config) == 1
        assert decide_all_projections(config).generic

    def test_same_seed_same_output(self):
        a = random_configuration(6, 3, 1000, seed=42)
        b = random_configuration(6, 3, 1000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_configuration(6, 3, 1000, seed=1)
        b = random_configuration(6, 3, 1000, seed=2)
        assert a != b

    def test_coordinates_on_grid(self):
        config = random_configuration(5, 2, 10, seed=3)
        for p in config.points:
            for c in p:
                assert 0 <= c <= 1
                assert (c * 10).denominator == 1

    def test_points_distinct_even_on_tiny_grid(self):
        config = random_configuration(8, 2, 2, seed=11)
        assert len(set(config.points)) == 8

    def test_impossible_count_rejected(self):
        with pytest.raises(InputError):
            random_configuration(10, 1, 2, seed=0)

    def test_denominator_bound_validated(self):
        with pytest.raises(InputError):
            random_configuration(3, 2, 1, seed=0)

    def test_draws_are_pinned(self):
        # Seeded draws are part of the contract: this digest covers both
        # users of the one draw loop, on small grids that force redraws.
        digest = hashlib.sha256()
        for seed in range(40):
            config = random_configuration(
                3 + seed % 9, 2 + seed % 3, 3 + seed % 7, seed
            )
            digest.update(json.dumps(configuration_to_json(config)).encode())
        rng = SplitMix64(11)
        for i in range(40):
            config = grid_configuration(rng, 2 + i % 8, 2 + i % 3, 2 + i % 3)
            digest.update(json.dumps(configuration_to_json(config)).encode())
        assert digest.hexdigest() == (
            "8fdfdcfe1dafb4eb854c1ba249329e3dbb75d1484648d6e3b9a41237d700690a"
        )

    def test_grid_too_small_for_count_is_refused_not_redrawn_forever(self):
        with pytest.raises(InputError, match="grid has only 3 distinct points"):
            grid_configuration(SplitMix64(1), 6, 1, 2)

    def test_grid_refusal_is_exactly_where_the_power_says(self):
        """The refusal skips the power from count.bit_length() axes on; it
        must still refuse exactly the grids with fewer than count points. A
        draw that is not refused must finish, so the generator gives up
        after far more draws than any grid here needs."""

        class Budgeted(SplitMix64):
            def below(self, bound):
                self.left -= 1
                assert self.left, "an impossible draw was not refused"
                return super().below(bound)

        for count, dimension, top in product(range(1, 65), range(1, 8), range(4)):
            rng = Budgeted(count)
            rng.left = 10**5
            refuse = (top + 1) ** dimension < count
            try:
                draws = _distinct_draws(rng, count, dimension, top)
            except InputError as exc:
                assert refuse, (count, dimension, top)
                size = (top + 1) ** dimension
                assert str(exc).startswith(f"count: the grid has only {size} ")
            else:
                assert not refuse, (count, dimension, top)
                assert len(set(draws)) == count


class TestSplitMix64:
    def test_known_sequence_is_stable(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_below_is_in_range(self):
        rng = SplitMix64(5)
        draws = [rng.below(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError):
            SplitMix64(-1)

    @pytest.mark.parametrize("bound", [1, 7, 10**6, 2**63 + 5, 2**64])
    def test_one_word_bounds_keep_their_sequence(self, bound):
        """Up to 2^64 a draw is one word, rejected at or above the largest
        multiple of bound below 2^64, as it always was."""
        rng, words = SplitMix64(3), SplitMix64(3)
        limit = 2**64 - 2**64 % bound
        for _ in range(20):
            word = words.next_u64()
            while word >= limit:
                word = words.next_u64()
            assert rng.below(bound) == word % bound

    @pytest.mark.parametrize("bound", [2**64 + 1, 3 * 2**64, 10**300])
    def test_bounds_beyond_one_word_return(self, bound):
        """Above 2^64 a draw joins as many words as bound - 1 needs, high
        word first. Once the one-word limit here was 0 and below never
        returned."""
        rng, words = SplitMix64(7), SplitMix64(7)
        count = -(-(bound - 1).bit_length() // 64)
        draws = [rng.below(bound) for _ in range(50)]
        assert all(0 <= d < bound for d in draws) and len(set(draws)) == 50
        assert max(draws) > bound // 2
        joined = 0
        for _ in range(count):
            joined = joined << 64 | words.next_u64()
        assert joined < 2 ** (64 * count) - 2 ** (64 * count) % bound
        assert draws[0] == joined % bound


class TestPerturb:
    def test_square_becomes_generic(self, square):
        eps = F(1, 100)
        out = perturb_to_generic(square, eps, seed=1, max_attempts=5)
        assert decide_all_projections(out).generic
        assert hausdorff_sq(square, out) <= eps * eps
        assert len(out) == len(square)

    def test_zero_epsilon_rejected(self, square):
        with pytest.raises(InputError):
            perturb_to_generic(square, 0, seed=1)

    @pytest.mark.parametrize("epsilon", ["abc", "1.5", 1.5, "", None, True, "1/0"])
    def test_bad_epsilon_is_named(self, square, epsilon):
        with pytest.raises(InputError, match=r"^epsilon: "):
            perturb_to_generic(square, epsilon, seed=1)

    @pytest.mark.parametrize("epsilon", ["1/100", " 2/200 ", F(1, 100)])
    def test_epsilon_cells_are_read_as_rationals(self, square, epsilon):
        assert perturb_to_generic(square, epsilon, seed=1) == perturb_to_generic(
            square, F(1, 100), seed=1
        )

    def test_failure_carries_certificate(self, square, monkeypatch):
        # force every candidate to be judged non-generic so the budget runs out
        degenerate = decide_all_projections(square)
        monkeypatch.setattr(
            "genpos.generators.decide_all_projections", lambda c: degenerate
        )
        with pytest.raises(PerturbationError) as err:
            perturb_to_generic(square, F(1, 100), seed=2, max_attempts=3)
        assert err.value.attempts == 3
        assert err.value.certificate is degenerate.certificate

    def test_deterministic_given_seed(self, square):
        a = perturb_to_generic(square, F(1, 50), seed=9, max_attempts=5)
        b = perturb_to_generic(square, F(1, 50), seed=9, max_attempts=5)
        assert a == b

    def test_labels_preserved(self):
        config = Configuration(2, ((0, 0), (0, 1), (1, 0), (1, 1)), labels=tuple("abcd"))
        out = perturb_to_generic(config, F(1, 100), seed=4, max_attempts=5)
        assert out.labels == tuple("abcd")


def _pinned_outputs():
    """Every producer on small inputs: Cantor graph and product-Cantor
    stages, and seeded perturbations of a Cantor stage, a product stage and
    a random set."""
    def origin(n):
        return Configuration(n, ((0,) * n,))

    for stage in range(1, 9):
        yield cantor_graph_stage(stage)
    for dimension in (1, 2, 3):
        for stage in (1, 2, 3):
            system = product_cantor_system(dimension)
            yield iterate_system(system, stage, origin(dimension))
    sources = (
        cantor_graph_stage(3),
        iterate_system(product_cantor_system(2), 2, origin(2)),
        random_configuration(10, 3, 1000, 5),
    )
    for config in sources:
        for seed, epsilon in enumerate((F(1, 64), F(1, 100), F(3, 7))):
            yield perturb_to_generic(config, epsilon, seed)


def test_random_configuration_takes_huge_denominators():
    config = random_configuration(8, 4, 10**300, 7)
    assert len(config) == 8 and config.dimension == 4
    assert 10**300 % config.denominator == 0
    assert max(max(row) for row in config.integer_points) > 10**290


def test_producer_outputs_are_pinned():
    # The producers' JSON bytes are part of the contract; this digest was
    # taken from the Fraction producers the lattice ones replaced.
    digest = hashlib.sha256()
    for config in _pinned_outputs():
        digest.update(json.dumps(configuration_to_json(config)).encode())
    assert digest.hexdigest() == (
        "cec7c32e51a63bddb52c63cbf2b1f919f4d5ec146c5e4a6465602239300a643e"
    )
