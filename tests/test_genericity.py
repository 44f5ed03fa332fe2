import hashlib
import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    Certificate,
    Configuration,
    DegeneracyPattern,
    InputError,
    OracleGuardError,
    SplitMix64,
    Subspace,
    Verdict,
    check_general_position,
    cantor_graph_stage,
    classical_general_position,
    decide_all_projections,
    decide_all_projections_oracle,
    iterate_system,
    minimal_patterns,
    product_cantor_system,
    random_configuration,
    rank,
    subspace_from_json,
    verdict_to_json,
)
from genpos import genericity
from genpos.genericity import _level_sizes, _levels, _partitions_desc
from genpos.geometry import difference_basis, subspace_check_to_json
from genpos.linalg import vector_sub
from genpos.selftest import (
    check_certificate_soundness,
    check_generic_implies_classical,
    check_minimal_patterns_suffice,
    check_oracle_agreement,
    grid_configuration,
    grid_corpus,
    random_subspace,
)

F = Fraction


def difference_system(config, groups):
    """The in-group differences, base point to every other member, as
    Fraction vectors: the reference that difference_basis must span."""
    vectors = []
    for g in groups:
        base = config.points[g[0]]
        for idx in g[1:]:
            vectors.append(vector_sub(config.points[idx], base))
    return vectors


def _reference_all_patterns(dimension, max_vectors):
    """Every pattern with sum(size - 1) up to max_vectors, each partition
    built before any is dropped: the exhaustive enumeration the oracle used
    before it shared the engine's levels and sizes."""
    out = []
    for k in range(1, dimension):
        for total in range(k + 1, max_vectors + 1):
            for partition in _partitions_desc(total, total):
                out.append(DegeneracyPattern(k, tuple(p + 1 for p in partition)))
    return out


def _reference_engine_patterns(config):
    """The minimal patterns that fit, as built before the exhaustive mode
    joined the engine's generator."""
    n = len(config)
    for k in range(1, min(config.dimension, n - 1)):
        for partition in _partitions_desc(k + 1, n - k - 1):
            yield DegeneracyPattern(k, tuple(part + 1 for part in partition))


def _walked_sizes(config, minimal_only=True):
    """(k, sizes) for every level of the configuration and each of its
    fitting size tuples, in the order decide and the oracle walk them."""
    n = len(config)
    return [
        (k, sizes)
        for k in _levels(config.dimension, n)
        for sizes in _level_sizes(k, n, minimal_only)
    ]


def _pairs(patterns):
    """(k, sizes) of each pattern."""
    return [(p.k, p.sizes) for p in patterns]


@st.composite
def _grouped_points(draw):
    """Distinct integer points and disjoint groups of at least two of them,
    with at most six indices grouped and at most four in a group."""
    dimension = draw(st.integers(1, 4))
    coordinate = st.integers(-3, 3)
    points = draw(
        st.lists(
            st.tuples(*[coordinate] * dimension), min_size=2, max_size=7, unique=True
        )
    )
    indices = draw(st.permutations(range(len(points))))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    groups, start = [], 0
    for size in sizes:
        if start + size > min(len(points), 6):
            break
        groups.append(tuple(indices[start:start + size]))
        start += size
    if not groups:
        groups = [tuple(indices[:2])]
    return Configuration(dimension, points), tuple(groups)


def _orderings(groups):
    """The groups in every order, with every order of the members of each."""
    if not groups:
        yield ()
        return
    for i, group in enumerate(groups):
        for rest in _orderings(groups[:i] + groups[i + 1:]):
            for members in permutations(group):
                yield (members,) + rest


class TestDifferenceSystem:
    def test_single_pair(self):
        assert difference_basis(((0, 0), (1, 0)), ((0, 1),)) == [[1, 0]]

    def test_base_point_differences(self):
        points = ((0, 0), (1, 0), (2, 0), (0, 1))
        assert difference_basis(points, ((0, 1, 2, 3),)) == [[1, 0], [0, 1]]
        assert difference_basis(points, ((2, 0, 1, 3),)) == [[-2, 0], [-2, 1]]

    def test_two_groups(self):
        points = ((0, 0), (1, 0), (0, 1), (1, 2))
        assert difference_basis(points, ((0, 1), (2, 3))) == [[1, 0], [1, 1]]

    @settings(max_examples=60, deadline=None)
    @given(case=_grouped_points())
    def test_basis_spans_the_reference_differences_in_every_order(self, case):
        config, groups = case
        for ordering in _orderings(groups):
            basis = difference_basis(config.integer_points, ordering)
            reference = difference_system(config, ordering)
            assert len(basis) == rank(reference)
            for vector in reference:
                assert rank([*basis, vector]) == len(basis)


class TestDegenerateTuple:
    """A family is degenerate for k when its difference_basis has at most k
    vectors, the oracle's test of every family."""

    def test_collinear_triple(self):
        points = ((0, 0), (1, 0), (2, 0))
        assert len(difference_basis(points, ((0, 1, 2),))) == 1

    def test_independent_chords(self):
        points = ((0, 0), (1, 0), (0, 1), (1, 2))
        assert len(difference_basis(points, ((0, 1), (2, 3)))) == 2

    def test_parallel_chords(self):
        points = ((0, 0), (1, 1), (2, 0), (3, 1))
        assert len(difference_basis(points, ((0, 1), (2, 3)))) == 1


class TestMinimalPatterns:
    def test_k1(self):
        assert [(p.k, p.sizes) for p in minimal_patterns(1, 2)] == [
            (1, (3,)),
            (1, (2, 2)),
        ]

    def test_k2(self):
        assert [(p.k, p.sizes) for p in minimal_patterns(2, 3)] == [
            (2, (4,)),
            (2, (3, 2)),
            (2, (2, 2, 2)),
        ]

    def test_k_zero_rejected(self):
        with pytest.raises(InputError):
            minimal_patterns(0, 2)

    def test_k_at_dimension_rejected(self):
        with pytest.raises(InputError):
            minimal_patterns(2, 2)

    def test_vector_counts_are_k_plus_one(self):
        for k in range(1, 5):
            for p in minimal_patterns(k, 6):
                assert sum(s - 1 for s in p.sizes) == k + 1


class TestDecide:
    def test_triangle_generic(self, triangle):
        verdict = decide_all_projections(triangle)
        assert verdict.generic and verdict.certificate is None

    def test_square_certificate(self, square):
        verdict = decide_all_projections(square)
        assert not verdict.generic
        cert = verdict.certificate
        assert cert.groups == ((0, 1), (2, 3))
        assert cert.pattern.k == 1 and cert.pattern.sizes == (2, 2)
        assert cert.witness.generators == ((F(0), F(1)),)
        assert cert.witness.dim == 1

    def test_collinear_certificate(self, collinear3):
        verdict = decide_all_projections(collinear3)
        assert not verdict.generic
        cert = verdict.certificate
        assert cert.groups == ((0, 1, 2),)
        assert cert.witness.generators == ((F(1), F(0)),)

    def test_one_point_generic(self):
        assert decide_all_projections(Configuration(3, ((1, 2, 3),))).generic

    def test_dimension_one_generic(self):
        assert decide_all_projections(
            Configuration(1, ((0,), (1,), (2,)))
        ).generic

    def test_two_points_generic(self):
        assert decide_all_projections(Configuration(2, ((0, 0), (5, 7)))).generic

    def test_two_points_in_dimension_sixty_generic(self):
        config = Configuration(60, (tuple(range(60)), tuple(range(1, 61))))
        assert _walked_sizes(config) == []
        assert decide_all_projections(config).generic
        assert decide_all_projections_oracle(config).generic

    def test_first_hit_stops_pattern_building(self, monkeypatch):
        # 50 unit vectors in dimension 50 with a collinear triple at 0-2: the
        # first pattern hits, and none of the 204,222 sizes of the levels
        # after the first is built.
        points = [tuple(int(i == j) for j in range(50)) for i in range(50)]
        points[2] = tuple(2 * a - b for a, b in zip(points[1], points[0]))
        config = Configuration(50, tuple(points))
        assert _level_sizes(1, 50) == [(3,), (2, 2)]
        built, level_sizes = [], genericity._level_sizes

        def recording_level_sizes(k, n, *args):
            built.append(k)
            return level_sizes(k, n, *args)

        monkeypatch.setattr(genericity, "_level_sizes", recording_level_sizes)
        assert decide_all_projections(config).certificate.groups == ((0, 1, 2),)
        assert built == [1]

    def test_engine_patterns_stop_at_n_minus_two(self):
        # Only partitions that fit are built; the list must equal the old
        # one, every minimal pattern filtered by the point count.
        for dim in range(2, 9):
            for n in range(1, 11):
                points = tuple((i,) + (0,) * (dim - 1) for i in range(n))
                unbounded = [
                    p
                    for k in range(1, dim)
                    for p in minimal_patterns(k, dim)
                    if sum(p.sizes) <= n
                ]
                config = Configuration(dim, points)
                assert _walked_sizes(config) == _pairs(unbounded)

    def test_engine_patterns_match_references(self):
        # One generator for both modes: the exhaustive list equals the old
        # build-then-filter one, every pattern whose sizes fit n points, and
        # the minimal list is unchanged.
        for dim in range(1, 9):
            for n in range(1, 13):
                points = tuple((i,) + (0,) * (dim - 1) for i in range(n))
                config = Configuration(dim, points)
                exhaustive = [
                    p for p in _reference_all_patterns(dim, n) if sum(p.sizes) <= n
                ]
                assert _walked_sizes(config, False) == _pairs(exhaustive)
                minimal = list(_reference_engine_patterns(config))
                assert _walked_sizes(config) == _pairs(minimal)

    def test_matches_oracle_on_random_configurations(self):
        corpus = grid_corpus(9001, 80, range(4, 7), ((2, 3), (3, 3)))
        result = check_oracle_agreement(corpus)
        assert result.passed, result.detail

    def test_minimal_patterns_equal_exhaustive(self):
        corpus = grid_corpus(4242, 60, range(2, 7), ((2, 3), (3, 3)))
        result = check_minimal_patterns_suffice(corpus)
        assert result.passed, result.detail

    def test_certificates_are_sound(self):
        corpus = grid_corpus(808, 60, range(4, 7), ((2, 2), (3, 2)))
        decided = [(c, decide_all_projections(c)) for c in corpus]
        result = check_certificate_soundness(decided, min_violations=11)
        assert result.passed, result.detail

    def test_generic_passes_every_sampled_kernel(self):
        rng = SplitMix64(616)
        checked = 0
        for _ in range(30):
            dim = 2 + rng.below(2)
            config = grid_configuration(rng, 4 + rng.below(3), dim, 6)
            if not decide_all_projections(config).generic:
                continue
            checked += 1
            for k in range(1, dim):
                for _ in range(10):
                    kernel = random_subspace(rng, dim, k)
                    assert check_general_position(config, kernel).passed
        assert checked > 5

    def test_verdict_invariant_under_rigid_like_maps(self):
        rng = SplitMix64(321)
        for _ in range(25):
            dim = 2 + rng.below(2)
            config = grid_configuration(rng, 4 + rng.below(3), dim, 3)
            base = decide_all_projections(config).generic
            shift = tuple(F(rng.below(9) - 4, 3) for _ in range(dim))
            translated = Configuration(
                dim, tuple(tuple(c + s for c, s in zip(p, shift)) for p in config.points)
            )
            assert decide_all_projections(translated).generic == base
            scale = F(rng.below(5) + 1, rng.below(4) + 1)
            scaled = Configuration(
                dim, tuple(tuple(scale * c for c in p) for p in config.points)
            )
            assert decide_all_projections(scaled).generic == base
            perm = list(range(dim))
            for i in range(dim - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            permuted = Configuration(
                dim, tuple(tuple(p[i] for i in perm) for p in config.points)
            )
            assert decide_all_projections(permuted).generic == base


class TestOracle:
    def test_guard(self):
        config = Configuration(2, tuple((i, i * i) for i in range(13)))
        with pytest.raises(OracleGuardError):
            decide_all_projections_oracle(config)

    def test_one_point(self):
        assert decide_all_projections_oracle(Configuration(2, ((0, 0),))).generic

    def test_square_violation(self, square):
        assert not decide_all_projections_oracle(square).generic

    def test_triangle_generic(self, triangle):
        assert decide_all_projections_oracle(triangle).generic


class TestClassical:
    def test_triangle(self, triangle):
        assert classical_general_position(triangle).in_general_position

    def test_collinear_witness(self, collinear3):
        report = classical_general_position(collinear3)
        assert not report.in_general_position
        assert report.witness == (0, 1, 2)

    def test_coplanar_quadruple_in_3d(self):
        config = Configuration(
            3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        )
        report = classical_general_position(config)
        assert not report.in_general_position
        assert report.witness == (0, 1, 2, 3)

    def test_generic_implies_classical(self):
        corpus = grid_corpus(1999, 40, range(4, 7), ((2, 4), (3, 4)))
        result = check_generic_implies_classical(corpus)
        assert result.passed, result.detail


class TestPatternValidation:
    def test_sizes_must_cover_k_plus_one(self):
        with pytest.raises(InputError):
            DegeneracyPattern(2, (2,))

    def test_sizes_below_two_rejected(self):
        with pytest.raises(InputError):
            DegeneracyPattern(1, (2, 1))

    def test_sizes_are_canonicalized_descending(self):
        assert DegeneracyPattern(2, (2, 3)).sizes == (3, 2)

    def test_fractional_size_rejected_not_truncated(self):
        with pytest.raises(InputError, match=r"sizes\[0\]: must be an integer"):
            DegeneracyPattern(1, (2.9, 2))

    def test_string_size_rejected(self):
        with pytest.raises(InputError, match=r"sizes\[0\]: must be an integer"):
            DegeneracyPattern(1, ("3",))

    def test_bool_k_rejected(self):
        with pytest.raises(InputError, match="k: must be an integer"):
            DegeneracyPattern(True, (2, 2))

    def test_bool_size_rejected(self):
        with pytest.raises(InputError, match=r"sizes\[1\]: must be an integer"):
            DegeneracyPattern(1, (3, True))

    @pytest.mark.parametrize("sizes", [5, None])
    def test_sizes_not_a_list_rejected(self, sizes):
        with pytest.raises(InputError, match="^sizes: missing or not a list$"):
            DegeneracyPattern(1, sizes)


def _pinned_corpus():
    """Grid sets, Cantor graph stages 1-4, product-Cantor stages and small
    random sets, generic and degenerate."""
    sets = grid_corpus(2024, 40, range(4, 8), ((2, 4), (3, 2), (3, 3)))
    sets += [cantor_graph_stage(stage) for stage in range(1, 5)]
    for dim, stages in ((2, (1, 2)), (3, (1,))):
        start = Configuration(dim, ((0,) * dim,))
        system = product_cantor_system(dim)
        sets += [iterate_system(system, stage, start) for stage in stages]
    shapes = (
        (6, 2, 3), (7, 2, 5), (7, 3, 2), (8, 3, 3),
        (7, 2, 1000), (7, 3, 1000), (7, 4, 100), (8, 3, 10**6),
    )
    sets += [
        random_configuration(n, dim, den, seed)
        for seed, (n, dim, den) in enumerate(shapes, 1)
    ]
    return sets


def test_verdicts_witnesses_and_checks_are_pinned():
    """One sha256 over the verdict JSON of decide and of the oracle, the
    witness repr and the check report on the witness: a change to how
    kernels or differences are read must leave every byte as it is."""
    digest = hashlib.sha256()
    generic = 0
    for config in _pinned_corpus():
        verdict = decide_all_projections(config)
        oracle = decide_all_projections_oracle(config, max_points=len(config))
        for v in (verdict, oracle):
            digest.update(json.dumps(verdict_to_json(v)).encode())
        generic += verdict.generic
        if not verdict.generic:
            witness = verdict.certificate.witness
            digest.update(repr(witness).encode())
            report = check_general_position(config, witness)
            digest.update(json.dumps(subspace_check_to_json(report)).encode())
    assert generic == 13
    assert digest.hexdigest() == (
        "e83c3862b320cfba26633c24e83f00f4d263b6c592cd00db00f2b34bbb699b9c"
    )


# The violating sets of generate random in the command-line CI step:
# (points, dimension, denominator, seed).
_CI_VIOLATING = (
    (8, 3, 3, 0), (8, 3, 4, 0), (8, 3, 3, 57), (8, 4, 7, 1), (8, 3, 7, 24),
    (8, 4, 4, 35), (8, 4, 3, 49), (8, 4, 3, 2), (8, 4, 8, 142), (8, 5, 4, 75),
    (9, 6, 2, 1),
)
_FIXTURE_VIOLATING = {
    "square": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "collinear3": ((0, 0), (1, 0), (2, 0)),
    "other": (("1/3", 0), ("1/3", 1), ("4/3", 0), ("4/3", 1)),
}


@pytest.mark.parametrize(
    "config",
    [
        *(Configuration(2, points) for points in _FIXTURE_VIOLATING.values()),
        *(random_configuration(*case) for case in _CI_VIOLATING),
    ],
    ids=[*_FIXTURE_VIOLATING, *("random-%d-%d-%d-%d" % c for c in _CI_VIOLATING)],
)
def test_witness_equals_its_json_reading(config):
    """A witness is built on the lattice from the difference basis's list
    rows; it must hold tuples, so that it hashes, and be the kernel that its
    witness_H reads back as."""
    oracle = decide_all_projections_oracle(config)
    for verdict in (decide_all_projections(config), oracle):
        assert not verdict.generic
        witness = verdict.certificate.witness
        document = json.loads(json.dumps(verdict_to_json(verdict)))
        read = subspace_from_json(document["certificate"]["witness_H"])
        assert witness == read and hash(witness) == hash(read)
        assert repr(witness) == repr(read)
        c = verdict.certificate
        rebuilt = Verdict(False, Certificate(c.pattern, c.groups, read))
        assert rebuilt == verdict and hash(rebuilt) == hash(verdict)


def test_exhaustive_oracle_is_pinned():
    """One sha256 over the verdict JSON of the oracle over every pattern,
    not only the minimal ones: how each family is tested must not change
    which family it reports."""
    digest = hashlib.sha256()
    for config in _pinned_corpus():
        verdict = decide_all_projections_oracle(
            config, max_points=len(config), minimal_only=False
        )
        digest.update(json.dumps(verdict_to_json(verdict)).encode())
    assert digest.hexdigest() == (
        "7c28d3899c16ca28487f8466d3547d55b35cf87d26365b7efad6c94f1d235a50"
    )
