from fractions import Fraction

import pytest

from genpos import (
    Configuration,
    InputError,
    SplitMix64,
    Subspace,
    check_general_position,
    configuration_from_json,
    configuration_to_json,
    fibers,
    gram_determinant,
    project_onto_complement,
    rank,
    subspace_from_json,
    subspace_to_json,
    vector_sub,
)
from genpos.selftest import grid_configuration, random_subspace

F = Fraction


def brute_force_fibers(config, kernel):
    """Independent oracle: group indices by equal projected images."""
    images = [project_onto_complement(p, kernel) for p in config.points]
    classes = []
    for i, img in enumerate(images):
        for cls in classes:
            if images[cls[0]] == img:
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(tuple(c) for c in classes)


class TestConfiguration:
    def test_rejects_duplicate_points(self):
        with pytest.raises(InputError, match="duplicate point at indices 0 and 2"):
            Configuration(2, ((0, 0), (1, 0), (0, 0)))

    def test_rejects_wrong_dimension_point(self):
        with pytest.raises(InputError, match=r"points\[1\]"):
            Configuration(2, ((0, 0), (1, 0, 0)))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Configuration(2, ())

    def test_labels_length_checked(self):
        with pytest.raises(InputError, match="labels"):
            Configuration(2, ((0, 0), (1, 1)), labels=("a",))

    def test_coordinates_normalized(self):
        config = Configuration(1, (("2/4",), (3,)))
        assert config.points == ((F(1, 2),), (F(3),))


class TestSubspace:
    def test_dim_is_computed_rank(self):
        kernel = Subspace(3, ((1, 0, 0), (2, 0, 0), (0, 1, 0)))
        assert kernel.dim == 2

    def test_rejects_zero_dimension(self):
        with pytest.raises(InputError):
            Subspace(2, ((0, 0),))

    def test_rejects_full_space(self):
        with pytest.raises(InputError):
            Subspace(2, ((1, 0), (0, 1)))

    def test_no_proper_subspace_in_dimension_one(self):
        with pytest.raises(InputError):
            Subspace(1, ((1,),))


class TestProjection:
    def test_axis_kernel(self):
        assert project_onto_complement((3, 5), Subspace(2, ((0, 1),))) == (F(3), F(0))

    def test_point_inside_kernel_maps_to_zero(self):
        assert project_onto_complement((1, 1), Subspace(2, ((1, 1),))) == (F(0), F(0))

    def test_diagonal_kernel(self):
        # normal equations by hand: proj = ((x.h)/(h.h)) h = 1/2 (1,1)
        assert project_onto_complement((1, 0), Subspace(2, ((1, 1),))) == (
            F(1, 2),
            F(-1, 2),
        )

    def test_result_is_orthogonal_to_kernel_and_fixed(self):
        kernel = Subspace(3, ((1, 2, 3), (0, 1, 1)))
        image = project_onto_complement((5, -4, 7), kernel)
        for g in kernel.generators:
            assert sum(a * b for a, b in zip(image, g)) == 0
        assert project_onto_complement(image, kernel) == image

    def test_redundant_generators_accepted(self):
        plain = project_onto_complement((1, 0), Subspace(2, ((1, 1),)))
        redundant = project_onto_complement((1, 0), Subspace(2, ((1, 1), (2, 2))))
        assert plain == redundant

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            project_onto_complement((1, 0, 0), Subspace(2, ((0, 1),)))


class TestFibers:
    def test_vertical_kernel_merges_column(self, yaxis):
        config = Configuration(2, ((0, 0), (0, 1), (1, 0)))
        assert fibers(config, yaxis) == ((0, 1), (2,))

    def test_collinear_along_kernel(self, collinear3, xaxis):
        assert fibers(collinear3, xaxis) == ((0, 1, 2),)

    def test_square_rows(self, square, xaxis):
        assert fibers(square, xaxis) == ((0, 2), (1, 3))

    def test_matches_projection_image_grouping(self):
        rng = SplitMix64(12)
        for _ in range(40):
            dim = 2 + rng.below(2)
            config = grid_configuration(rng, 3 + rng.below(5), dim, 3)
            kernel = random_subspace(rng, dim, 1 + rng.below(dim - 1))
            assert fibers(config, kernel) == brute_force_fibers(config, kernel)

    def test_invariant_under_generator_rewrite(self):
        config = Configuration(3, ((0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1)))
        a = Subspace(3, ((1, 1, 0),))
        b = Subspace(3, ((-3, -3, 0), (2, 2, 0)))
        assert fibers(config, a) == fibers(config, b)

    def test_dimension_mismatch(self, xaxis):
        with pytest.raises(InputError):
            fibers(Configuration(3, ((0, 0, 0),)), xaxis)


class TestCheckGeneralPosition:
    def test_single_full_fiber_passes(self, yaxis):
        config = Configuration(2, ((0, 0), (0, 1), (1, 0)))
        report = check_general_position(config, yaxis)
        assert report.passed
        assert report.excess_sum == 1
        assert [f.indices for f in report.nondegenerate] == [(0, 1)]

    def test_oversized_fiber_fails(self, collinear3, xaxis):
        report = check_general_position(collinear3, xaxis)
        assert not report.passed
        assert "fiber size 3 exceeds k+1=2" in report.violations
        assert not report.nondegenerate[0].size_ok

    def test_sum_bound_fails_on_square(self, square, xaxis):
        report = check_general_position(square, xaxis)
        assert not report.passed
        assert report.excess_sum == 2
        assert not report.sum_ok
        assert all(f.size_ok for f in report.nondegenerate)
        assert all(f.affinely_independent for f in report.nondegenerate)

    def test_affine_dependence_detected(self):
        # three collinear points inside one fiber of a 2-dimensional kernel
        config = Configuration(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1)))
        kernel = Subspace(3, ((1, 0, 0), (0, 1, 0)))
        report = check_general_position(config, kernel)
        assert not report.passed
        assert any("affinely dependent" in v for v in report.violations)

    def test_nondegenerate_fiber_gram_nonzero_any_base(self):
        rng = SplitMix64(77)
        seen = 0
        for _ in range(60):
            dim = 2 + rng.below(2)
            config = grid_configuration(rng, 4 + rng.below(3), dim, 3)
            kernel = random_subspace(rng, dim, 1 + rng.below(dim - 1))
            report = check_general_position(config, kernel)
            for fiber in report.nondegenerate:
                if not fiber.affinely_independent:
                    continue
                seen += 1
                members = fiber.indices
                for base in members:
                    diffs = [
                        vector_sub(config.points[i], config.points[base])
                        for i in members
                        if i != base
                    ]
                    assert gram_determinant(diffs) != 0
                    assert rank(diffs) == len(members) - 1
        assert seen > 0


def test_integer_points_share_one_scale():
    config = Configuration(2, ((F(1, 2), F(-1, 3)), (0, 1), (F(5, 4), 2)))
    assert config.integer_points == ((6, -4), (0, 12), (15, 24))


class TestJson:
    def test_configuration_round_trip(self):
        config = Configuration(
            2, ((F(1, 3), F(1, 2)), (0, 1)), labels=("a", "b")
        )
        doc = configuration_to_json(config)
        assert doc == {
            "dimension": 2,
            "points": [["1/3", "1/2"], ["0", "1"]],
            "labels": ["a", "b"],
        }
        assert configuration_from_json(doc) == config

    def test_subspace_round_trip(self):
        kernel = Subspace(2, ((F(1, 2), 1),))
        doc = subspace_to_json(kernel)
        assert doc == {"ambient_dimension": 2, "generators": [["1/2", "1"]]}
        assert subspace_from_json(doc) == kernel

    def test_bad_rational_names_field(self):
        with pytest.raises(InputError, match=r"points\[0\]\[1\]"):
            configuration_from_json({"dimension": 2, "points": [["0", "1.5"]]})

    def test_missing_dimension_named(self):
        with pytest.raises(InputError, match="dimension"):
            configuration_from_json({"points": [["0"]]})

    def test_duplicate_points_rejected_with_indices(self):
        with pytest.raises(InputError, match="indices 0 and 1"):
            configuration_from_json(
                {"dimension": 1, "points": [["2/4"], ["1/2"]]}
            )
