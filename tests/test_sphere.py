import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheredpp.sphere import (
    PointPattern,
    SpherePoint,
    equal_area_project,
    geodesic_distance,
    pairwise_geodesic,
    sample_uniform_angles,
    surface_measure,
)


class TestSurfaceMeasure:
    def test_circle(self):
        assert surface_measure(1) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_sphere(self):
        assert surface_measure(2) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_d3(self):
        # Gamma formula: 2 pi^2 for S^3
        assert surface_measure(3) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            surface_measure(0)


class TestGeodesic:
    def test_identity(self):
        p = SpherePoint.s2(1.0, 2.0)
        assert geodesic_distance(p, p) == 0.0

    def test_antipodal(self):
        p = SpherePoint.circle(0.3)
        q = SpherePoint.circle(0.3 + math.pi)
        assert geodesic_distance(p, q) == pytest.approx(math.pi, abs=1e-12)

    def test_pole_to_equator(self):
        pole = SpherePoint.s2(0.0, 0.0)
        eq = SpherePoint.s2(math.pi / 2, 1.3)
        assert geodesic_distance(pole, eq) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            geodesic_distance(SpherePoint.circle(0.0), SpherePoint.s2(0.0, 0.0))

    @given(
        st.lists(st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)), min_size=3, max_size=3)
    )
    @settings(max_examples=200, deadline=None)
    @example([(0.0, 0.0), (1.0, 0.0), (1e-9, 0.0)])
    def test_symmetry_and_triangle(self, angles):
        a, b, c = (SpherePoint.s2(t, p) for t, p in angles)
        sab = geodesic_distance(a, b)
        sba = geodesic_distance(b, a)
        assert sab == pytest.approx(sba, abs=1e-10)
        assert sab <= geodesic_distance(a, c) + geodesic_distance(c, b) + 1e-10


def random_pattern(dim, n, seed):
    angles = sample_uniform_angles(dim, n, np.random.default_rng(seed))
    return PointPattern(dim, tuple(SpherePoint(dim, tuple(a)) for a in angles))


class TestPairwiseGeodesic:
    def test_geodesic_distance_is_pairwise_entry(self):
        pat = random_pattern(2, 20, 1)
        s = pairwise_geodesic(pat)
        for i, j in [(0, 1), (3, 7), (19, 2), (5, 5)]:
            assert geodesic_distance(pat.points[i], pat.points[j]) == s[i, j]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_near_and_antipodal_pairs_keep_relative_precision(self, dim):
        eps = 1e-9
        if dim == 1:
            pts = [SpherePoint.circle(t) for t in (0.0, eps, math.pi - eps)]
        else:
            pts = [SpherePoint.s2(math.pi / 2, lon) for lon in (0.0, eps, math.pi - eps)]
        s = pairwise_geodesic(pts)
        assert s[0, 1] == pytest.approx(eps, rel=1e-12)
        assert math.pi - s[0, 2] == pytest.approx(eps, rel=1e-6)

    def test_matches_three_axis_norm_formula_bitwise(self):
        # reference: the norms taken over (n, n, 3) difference and sum arrays
        pat = random_pattern(2, 300, 300)
        u = pat.vectors
        reference = 2.0 * np.arctan2(
            np.linalg.norm(u[:, None, :] - u[None, :, :], axis=-1),
            np.linalg.norm(u[:, None, :] + u[None, :, :], axis=-1),
        )
        np.testing.assert_array_equal(pairwise_geodesic(pat), reference)

    def test_plain_sequence_and_empty(self):
        pat = random_pattern(1, 10, 2)
        np.testing.assert_array_equal(pairwise_geodesic(list(pat)), pairwise_geodesic(pat))
        assert pairwise_geodesic([]).shape == (0, 0)
        assert pairwise_geodesic(PointPattern(2, ())).shape == (0, 0)


class TestUniformSampling:
    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2):
            angles = sample_uniform_angles(dim, 5, rng)
            assert angles.shape == (5, dim)
            for row in angles:
                p = SpherePoint(dim, tuple(row))
                assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = sample_uniform_angles(2, 5, np.random.default_rng(7))
        b = sample_uniform_angles(2, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        first = [sample_uniform_angles(1, 1, np.random.default_rng(3))[0, 0] for _ in range(5)]
        batch = sample_uniform_angles(1, 5, np.random.default_rng(3))
        assert first == [first[0]] * 5
        assert first[0] == batch[0, 0]

    def test_mean_vector_small(self):
        rng = np.random.default_rng(42)
        angles = sample_uniform_angles(2, 100_000, rng)
        vecs = np.column_stack(
            [
                np.sin(angles[:, 0]) * np.cos(angles[:, 1]),
                np.sin(angles[:, 0]) * np.sin(angles[:, 1]),
                np.cos(angles[:, 0]),
            ]
        )
        assert np.linalg.norm(vecs.mean(axis=0)) < 0.02

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_cap_fractions(self, p):
        # caps of measure p * 4pi around two different centers
        rng = np.random.default_rng(2024)
        n = 100_000
        angles = sample_uniform_angles(2, n, rng)
        vecs = np.column_stack(
            [
                np.sin(angles[:, 0]) * np.cos(angles[:, 1]),
                np.sin(angles[:, 0]) * np.sin(angles[:, 1]),
                np.cos(angles[:, 0]),
            ]
        )
        tol = 3 * math.sqrt(p * (1 - p) / n)
        for center in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]) / math.sqrt(3)):
            frac = np.mean(vecs @ center >= 1.0 - 2.0 * p)
            assert abs(frac - p) <= tol


class TestEqualAreaProjection:
    def test_north_pole_center(self):
        u, v = equal_area_project(SpherePoint.s2(0.0, 0.9))
        assert (u, v) == (0.0, 0.0)

    def test_equator(self):
        u, v = equal_area_project(SpherePoint.s2(math.pi / 2, 0.0))
        assert u == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_south_pole_boundary(self):
        u, v = equal_area_project(SpherePoint.s2(math.pi, 0.3))
        assert math.hypot(u, v) == pytest.approx(2.0, abs=1e-12)

    def test_wrong_dim(self):
        with pytest.raises(ValueError):
            equal_area_project(SpherePoint.circle(0.1))

    def test_area_preservation_monte_carlo(self):
        # uniform points on the sphere must project to uniform points in
        # the plane: the fraction inside a planar disc of radius r equals
        # area(pi r^2) / area(hemisphere 2 pi) = r^2 / 2
        rng = np.random.default_rng(5)
        n = 100_000
        angles = sample_uniform_angles(2, n, rng)
        north = angles[angles[:, 0] <= math.pi / 2]
        r_proj = 2.0 * np.sin(north[:, 0] / 2.0)
        for r in (0.5, 0.9, 1.2):
            frac_of_sphere = np.sum(r_proj <= r) / n
            assert abs(frac_of_sphere - r * r / 4.0) < 0.01  # of the full sphere

    def test_cap_image_is_disc(self):
        rng = np.random.default_rng(6)
        angles = sample_uniform_angles(2, 2000, rng)
        cap = angles[angles[:, 0] <= 0.7]
        radii = [
            math.hypot(*equal_area_project(SpherePoint.s2(t, p))) for t, p in cap
        ]
        assert max(radii) <= 2.0 * math.sin(0.35) + 1e-12


class TestSpherePointCoordinates:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_from_vector_round_trips(self, dim):
        for angles in sample_uniform_angles(dim, 50, np.random.default_rng(21)):
            point = SpherePoint(dim, tuple(angles))
            back = SpherePoint.from_vector(point.vector)
            assert back.dim == dim
            np.testing.assert_allclose(back.vector, point.vector, atol=1e-15)

    def test_from_vector_angles(self):
        assert SpherePoint.from_vector([0.0, -1.0]).theta == pytest.approx(1.5 * math.pi)
        south = SpherePoint.from_vector([0.0, 0.0, -1.0])
        assert (south.colat, south.lon) == (math.pi, 0.0)
        east = SpherePoint.from_vector([0.0, 1.0, 0.0])
        assert east.colat == pytest.approx(math.pi / 2) and east.lon == pytest.approx(math.pi / 2)

    def test_from_vector_rejects(self):
        with pytest.raises(ValueError, match="not a unit vector"):
            SpherePoint.from_vector([1.0, 1.0])
        with pytest.raises(ValueError, match="2- or 3-vector"):
            SpherePoint.from_vector([1.0, 0.0, 0.0, 0.0])

    def test_theta_is_the_circle_coordinate(self):
        assert SpherePoint.circle(-0.5).theta == pytest.approx(2 * math.pi - 0.5)
        with pytest.raises(ValueError, match="theta is the d=1 coordinate"):
            SpherePoint.s2(1.0, 2.0).theta


class TestPointPattern:
    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            PointPattern(2, (SpherePoint.circle(0.0),))

    def test_rejects_duplicates(self):
        p = SpherePoint.s2(0.5, 0.5)
        with pytest.raises(ValueError):
            PointPattern(2, (p, SpherePoint.s2(0.5, 0.5)))

    def test_csv_roundtrip_s2(self):
        angles = sample_uniform_angles(2, 5, np.random.default_rng(8))
        pts = tuple(SpherePoint.s2(colat, lon) for colat, lon in angles)
        pat = PointPattern(2, pts)
        buf = io.StringIO(pat.to_csv_text())
        back = PointPattern.from_csv(buf)
        np.testing.assert_allclose(back.angles(), pat.angles(), atol=1e-15)

    def test_csv_roundtrip_s1(self):
        pat = PointPattern(1, (SpherePoint.circle(0.1), SpherePoint.circle(2.2)))
        buf = io.StringIO(pat.to_csv_text())
        back = PointPattern.from_csv(buf)
        np.testing.assert_allclose(back.angles(), pat.angles(), atol=1e-16)

    def test_csv_header_and_digits(self):
        pat = PointPattern(2, (SpherePoint.s2(1.0, 2.0),))
        text = pat.to_csv_text()
        assert text.splitlines()[0] == "theta,phi,x,y,z"
        # 17 significant digits survive the round trip exactly
        assert float(text.splitlines()[1].split(",")[0]) == 1.0

    def test_csv_blank_lines_skipped(self):
        pat = PointPattern.from_csv(io.StringIO("theta,phi\n\n0.5,1.0\n\n"))
        assert len(pat) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("theta,phi\n0.5,1.0\n0.7\n", "line 3: field count 1 does not match the header"),
            ("theta,phi,x,y,z\n0.5,1.0,0,0,zz\n", "line 2, column 'z': not a number"),
            ("theta\nabc\n", "line 2, column 'theta': not a number"),
            ("theta\n1,2\n", "line 2: field count 2 does not match the header theta"),
            ("theta,phi\n0.5,1.0\n4.0,1.0\n", "line 3: colatitude must lie in [0, pi]"),
            ("theta\n1\r2\n", "line 2: new-line character"),
            ("", "empty CSV"),
            ("x,y\n1,2\n", "unrecognized point CSV header"),
        ],
    )
    def test_csv_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PointPattern.from_csv(io.StringIO(text))

    @given(
        st.one_of(
            st.text(),
            st.tuples(
                st.sampled_from(["theta\n", "theta,phi\n", "theta,phi,x,y,z\n"]),
                st.text(alphabet="0123456789.,-+eEinfa \n\r\""),
            ).map("".join),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_text_gives_pattern_or_value_error(self, text):
        try:
            pat = PointPattern.from_csv(io.StringIO(text))
        except ValueError:
            return
        assert np.all(np.isfinite(pat.angles()))


class TestPatternArrays:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_arrays_match_points(self, dim):
        pat = random_pattern(dim, 50, 11)
        np.testing.assert_array_equal(pat.vectors, np.array([p.vector for p in pat]))
        np.testing.assert_array_equal(pat.angles(), np.array([p.angles for p in pat]))
        assert pat.vectors.shape == (50, dim + 1)

    def test_arrays_read_only(self):
        pat = random_pattern(2, 5, 12)
        with pytest.raises(ValueError):
            pat.vectors[0, 0] = 0.0
        with pytest.raises(ValueError):
            pat.angles()[0, 0] = 0.0

    @pytest.mark.parametrize("dim, n", [(1, 0), (1, 20), (2, 0), (2, 20)])
    def test_csv_writer_matches_per_point_rows(self, dim, n):
        pat = random_pattern(dim, n, 13)
        header = "theta" if dim == 1 else "theta,phi,x,y,z"
        rows = [
            ",".join(f"{v:.17g}" for v in (*p.angles, *(p.vector if dim == 2 else ())))
            for p in pat
        ]
        assert pat.to_csv_text() == "\n".join([header, *rows]) + "\n"

    @pytest.mark.parametrize("dim, n", [(1, 0), (1, 30), (2, 1), (2, 30)])
    def test_upper_distances_cached_and_exact(self, dim, n):
        pat = random_pattern(dim, n, 14)
        upper = pat.upper_distances
        np.testing.assert_array_equal(upper, pairwise_geodesic(pat)[np.triu_indices(n)])
        assert pat.upper_distances is upper
        assert upper.shape == (n * (n + 1) // 2,)
        filled = np.zeros((n, n))
        filled[pat.upper_mask] = upper
        np.testing.assert_array_equal(filled, np.triu(pairwise_geodesic(pat)))
        assert pat.upper_mask is pat.upper_mask
        if n:
            with pytest.raises(ValueError):
                upper[0] = 1.0
            with pytest.raises(ValueError):
                pat.upper_mask[0, 0] = False
