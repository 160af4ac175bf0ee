import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gnk.geometry as geometry
from gnk import mobius
from gnk.coefficient import One
from gnk.errors import OddGridSize
from gnk.geometry import (
    DISC_SLACK,
    MIN_DISTANCE,
    Curve,
    ParamGrid,
    Region,
    circle,
    ellipse,
    load_region,
    validate_region,
)
from gnk.kernels import BoundaryJet
from helpers import (central_difference, lattice16, overlap_between_polygon_nodes,
                     perturbed_circle, point_winding, sampled_validate_region, traced_peak)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_gallery import FILES  # noqa: E402


class TestCurveJet:
    def test_unit_circle_at_zero(self):
        c = circle(0.0, 1.0)
        eta, eta_d, eta_dd = c.jet(0.0)
        assert eta == pytest.approx(1.0)
        assert eta_d == pytest.approx(-1j)
        assert eta_dd == pytest.approx(-1.0)

    def test_periodicity(self):
        c = perturbed_circle(1.0 + 2.0j, 0.7, [(3, 0.1)])
        for s in (0.3, 1.7, 5.1):
            assert c.jet(s) == pytest.approx(c.jet(s + 2 * math.pi))

    def test_ellipse_hand_derivative(self):
        # eta(s) = cos s - 0.5 i sin s differentiates by hand to the frozen jet
        e = ellipse(0.0, 1.0, 0.5)
        eta, eta_d, eta_dd = e.jet(math.pi / 2)
        assert eta == pytest.approx(-0.5j, abs=1e-15)
        assert eta_d == pytest.approx(-1.0, abs=1e-15)
        assert eta_dd == pytest.approx(0.5j, abs=1e-15)

    def test_first_derivative_matches_central_differences(self):
        curves = [circle(2.0, 1.0), ellipse(-1.0j, 1.5, 0.6),
                  perturbed_circle(3.0, 1.0, [(4, 0.1)])]
        step = 1e-5
        for c in curves:
            _, _, eta_dd = c.jet(np.linspace(0, 2 * math.pi, 50))
            scale = np.abs(eta_dd).max()
            for s in (0.0, 0.9, 2.4, 4.8):
                fd = central_difference(lambda x: c.jet(x)[0], s, step)
                assert abs(c.jet(s)[1] - fd) <= 1e-6 * scale

    def test_vectorized_matches_scalar(self):
        c = ellipse(1.0 + 1.0j, 1.1, 0.8)
        s = np.array([0.0, 1.0, 2.0])
        eta, eta_d, eta_dd = c.jet(s)
        for i, si in enumerate(s):
            assert eta[i] == pytest.approx(c.jet(float(si))[0])
            assert eta_d[i] == pytest.approx(c.jet(float(si))[1])
            assert eta_dd[i] == pytest.approx(c.jet(float(si))[2])


class TestCurveInput:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Curve(powers=[0, -1], coeffs=[1.0])

    def test_duplicate_powers_rejected(self):
        with pytest.raises(ValueError, match="duplicate Fourier powers"):
            Curve(powers=[0, -1, 0], coeffs=[1.0, 1.0, 2.0])

    def test_pipeline_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use (numpy 2.4), about 15 ms
        # and 1 MB in every process; the duplicate check and the pipeline
        # after it need no masked arrays
        code = """if True:
            import sys
            import numpy as np
            import gnk
            region = gnk.load_region({"curves": [
                {"type": "circle", "center": [3.0, 0.0], "radius": 1.0},
                {"type": "ellipse", "center": [-2.0, 2.5], "a": 1.2, "b": 0.7}]})
            grid = gnk.ParamGrid(64)
            assert gnk.validate_region(region, grid).ok
            ops = gnk.assemble_N(region, gnk.One(), grid)
            gnk.solve_rhp(ops, np.cos(np.arange(ops.size)))
            print("numpy.ma" in sys.modules)
        """
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize("power", [-1.7, 0.5, math.nan, math.inf])
    def test_non_integer_power_rejected(self, power):
        with pytest.raises(ValueError, match="Fourier powers must be integers"):
            Curve(powers=[0, power], coeffs=[3.0, 1.0])

    def test_integral_float_powers_read_as_integers(self):
        curve = Curve(powers=[0.0, -1.0], coeffs=[3.0, 1.0])
        assert curve.powers.dtype.kind == "i"
        assert curve.powers.tolist() == [0, -1]


class TestWinding:
    def test_clockwise_unit_circle_about_center(self):
        assert point_winding(circle(0.0, 1.0), 0.0, 64) == -1

    def test_exterior_point(self):
        assert point_winding(circle(0.0, 1.0), 3.0, 64) == 0

    def test_ellipse_center(self):
        # brute-force argument accumulation settles to a full clockwise turn
        assert point_winding(ellipse(3.0, 2.0, 1.0), 3.0, 64) == -1

    def test_point_too_close(self):
        assert math.isnan(point_winding(circle(0.0, 1.0), 1.0 + 1e-9j, 64))

    def test_doubling_invariance(self):
        c = perturbed_circle(2.0 - 1.0j, 1.0, [(5, 0.1)])
        for z in (2.0 - 1.0j, 5.0, -3.0j):
            assert point_winding(c, z, 64) == point_winding(c, z, 128)

    @given(st.floats(0.05, 0.9), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_interior_points_wind_minus_one(self, t, angle):
        c = circle(1.0 + 1.0j, 1.5)
        z = (1.0 + 1.0j) + t * 1.5 * np.exp(1j * angle)
        assert point_winding(c, z, 64) == -1

    @given(st.floats(1.1, 10.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_exterior_points_wind_zero(self, t, angle):
        c = circle(1.0 + 1.0j, 1.5)
        z = (1.0 + 1.0j) + t * 1.5 * np.exp(1j * angle)
        assert point_winding(c, z, 64) == 0

    @pytest.mark.parametrize("count", [10**3, 10**4])
    def test_turns_peak_bounded_in_point_count(self, count):
        # a block holds the differences, the shifted differences, their
        # ratio and its angle, 56 bytes for each of TURN_BLOCK pairs, beyond
        # the 8-byte counts; 10^4 points in one block would hold 82 MB of
        # differences alone.
        # The untraced first call takes the allocations numpy makes once.
        points = np.random.default_rng(3).uniform(-3.0, 3.0, (count, 2)) @ [1.0, 1j]
        curve = circle(0.0, 1.0)

        def count_turns(z):
            return geometry._turns_about_points(lambda s: curve.jet(s)[0], z, 512,
                                                MIN_DISTANCE)

        count_turns(points[:1])
        peak = traced_peak(lambda: count_turns(points))
        assert peak - 8 * count <= 64 * geometry.TURN_BLOCK


class TestTurnCounter:
    """_turns_about_points counts exactly, halving only where it must."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("shape", ["circle", "ellipse"])
    def test_finite_counts_equal_membership(self, shape, n):
        # 2,000 points in the box about the curve and 1,000 at 1e-9 to 1e-2
        # along its normals; inside the circle or the a / b = 6.7 ellipse the
        # clockwise curve winds -1
        rng = np.random.default_rng(11)
        a, b = (1.0, 1.0) if shape == "circle" else (2.0, 0.3)
        curve = circle(0.0, 1.0) if shape == "circle" else ellipse(0.0, a, b)
        box = rng.uniform(-1.2, 1.2, (2000, 2)) * [a, b] @ [1.0, 1j]
        eta, eta_d, _ = curve.jet(rng.uniform(0.0, 2 * math.pi, 1000))
        offsets = 10.0**rng.uniform(-9.0, -2.0, eta.size) * rng.choice([-1.0, 1.0], eta.size)
        z = np.concatenate((box, eta + offsets * 1j * eta_d / np.abs(eta_d)))
        turns = geometry._turns_about_points(lambda s: curve.jet(s)[0], z, n, MIN_DISTANCE)
        inside = (z.real / a)**2 + (z.imag / b)**2 < 1.0
        finite = np.isfinite(turns)
        assert np.array_equal(turns[finite], -inside[finite].astype(float))
        # NaN only within 1e-6 of the curve: a near point lies within its
        # offset of the curve
        assert finite[:2000].all()
        assert (np.abs(offsets[~finite[2000:]]) < MIN_DISTANCE).all()
        assert finite[2000:].sum() >= 500

    def test_probe_between_nodes_is_cheap(self):
        # 2e-6 outside the unit circle, 0.3 of a spacing past a node: the
        # count settles on pieces of 2^-13 spacings, which a doubling of the
        # whole grid would sample on 2^13 n = 2^21 nodes
        curve = circle(0.0, 1.0)
        z = np.array([(1.0 + 2e-6) * np.exp(-1j * 0.3 * (2 * math.pi / 256))])

        def count():
            return geometry._turns_about_points(lambda s: curve.jet(s)[0], z, 256,
                                                MIN_DISTANCE)

        assert count()[0] == 0
        start = time.perf_counter()
        count()
        assert time.perf_counter() - start <= 0.05
        assert traced_peak(count) <= 2**20

    def test_unsettled_count_is_nan(self):
        # 2e-6 from the curve at n = 64, the count settles on pieces of
        # 2^-15 spacings; 1e-8 from it, with no node too close, a step still
        # reaches pi/2 after the last level
        curve = circle(0.0, 1.0)
        z = (1.0 + 2e-6) * np.exp(-1j * 0.3 * (2 * math.pi / 64))
        assert geometry._turns_about_points(lambda s: curve.jet(s)[0], [z], 64,
                                            MIN_DISTANCE)[0] == 0
        far = (1.0 + 1e-8) * np.exp(-1j * 0.3 * (2 * math.pi / 64))
        assert math.isnan(geometry._turns_about_points(lambda s: curve.jet(s)[0], [far],
                                                       64, 0.0)[0])


class TestParamGrid:
    def test_rejects_odd(self):
        with pytest.raises(OddGridSize):
            ParamGrid(65)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            ParamGrid(6)

    def test_nodes_and_weight(self, three_circles):
        # the trapezoidal weight is the node spacing; the sampled jet owns it
        g = ParamGrid(8)
        assert np.allclose(g.nodes, np.arange(8) * math.pi / 4)
        jet = BoundaryJet.from_region(three_circles, One(), g)
        assert jet.weight == pytest.approx(math.pi / 4)


class TestValidation:
    def test_gallery_passes(self, three_circles, grid128):
        report = validate_region(three_circles, grid128)
        assert report.ok, str(report)

    def test_zero_inside_hole_fails(self, grid64):
        region = Region.from_curves([circle(0.0, 1.0)])
        report = validate_region(region, grid64)
        failed = {c.name for c in report.failures()}
        assert failed == {"zero_in_region[0]"}

    def test_overlapping_circles_fail_disjointness(self, grid64):
        region = Region.from_curves(
            [circle(3.0, 1.0), circle(4.0, 1.0)],
            hole_points=[3.0, 4.0],
        )
        report = validate_region(region, grid64)
        assert any(c.name.startswith("disjoint") for c in report.failures())

    @pytest.mark.parametrize("n", [64, 256])
    def test_overlap_between_polygon_nodes_fails_disjointness(self, n):
        # only the exact mutual winding sees the 1e-5 overlap
        report = validate_region(load_region(overlap_between_polygon_nodes()), ParamGrid(n))
        failures = report.failures()
        assert [c.name for c in failures] == ["disjoint[0,1]"]
        assert failures[0].margin > 6e-3
        assert failures[0].detail.endswith("max mutual winding 1.000")

    def test_counterclockwise_orientation_fails(self, grid64):
        ccw = Curve(powers=[0, 1], coeffs=[3.0, 1.0])  # center + exp(+is)
        report = validate_region(Region.from_curves([ccw]), grid64)
        assert any(c.name == "orientation[0]" for c in report.failures())

    def test_report_lists_margins(self, three_circles, grid64):
        report = validate_region(three_circles, grid64)
        assert all(np.isfinite(c.margin) for c in report.checks)
        assert "ok" in str(report)


def _close_pair() -> Region:
    # the discs overlap but the curves do not: the origin and the circle's
    # hole point lie inside the ellipse's disc, outside the ellipse
    return Region.from_curves([ellipse(2 + 1.5j, 3.0, 0.4), circle(2 + 2.7j, 0.5)])


def _same_checks(report, oracle):
    assert [c.name for c in report.checks] == [c.name for c in oracle.checks]
    for got, want in zip(report.checks, oracle.checks):
        assert (got.passed, got.detail) == (want.passed, want.detail), got.name
        assert got.margin == want.margin or (
            math.isnan(got.margin) and math.isnan(want.margin)), got.name


def _counted_points(monkeypatch):
    """The number of points of each _turns_about_points call, in order."""
    calls = []
    inner = geometry._turns_about_points
    monkeypatch.setattr(geometry, "_turns_about_points",
                        lambda loop, points, *args: calls.append(np.size(points))
                        or inner(loop, points, *args))
    return calls


class _Draws:
    """Stands in for st.data() in an @example: draw returns the given
    values in turn, whatever the strategy."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


class TestDiscScreening:
    """validate_region decides far-apart windings from the enclosing discs
    and reports exactly what sampling every winding reports."""

    @pytest.mark.parametrize("case", [
        "three_circles", "perturbed_gallery", "mixed_gallery", "lattice16",
        "overlapping-circles", "counterclockwise", "origin-in-hole", "close-pair"])
    def test_checks_equal_sampled_oracle(self, case, request, grid64):
        region = {
            "lattice16": lattice16,
            # centres 1.5 apart, between the larger radius and the radii's
            # sum; the second hole point lies on the first circle (NaN margin)
            "overlapping-circles": lambda: Region.from_curves(
                [circle(3.0, 1.0), circle(4.5, 1.0)], hole_points=[3.0, 4.0]),
            "counterclockwise": lambda: Region.from_curves(
                [Curve(powers=[0, 1], coeffs=[3.0, 1.0]), circle(-3.0, 1.0)]),
            "origin-in-hole": lambda: Region.from_curves(
                [circle(0.0, 1.0), circle(4.0 + 1.0j, 0.5)]),
            "close-pair": _close_pair,
        }.get(case, lambda: request.getfixturevalue(case))()
        _same_checks(validate_region(region, grid64), sampled_validate_region(region, grid64))

    @given(st.complex_numbers(max_magnitude=4.0), st.floats(0.1, 2.0),
           st.floats(0.1, 2.0), st.complex_numbers(max_magnitude=6.0))
    @settings(max_examples=40, deadline=None)
    @example(-0.7 + 5e-324j, 1.0, 1.0, 0j)  # a node a subnormal off the hole point
    def test_random_pairs_equal_sampled_oracle(self, center, a, b, hole):
        # an ellipse at 1 + i and a circle anywhere, with a
        # hole point anywhere: discs apart, overlapping, or nested
        region = Region.from_curves([ellipse(1.0 + 1.0j, a, b), circle(center, 0.7)],
                                    hole_points=[1.0 + 1.0j, hole])
        grid = ParamGrid(16)
        _same_checks(validate_region(region, grid), sampled_validate_region(region, grid))

    def test_lattice_samples_orientation_only(self, monkeypatch, grid64):
        # no mutual winding; one count per curve, of every hole point and
        # the origin
        counted = _counted_points(monkeypatch)
        region = lattice16()
        assert validate_region(region, grid64).ok
        assert counted == [region.m + 1] * region.m

    def test_reads_each_disc_once(self, monkeypatch, grid64):
        # one validation takes each curve's centroid and radius once, not
        # once per pair that it screens
        region = lattice16()
        reads = []
        for name in ("centroid", "radius"):
            getter = getattr(Curve, name).fget
            monkeypatch.setattr(Curve, name, property(
                lambda curve, name=name, getter=getter:
                    reads.append((name, id(curve))) or getter(curve)))
        assert validate_region(region, grid64).ok
        assert sorted(reads) == sorted((name, id(curve)) for curve in region.curves
                                       for name in ("centroid", "radius"))

    def test_close_pair_takes_sampled_path(self, monkeypatch, grid64):
        counted = _counted_points(monkeypatch)
        assert validate_region(_close_pair(), grid64).ok
        # both directions of the pair, 64 samples each; then each curve's
        # count of both hole points and the origin
        assert counted == [64, 64, 3, 3]

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True),
           st.data())
    @example(powers=[1], data=_Draws(5e-324, 5e-324))
    @settings(max_examples=60, deadline=None)
    def test_samples_stay_in_enclosing_disc(self, powers, data):
        parts = st.floats(-1e3, 1e3, allow_nan=False)
        coeffs = [complex(data.draw(parts), data.draw(parts)) for _ in powers]
        curve = Curve(powers=powers, coeffs=coeffs)
        eta = curve.jet(np.linspace(0.0, 2 * math.pi, 997))[0]
        c, r = curve.centroid, curve.radius
        # rounding stays far below the slack the screening allows; among
        # subnormals it is absolute, at most an ulp of 0 per product of the
        # up to six terms, where the relative slack underflows to 0
        assert np.abs(eta - c).max() <= (r + 1e-3 * DISC_SLACK * (abs(c) + r)
                                         + 16 * math.ulp(0.0))


def _assert_exact_gaps(region: Region, grid: ParamGrid) -> None:
    """The simple[k] and disjoint[j,k] margins equal the minima of the full
    complex-abs table of sample distances, bit for bit."""
    samples = [curve.jet(grid.nodes)[0] for curve in region.curves]
    exact = {}
    for j, a in enumerate(samples):
        for k in range(j, region.m):
            table = np.abs(a[:, None] - samples[k][None, :])
            if j == k:
                np.fill_diagonal(table, np.inf)
            exact[f"simple[{j}]" if j == k else f"disjoint[{j},{k}]"] = float(table.min())
    margins = {c.name: c.margin for c in validate_region(region, grid).checks}
    assert {name: margins[name] for name in exact} == exact


class TestExactGaps:
    """validate_region screens sample pairs by squared distance and takes the
    complex abs of the nearest only; every gap equals the full table's."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("case", [
        "three_circles", "perturbed_gallery", "mixed_gallery", "lattice16",
        "region_circles.json", "region_mixed.json", "region_close.json",
        "close-pair-far-out", "close-pair-tiny"])
    def test_gallery_gaps_equal_exact_table(self, case, n, request):
        far, tiny = 1e5 + 1e5j, 1e-4
        region = {
            "lattice16": lattice16,
            "close-pair-far-out": lambda: Region.from_curves(
                [ellipse(far + 2 + 1.5j, 3.0, 0.4), circle(far + 2 + 2.7j, 0.5)]),
            "close-pair-tiny": lambda: Region.from_curves(
                [ellipse(tiny * (2 + 1.5j), tiny * 3.0, tiny * 0.4),
                 circle(tiny * (2 + 2.7j), tiny * 0.5)]),
        }.get(case, lambda: (load_region(FILES[case]) if case.endswith(".json")
                             else request.getfixturevalue(case)))()
        _assert_exact_gaps(region, ParamGrid(n))

    @given(st.floats(-6.0, 6.0), st.complex_numbers(max_magnitude=1e6),
           st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.complex_numbers(max_magnitude=4.0))
    @settings(max_examples=60, deadline=None)
    @example(0.0, 0j, 1.0, 1.0, 1 + 5e-324j)  # a hole point a subnormal off a node
    def test_random_pairs_equal_exact_table(self, power, offset, a, b, centre):
        # any scale and offset, curves apart, touching or crossing
        scale = 10.0**power
        region = Region.from_curves([ellipse(offset, scale * a, scale * b),
                                     circle(offset + scale * centre, scale * 0.7)])
        _assert_exact_gaps(region, ParamGrid(64))

    def test_overflowing_disc_distance_keeps_the_nodes(self):
        # every node's distance to the second circle's centre overflows, and
        # so does the screen's slack, which then keeps every node
        region = Region.from_curves([circle(0.9e308, 1e300), circle(-1e308, 1.5e308)],
                                    hole_points=[0.9e308, -1e308])
        grid = ParamGrid(16)
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = (curve.jet(grid.nodes)[0] for curve in region.curves)
            checks = {c.name: c.margin for c in validate_region(region, grid).checks}
            assert checks["disjoint[0,1]"] == float(np.abs(a[:, None] - b).min())


class TestRegion:
    def test_hole_points_default_to_centroids(self):
        region = Region.from_curves([circle(2.0 + 1.0j, 0.5)])
        assert region.hole_points[0] == 2.0 + 1.0j

    def test_sample_layout(self, three_circles, grid64):
        eta, eta_d, eta_dd = three_circles.sample(grid64)
        assert eta.shape == (3 * 64,)
        block = slice(64, 128)
        direct = three_circles.curves[1].jet(grid64.nodes)
        assert np.allclose(eta[block], direct[0])
        assert np.allclose(eta_dd[block], direct[2])

    def test_mobius_center_defaults_to_last(self, three_circles):
        assert mobius._center(three_circles, 64) == three_circles.hole_points[-1]

    def test_no_curves_rejected(self):
        with pytest.raises(ValueError, match="at least one boundary curve"):
            Region.from_curves([])

    @pytest.mark.parametrize("points", [[3.0], [3.0, -3.0, 0.0]], ids=["fewer", "more"])
    def test_hole_point_count_must_match(self, points):
        with pytest.raises(ValueError, match="one hole point per curve"):
            Region.from_curves([circle(3.0, 1.0), circle(-3.0, 1.0)], hole_points=points)


class TestLoadRegion:
    def test_round_trip(self, tmp_path):
        payload = {
            "curves": [
                {"type": "circle", "center": [3.0, 0.0], "radius": 1.0},
                {"type": "ellipse", "center": [-2.0, 2.5], "a": 0.8, "b": 0.5},
                {"type": "trig", "coeffs": [[0, -0.5, -3.0], [-1, 1.2, 0.0]]},
            ]
        }
        path = tmp_path / "region.json"
        path.write_text(json.dumps(payload))
        region = load_region(path)
        assert region.m == 3
        assert region.hole_points == (3.0 + 0.0j, -2.0 + 2.5j, -0.5 - 3.0j)
        assert validate_region(region, ParamGrid(64)).ok

    def test_explicit_hole_points(self):
        region = load_region({
            "curves": [{"type": "circle", "center": [1.0, 0.0], "radius": 0.5}],
            "hole_points": [[1.1, 0.0]],
        })
        assert region.hole_points == (1.1 + 0.0j,)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            load_region({"curves": [{"type": "square", "side": 1.0}]})
