"""Known defects, each pinned as a strict xfail (ROADMAP item 18).

Each test asserts what the program should do and fails on that assertion
today.  A PR that mends a defect turns its test green, and with
``xfail_strict`` tier-1 then fails until the mark is removed.
"""

import pytest

from vbesharp import (
    AltSplineParams,
    altspline_momfun,
    bregman_ratio_max,
    centering_argmin,
    centering_constant,
    centering_objective,
    sharp_constant,
)


class TestSweepCutOff:
    """The sweeps stop at s <= 1e4 and c <= 1e3, and the spline's suprema lie
    far beyond; these pin the shortfall until the sweep reaches them."""

    F = altspline_momfun(AltSplineParams(0.1))

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="ROADMAP item 2: sharp_constant sweeps s <= 1e4 only")
    def test_sharp_constant_reaches_a_far_scale(self):
        # 1.5576182 at s* = 2.6e3 against 1.999999878 at s = 3.99e49
        res = sharp_constant(self.F)
        far = bregman_ratio_max(self.F, 3.99e49).value
        assert res.value >= far - res.abs_tol

    def test_far_centering_witness(self):
        f, c = self.F, 3.5e11
        s = 50.0 * c
        a = centering_argmin(f, c, s).value
        ratio = float(centering_objective(f, c, s, 0.0)) / \
            float(centering_objective(f, c, s, a))
        assert ratio >= 1.849

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="ROADMAP item 2: centering_constant sweeps c <= 1e3 only")
    def test_centering_constant_reaches_the_far_witness(self):
        # 1.2291858 against 1.8491879 at c = 3.5e11, s = 50c
        assert centering_constant(self.F).value >= 1.849
