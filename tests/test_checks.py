import math
import re
from fractions import Fraction

import numpy as np
import pytest

from octorail.checks import require_real


@pytest.mark.parametrize("value", [0.25, -3, np.float32(1.5), np.int64(-2),
                                   np.float64(7.0), Fraction(1, 3)])
def test_require_real_accepts_finite_reals(value):
    assert require_real("x", value) is None
    assert require_real("x", abs(value), positive=True) is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True,
                                   np.bool_(True), "1.0", None, 1j,
                                   np.float64(math.nan)])
def test_require_real_names_what_it_refuses(value):
    got = re.escape(repr(value))
    with pytest.raises(ValueError, match=f"^x must be finite, got {got}$"):
        require_real("x", value)
    with pytest.raises(ValueError,
                       match=f"^x must be finite and positive, got {got}$"):
        require_real("x", value, positive=True)


@pytest.mark.parametrize("value", [0, 0.0, -1e-300, np.float64(-2.0)])
def test_require_real_positive_refuses_zero_and_below(value):
    assert require_real("x", value) is None
    got = re.escape(repr(value))
    with pytest.raises(ValueError,
                       match=f"^x must be finite and positive, got {got}$"):
        require_real("x", value, positive=True)
