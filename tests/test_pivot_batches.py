"""The pivot rule on a batch: each trial judged as its own number, in order.

``kernels.real_pivot`` and ``kernels._check_pivot`` take one pivot per trial.
A batch that passes returns the real parts as a new array, bit for bit; a
batch that fails raises exactly the error its first failing trial raises
when judged alone.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from vblast.errors import ContractViolationError, SingularMatrixError  # noqa: E402
from vblast.kernels import _check_pivot, real_pivot  # noqa: E402

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, math.nan, math.inf, -math.inf]
REALS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL))
# tiny ones pass the imaginary-part test against a real part near 1, large ones fail it
IMAGS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-15, 1e-11, 1e-9, 1.0, 1e10,
                                   math.nan, math.inf, -math.inf]),
                  st.floats(-1e-10, 1e-10))
# well-posed pivots often enough that whole batches pass, else any mix of edges
PIVOTS = st.one_of(st.builds(complex, st.floats(1e-3, 1e3), st.floats(-1e-12, 1e-12)),
                   st.builds(complex, REALS, IMAGS))
SCALES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL))


def outcome(check, *args):
    try:
        return check(*args)
    except (ContractViolationError, SingularMatrixError) as exc:
        return exc


def bits(a):
    return np.asarray(a, np.float64).ravel().view(np.uint64).tolist()


@given(pivots=st.lists(PIVOTS, min_size=1, max_size=12),
       scale=st.one_of(st.none(), SCALES, st.lists(SCALES, min_size=12, max_size=12)))
@example(pivots=[0.5 + 1e-12j, 2.0, 1e-300], scale=None)
@example(pivots=[0.5 + 1e-12j, 2.0, 3.0], scale=[1.0] * 12)
@example(pivots=[0.0, 1 + 1j], scale=None)
def test_batch_is_judged_trial_by_trial(pivots, scale):
    x = np.array(pivots, np.complex128).reshape(-1, 1)
    if isinstance(scale, list):
        scale = np.array(scale[: len(pivots)]).reshape(-1, 1)
    alone = scale.ravel().tolist() if isinstance(scale, np.ndarray) else [scale] * len(pivots)
    for check, args, per_trial in (
        (real_pivot, ("ctx", 2), [(v, "ctx", 2) for v in pivots]),
        (_check_pivot, (scale, "ctx", 2), [(v, s, "ctx", 2) for v, s in zip(pivots, alone)]),
    ):
        first = next((e for e in (outcome(check, *a) for a in per_trial)
                      if isinstance(e, Exception)), None)
        got = outcome(check, x, *args)
        if first is None:
            assert not isinstance(got, Exception), got
            assert bits(got) == bits(x.real)
            if len(pivots) > 1:
                assert got.shape == x.shape and not np.shares_memory(got, x)
        else:
            assert type(got) is type(first) and str(got) == str(first)
