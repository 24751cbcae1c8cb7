"""A batch's step operations against the one-trial rule, trial by trial.

``kernels.real_pivot`` and ``kernels._check_pivot`` take one pivot per trial.
A batch that passes returns the real parts as a new array, bit for bit; a
batch that fails raises exactly the error its first failing trial raises
when judged alone.  ``detectors._Trials``' ordering and swaps give each trial
what ``detectors._OneTrial``'s give it alone, bit for bit.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from vblast.detectors import OrderingTrace, _OneTrial, _Trials  # noqa: E402
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


# Q's diagonal entries: well-posed, exactly tied, or mixed with the values that
# send a batch's ordering from its partition to its per-row path
POSITIVE = st.floats(1e-3, 1e3)
TIED = st.sampled_from([0.25, 0.5, 1.0])
MIXED = st.one_of(POSITIVE, st.sampled_from([0.0, -0.0, 5e-324, -1.0, math.nan, math.inf,
                                              -math.inf]))


def diagonals(entries):
    """1-12 trials' leading diagonals, each of the same length m in 1-17."""
    return st.integers(1, 17).flatmap(lambda m: st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=1, max_size=12))


def record_bits(rec):
    assert type(rec) is OrderingTrace and type(rec.l) is int
    return rec.m, rec.l, float(rec.q_min).hex(), float(rec.q_gap).hex()


@given(rows=st.one_of(diagonals(POSITIVE), diagonals(TIED), diagonals(MIXED)))
@example(rows=[[0.5, 0.25, 0.25, 1.0], [1.0, 2.0, 3.0, 0.5]])
@example(rows=[[3.0, 2.0, 1.0], [2.0, 2.0, 1.0]])               # no trial moves
@example(rows=[[0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [1.0, 2.0, 3.0]])
@example(rows=[[1.0, math.nan, 2.0], [3.0, 1.0, 2.0]])
@example(rows=[[math.inf, 1.0], [1.0, -math.inf], [math.inf, math.inf]])
@example(rows=[[2.0, -1.0, 3.0], [1.0, 2.0, 3.0]])
@example(rows=[[0.5], [math.nan]])
def test_batch_order_is_each_trials_order(rows):
    """The index, q_min, gap and whether any trial moves, bit for bit; the
    batch partitions only diagonals that are all positive and finite, since
    np.partition may order tied zeros of either sign differently by CPU."""
    m = len(rows[0])
    dg = np.array(rows, np.float64)
    before = dg.copy()
    partitioned, partition = [], np.partition
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "partition", lambda *a, **kw: partitioned.append(1) or partition(*a, **kw))
        l, recs = _Trials(len(rows), m).order(dg, m)
    assert bool(partitioned) == (m >= 2 and all(0 < v < math.inf for row in rows for v in row))
    alone = [_OneTrial(m).order(row, m) for row in before]
    assert dg.tobytes() == before.tobytes()
    assert [record_bits(rec) for rec in recs] == [record_bits(one[0]) for _, one in alone]
    if all(moved is None for moved, _ in alone):
        assert l is None
    else:
        assert l.tolist() == [rec.l for _, (rec,) in alone]


@st.composite
def swaps(draw):
    """(m, j, one l per trial), one trial's l being j."""
    m = draw(st.integers(1, 17))
    j = draw(st.integers(0, m - 1))
    ls = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=12))
    ls[draw(st.integers(0, len(ls) - 1))] = j
    return m, j, ls


@given(swap=swaps())
def test_batch_swaps_are_each_trials_swaps(swap):
    """Entries of int and complex vectors and rows of matrices, bit for bit;
    a trial whose l is j keeps its own."""
    m, j, ls = swap
    n_trials = len(ls)
    rng = np.random.default_rng([m, j, *ls])
    ints = rng.integers(0, 1000, (n_trials, m))
    cplx = rng.standard_normal((n_trials, m)) + 1j * rng.standard_normal((n_trials, m))
    rows = rng.standard_normal((n_trials, m, 3)) + 1j * rng.standard_normal((n_trials, m, 3))
    vecs, mats = [ints.copy(), cplx.copy()], rows.copy()
    _Trials(n_trials, m).swap_entries(vecs, np.array(ls), j)
    _Trials(n_trials, m).swap_rows((mats,), np.array(ls), j)
    for t, l in enumerate(ls):
        one = [ints[t].copy(), cplx[t].copy()]
        _OneTrial(m).swap_entries(one, l, j)
        mat = rows[t].copy()
        _OneTrial(m).swap_rows((mat,), l, j)
        for got, want in zip((*vecs, mats), (*one, mat)):
            assert got[t].dtype == want.dtype and got[t].tobytes() == want.tobytes()
        if l == j:
            assert vecs[1][t].tobytes() == cplx[t].tobytes()


def _boundary_pivots():
    """(pivot, scale) pairs on and around every edge of the one-trial rule:
    ``re`` at SINGULAR_RTOL * |scale| and one ulp either side, ``|im|`` at
    PIVOT_IMAG_RTOL * re and one ulp above, subnormal, zero, infinite and NaN
    parts, each as a Python complex and as an np.complex128."""
    from vblast.kernels import PIVOT_IMAG_RTOL, SINGULAR_RTOL

    for scale in (None, 1.0, 2.0, -3.0, np.complex128(3 - 4j), 1e-300, 0.0, math.inf, math.nan):
        edge = 0.0 if scale is None or not math.isfinite(abs(scale)) else SINGULAR_RTOL * abs(scale)
        reals = [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf), 1.0,
                 5e-324, 1e-310, -0.0, -1.0, math.inf, -math.inf, math.nan]
        for re in reals:
            limit = PIVOT_IMAG_RTOL * re if math.isfinite(re) and re > 0 else 1.0
            for im in (0.0, -0.0, limit, -limit, math.nextafter(limit, math.inf), 1e-300,
                       math.inf, math.nan):
                for kind in (complex, np.complex128):
                    yield kind(complex(re, im)), scale


def test_one_trial_pivot_matches_its_two_trial_batch():
    """A pivot judged as a number (``_check_pivot``'s one-trial branch) returns the
    float a batch of two copies returns for it, or raises the batch's error, type
    and text alike, on every edge of the rule."""
    seen = 0
    for x, scale in _boundary_pivots():
        got = outcome(_check_pivot, x, scale, "ctx", 4)
        pair = outcome(_check_pivot, np.array([[x], [x]]), scale, "ctx", 4)
        if isinstance(pair, Exception):
            assert type(got) is type(pair) and str(got) == str(pair), (x, scale)
        else:
            assert type(got) is float, (x, scale, got)
            assert bits(got) == bits(pair[0]), (x, scale)
            seen += 1
    assert seen > 100
