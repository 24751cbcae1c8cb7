"""A batch's step operations against the one-trial rule, trial by trial.

``kernels.real_pivot`` and ``kernels._check_pivot`` take one pivot per trial.
A batch that passes returns the real parts as a new array, bit for bit; a
batch that fails raises exactly the error its first failing trial raises
when judged alone.  The initializers' one judgement of a batch's pivots
(``kernels._judge_steps``) raises what judging each step as it came raises.
``detectors._Trials``' ordering and swaps give each trial what
``detectors._OneTrial``'s give it alone, bit for bit.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from vblast import detectors, kernels  # noqa: E402
from vblast.detectors import OrderingTrace, _OneTrial, _Trials  # noqa: E402
from vblast.errors import ContractViolationError, SingularMatrixError  # noqa: E402
from vblast.kernels import (  # noqa: E402
    ZHER_MIN_K,
    FlopLedger,
    _check_pivot,
    _grow_inverse,
    _judge_steps,
    init_q_recursive,
    init_q_sherman_morrison,
    real_pivot,
)

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


@given(pivots=st.lists(st.one_of(REALS, PIVOTS), min_size=2, max_size=24))
@example(pivots=[0.5, 2.0, 1e-300])
@example(pivots=[0.5, -0.0, 5e-324, -1.0])
@example(pivots=[0.5, math.inf])
@example(pivots=[0.5, 2.0 + 0.0j, 3.0 - 0.0j])
# from 16 entries on, one numpy pass tests the sufficient condition first
@example(pivots=[0.5, -0.0, 5e-324, -1.0] * 4)
@example(pivots=[0.5 - 0.0j] * 17 + [math.inf])
@example(pivots=[2.0] * 16 + [1.0 + 1e-300j, 1.0 + 1.0j])
def test_real_arrays_are_judged_entry_by_entry(pivots):
    """``real_pivot`` on a float array and on its complex copy: the values, or the
    first failing entry's error, as each entry judged alone, whether the array's
    sufficient condition is tested in Python (below 16 entries) or in numpy."""
    x = np.array(pivots, np.complex128)
    first = next((e for e in (outcome(real_pivot, v, "ctx", 2) for v in x.tolist())
                  if isinstance(e, Exception)), None)
    arrays = [x] if x.imag.any() else [x, x.real.copy()]
    for a in arrays:
        got = outcome(real_pivot, a, "ctx", 2)
        if first is None:
            assert bits(got) == bits(x.real) and not np.shares_memory(got, a)
        else:
            assert type(got) is type(first) and str(got) == str(first)


@st.composite
def pivot_grids(draw):
    """A batch's recorded pivots ``(slots, T, n)`` and each slot's scale: slot 0's
    None, one number or one per pivot, slot 1's (a corner's) its own."""
    slots, t, n = draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    pivots = draw(st.lists(PIVOTS, min_size=slots * t * n, max_size=slots * t * n))
    scale = draw(st.one_of(st.none(), SCALES, st.lists(SCALES, min_size=t * n, max_size=t * n)))
    if isinstance(scale, list):
        scale = np.array(scale).reshape(t, n)
    return np.array(pivots, np.complex128).reshape(slots, t, n), (scale, None)[:slots]


def judged_as_they_came(pivots, scales, steps):
    """Each step's pivots judged when it computed them: ``_check_pivot`` on each
    slot's ``(T, 1)`` pivots, slot by slot, step by step."""
    for j, step in enumerate(steps):
        for x, scale in zip(pivots, scales):
            if isinstance(scale, np.ndarray):
                scale = scale[:, j:j + 1].copy()
            _check_pivot(x[:, j:j + 1].copy(), scale, "ctx", step)


@given(grid=pivot_grids())
# the last trial fails at an earlier step than the first: the earlier step wins
@example(grid=(np.array([[[2.0, 2.0, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0]]]),
               (1.0,)))
# a corner fails at the step where a later trial's Schur pivot fails: the Schur pivot wins
@example(grid=(np.array([[[1.0, 1.0], [1.0, 0.0]], [[1.0, math.nan], [1.0, 1.0]]]),
               (np.ones((2, 2)), None)))
@example(grid=(np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, -2.0], [1.0, 1 + 1j]]]),
               (np.ones((2, 2)), None)))
# subnormal real parts pass the rule's imaginary test where the one pass does not
@example(grid=(np.array([[[1e-310 + 1e-315j, 1.0]]]), (None,)))
@example(grid=(np.array([[[1e-14, 1.5e-14]]]), (1.0,)))
def test_one_judgement_raises_what_each_step_raises(grid):
    """``_judge_steps`` over ``(T, n)`` grids of pivots: it passes where judging each
    step as it came passes, else raises that judgement's error, type and text
    alike, and leaves the pivots as they were."""
    pivots, scales = grid
    before = pivots.copy()
    steps = range(2, pivots.shape[-1] + 2)
    want = outcome(judged_as_they_came, pivots, scales, steps)
    got = outcome(_judge_steps, pivots, scales, "ctx", steps)
    if want is None:
        assert got is None
    else:
        assert type(got) is type(want) and str(got) == str(want)
    assert pivots.tobytes() == before.tobytes()


# growths of 11 and of 32 steps, both judged once; the second runs BLAS from ZHER_MIN_K rows
GROWN = [12, ZHER_MIN_K + 1]


def powers(m, j=None, entry=None):
    """R = diag(1, 2, 4, ...), m x m, with R[j, j] = ``entry`` when given."""
    r = np.diag(2.0 ** np.arange(m)).astype(complex)
    if j is not None:
        r[j, j] = entry
    return r


def doubled(m, j):
    """``powers(m)`` with border j a copy of border j - 1: growth step j's Schur
    pivot (recursion index j + 1) is exactly 0."""
    r = powers(m)
    r[j, :] = r[j - 1, :]
    r[:, j] = r[:, j - 1]
    return r


def grow_in_place(stack, variant):
    q = stack.copy()
    _grow_inverse(q, stack.shape[-1], FlopLedger(), variant, kernels._bind(q))
    return q


def judged(monkeypatch, run, once):
    """``run()``'s outcome with pivots judged once per initializer (``once``) or at
    every step, and how many one-pass judgements it made."""
    calls = []
    with monkeypatch.context() as mp:
        if not once:
            mp.setattr(kernels, "JUDGE_ONCE_MIN_STEPS", 10**9)
        mp.setattr(kernels, "_judge_steps", lambda *a: calls.append(1) or _judge_steps(*a))
        return outcome(run), len(calls)


def check_stack(monkeypatch, runs, text, once=True):
    """Each run raises SingularMatrixError ``text`` (None: returns), as it does
    judging every step as it comes; with ``once``, from its one judgement."""
    for run in runs:
        got, calls = judged(monkeypatch, run, True)
        want, _ = judged(monkeypatch, run, False)
        if text is None:
            assert not isinstance(got, Exception), got
            assert got.tobytes() == want.tobytes()
        else:
            assert type(got) is SingularMatrixError and str(got) == text
            assert type(want) is SingularMatrixError and str(want) == text
        assert calls == int(once)


def growth_runs(stack, variant):
    return [lambda: init_q_recursive(stack, FlopLedger(), variant),
            lambda: grow_in_place(stack, variant)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["i", "v"])
@pytest.mark.parametrize("m", GROWN)
def test_growth_stack_earlier_step_wins(monkeypatch, m, variant):
    """The last trial's Schur pivot fails at step 3, the first trial's at step 8:
    step 3's error, although the first trial is judged first within a step."""
    stack = np.stack([doubled(m, 8), powers(m), doubled(m, 3)])
    text = f"singular pivot in block_inv_step_{variant} (recursion index 4): |0|"
    check_stack(monkeypatch, growth_runs(stack, variant), text)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", GROWN)
def test_growth_stack_corner_fails(monkeypatch, m):
    """A gamma of 1e-200 passes its Schur pivot, but 1/gamma**2 overflows and the
    three-division step's corner is not finite; the one-division step needs no
    corner and returns.  The corner wins over a later step's Schur pivot; at the
    same step, a later trial's Schur pivot wins."""
    tiny = powers(m, 5, 1e-200)
    stack = np.stack([tiny, powers(m), powers(m)])
    check_stack(monkeypatch, growth_runs(stack, "i"),
                "block_inv_step_i (recursion index 6): pivot is not finite")
    check_stack(monkeypatch, growth_runs(stack, "v"), None)
    stack[2] = doubled(m, 8)
    check_stack(monkeypatch, growth_runs(stack, "i"),
                "block_inv_step_i (recursion index 6): pivot is not finite")
    stack[2] = doubled(m, 5)
    check_stack(monkeypatch, growth_runs(stack, "i"),
                "singular pivot in block_inv_step_i (recursion index 6): |0|")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["i", "v"])
@pytest.mark.parametrize("m", GROWN)
def test_growth_stack_gamma_fails_after_a_schur_pivot(monkeypatch, m, variant):
    """A negative gamma at step 7 fails the gammas' one check, so each step is
    judged as it comes: the last trial's Schur pivot at step 3 fails first, and
    alone the gamma fails at its own step."""
    stack = np.stack([powers(m, 7, -1.0), powers(m), doubled(m, 3)])
    check_stack(monkeypatch, growth_runs(stack, variant),
                f"singular pivot in block_inv_step_{variant} (recursion index 4): |0|", once=False)
    stack[2] = powers(m)
    check_stack(monkeypatch, growth_runs(stack, variant),
                "singular pivot in init_q_recursive (recursion index 8): |-1|", once=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("triangle_only", [True, False])
@pytest.mark.parametrize("m", GROWN)
def test_sherman_morrison_stack_earlier_row_wins(monkeypatch, m, triangle_only):
    """Rows of 1e200 make a row's pivot infinite: the last trial's at row 2, the
    first trial's at row 6.  The build raises row 2's error from its one
    judgement, as judging each row as it comes does; clean, it returns the same bits."""
    h = np.stack([powers(m) / 2 ** m + np.eye(m)] * 3)
    runs = [lambda: init_q_sherman_morrison(h, 0.1, FlopLedger(), triangle_only)]
    check_stack(monkeypatch, runs, None)
    h[0, 6] = h[2, 2] = 1e200
    check_stack(monkeypatch, runs, "sm_rank1_inverse_update: pivot is not finite")


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
@example(rows=[[1.0, 2.0, 3.0, 0.0], [2.0, 1.0, 3.0, 4.0]])     # only the first step is per-row
def test_batch_order_is_each_trials_order(rows):
    """A call's steps order the leading m, m - 1, ..., 1 entries of each
    trial's diagonal.  Each step's indices and whether any trial moves, and
    each trial's trace from the call's one partition, bit for bit what
    ``_OneTrial`` gives that trial alone.  The steps partition nothing; a row
    that is not all positive and finite takes the per-row rule, since
    np.partition may order tied zeros of either sign differently by CPU."""
    m = len(rows[0])
    dg = np.array(rows, np.float64)
    before = dg.copy()
    trials = _Trials(len(rows), m)
    partitioned, partition = [], np.partition
    per_row, argmin_gap = [], detectors._argmin_gap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "partition", lambda *a, **kw: partitioned.append(1) or partition(*a, **kw))
        log, moves = trials.log(), []
        for k in range(m, 0, -1):
            l = trials.order(dg[:, :k], k, log)
            moves.append(None if l is None else l.tolist())
        assert not partitioned
        mp.setattr(detectors, "_argmin_gap", lambda d: per_row.append(d) or argmin_gap(d))
        traces = trials.traces(log)
    assert len(partitioned) == 1
    assert [bits(d) for d in per_row] == [bits(row[:k]) for k in range(m, 0, -1) for row in before
                                          if not all(0 < v < math.inf for v in row[:k])]
    assert dg.tobytes() == before.tobytes()
    alone = []
    for row, trace in zip(before, traces):
        one, one_log = _OneTrial(m), _OneTrial(m).log()
        alone.append([one.order(row[:k], k, one_log) for k in range(m, 0, -1)])
        assert [record_bits(rec) for rec in trace] == \
            [record_bits(rec) for rec in one.traces(one_log)[0]]
    for step, (moved, each) in enumerate(zip(moves, zip(*alone))):
        if all(l is None for l in each):
            assert moved is None
        else:
            assert moved == [rec[step].l for rec in traces]


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
