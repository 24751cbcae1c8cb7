"""Ordered MMSE-SIC detection routines.

Ten routines share one contract: consume ``(ChannelRealization, RxFrame,
Constellation)``, return a :class:`DetectionResult`; each also runs a batch
of trials (below).  They are mathematically equivalent and differ only in
recursion schedule, flop count and working memory.

``oracle`` is the brute-force reference: it re-inverts the regularized Gram
matrix at every step with the unledgered Gauss-Jordan routine, in arithmetic
of its own: no Q storage, recursion step or ledgered kernel of the routines
under test.  It shares with them only data movement: the ordering rule, the
swaps and the trace records of its trial shape.  The nine recursive routines
all run one recursion,
:func:`_sic`: pick the stream with the smallest diagonal entry of
``Q = (H^H H + alpha I)^-1``, estimate it, cancel it, deflate ``Q``.  Each
``detect_*`` wrapper only chooses the initializer, the estimation domain and
the Q storage:

detector               Q initialized by     domain  Q storage        deflation
---------------------  -------------------  ------  ---------------  --------------
original               Sherman-Morrison     x       dense, swapped   R border, full
mem_saving             Sherman-Morrison     x       dense, swapped   own column
fastest_known          partitioned (I)      z       dense, swapped   R border, tri
speed_adv              partitioned (I)      z       dense, swapped   own column
proposed_1             single-division (V)  z       dense, swapped   own column
proposed_2             single buffer (V)    d (VI)  dense, swapped   own column
proposed_2_noperm      single buffer (V)    d (VI)  dense, indexed   own column
proposed_2_tri         single buffer (V)    d (VI)  packed, swapped  own column
proposed_2_tri_noperm  single buffer (V)    d (VI)  packed, indexed  own column

Sherman-Morrison builds Q from ``I/alpha`` by rank-one corrections over the
receive rows; the partitioned and single-division steps grow Q from the Gram
matrix R; the single buffer holds ``H^H`` and is covered in place by R, then
by Q through ``init_q_recursive``'s growth (``kernels._grow_inverse``) in its
M x M square, which the packed forms then pack.  Domain ``x`` estimates from
``H_m^H x`` and cancels from ``x``; ``z`` estimates from ``z = H^H x`` and
cancels with R's column; ``d`` cancels through the deficiency vector ``d``
and never reads R again.  Swapped storage keeps Q and the domain's vectors
in detection order by symmetric swaps; R, never updated, never moves either:
its border is read through the order permutation (:func:`_r_border`).  Three
storages keep only Q's upper triangle: the packed vector, indexed storage
(dense or packed) and dense storage on the BLAS route (blocks of
``kernels.ZHER_MIN_K`` or more, see :class:`_Dense`).  Each holds a trial's
buffer as one flat vector with a table ``at``, where ``at[i, j]`` is the flat
index of entry (min(i, j), max(i, j)); all three read through one function,
``kernels._read_upper``, which conjugates the entries below the diagonal, and
the swapped ones move through one conjugate-aware swap, :func:`_swap_upper`.
Indexed storage keeps the triangle in antenna order and addresses it through
the order permutation.  Below ``ZHER_MIN_K``, dense Q is a full square again
and swaps as one.  Q is deflated from its own column, or from R's border by
a Sherman-Morrison step on the full square or the upper triangle.

On the BLAS route, where numpy's OpenBLAS is found, the growth and the
dense storages run ``zher`` and ``zhemv``; the dense indexed form deflates
with one ``zher`` over its whole antenna-order triangle, the column
scattered into a zero vector, so the detected streams' entries gain +/-0
and are never read again.  The packed pair packs one growth, made before Q
first moves, so both start from the same bits; its deflation stays numpy,
because the pair must agree bit for bit and a packed rank-one update in
antenna order would form ``x_j (omega conj x_i)`` where the swapped form
forms ``x_i (omega conj x_j)``, which round differently.

The ``d`` convention: every ``d``-domain form estimates ``q^H z - d_m`` and
updates ``d -= (s + d_m) / omega * q_bar``, swapped or indexed alike.  The
published update is written in the '+' form, with ``d_paper = -d``.

Trial batches: every routine also takes lists or tuples ``(chs, rxs)`` of
trials with the same (M, N) and returns a :class:`BatchResult`, the batch's
outputs stacked: ``s_hat``, ``order`` and ``soft`` as ``(T, M)`` arrays in
antenna order, and ``q_steps`` as one ``(T, m, m)`` block per step.  All
ten routines take their trials through :func:`_stack`, which validates and
stacks them and decides the trial shape once per call (a batch of one runs
as its single trial and gains a leading axis of 1 at the end), and return
through :func:`_results`.  A batch runs together: each state array gains a
leading trial axis, each step is one set of numpy calls for all trials,
and each trial keeps its own ordering; a step only picks each trial's
index and keeps the diagonal in the call's ordering log.  The per-trial
:class:`DetectionResult` objects, ``BatchResult.trials``, are built when
that attribute is first read, their trace records from one pass over the
log's diagonals, so a sweep that reads only the stacked outputs builds
neither.  A trial's outputs, trace, ``q_steps``, ``aux``, ledger and memory
ledger are bit for bit those of a call on it alone, whatever batch it runs
in, and so are its rows of the stacked outputs; the batch's ``ledger`` and
``mem.peak_words`` are sums over its trials, and it raises the error of its
first trial to fail, as that trial alone raises it.  The oracle runs the
same lines for one trial and a batch: one Gauss-Jordan call inverts a stack
of Gram matrices, each with its own pivoting.

Memory accounting counts named, detector-owned working buffers of at least M
complex words (matrix buffers, copies of mutated inputs, and the M-length
state/scratch vectors).  Shorter per-step scratch, host-language
expression temporaries and what a result keeps for later reads
(``collect_q``'s blocks, a batch's ordering log) are outside the convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractViolationError, SingularMatrixError
from .kernels import (
    FlopLedger,
    _arange,
    _cols_off_diagonal,
    _packed_coords,
    _packed_square_flat,
    conj_matvec,
    gauss_jordan_inverse,
    init_gram,
    init_q_recursive,
    init_q_sherman_morrison,
    matvec,
    rank1_update_herm,
    vdot_c,
    _bind,
    _check_pivot,
    _complex,
    _entry,
    _grow_inverse,
    _mirror,
    _on_blas,
    _pack_upper,
    _read_upper,
    _sm_update_inplace,
    _strict_lower_mask,
)
from .sigmodel import ChannelRealization, Constellation, RxFrame, quantize


class MemLedger:
    """Peak simultaneously-live complex words across registered buffers."""

    __slots__ = ("peak_words", "_live", "_registry")

    def __init__(self):
        self.peak_words = 0
        self._live: dict[str, int] = {}
        self._registry: dict[str, int] = {}

    def alloc(self, name: str, words: int) -> None:
        self._live[name] = words
        self._registry[name] = max(self._registry.get(name, 0), words)
        live = sum(self._live.values())
        if live > self.peak_words:
            self.peak_words = live

    def free(self, name: str) -> None:
        self._live.pop(name, None)

    def copy(self) -> "MemLedger":
        out = MemLedger()
        out.peak_words = self.peak_words
        out._live = dict(self._live)
        out._registry = dict(self._registry)
        return out

    def times(self, n: int) -> "MemLedger":
        """The buffers of ``n`` runs like this one, all live at once (a batch's trials)."""
        out = MemLedger()
        out.peak_words = n * self.peak_words
        out._registry = {name: n * words for name, words in self._registry.items()}
        return out

    @property
    def buffers(self) -> list[tuple[str, int]]:
        return list(self._registry.items())

    def __repr__(self) -> str:
        return f"MemLedger(peak_words={self.peak_words}, buffers={self.buffers})"


class OrderingTrace(NamedTuple):
    """Ordering decision at one recursion step."""

    m: int
    l: int
    q_min: float
    q_gap: float


# a record from one (m, l, q_min, q_gap) tuple, without the field-by-field constructor
_record = partial(tuple.__new__, OrderingTrace)


@dataclass
class DetectionResult:
    s_hat: np.ndarray      # hard decisions, indexed by original antenna
    order: np.ndarray      # p[k] = antenna detected when k+1 streams remained
    soft: np.ndarray       # pre-quantization estimates, original antenna order
    ledger: FlopLedger
    mem: MemLedger
    trace: list[OrderingTrace] = field(default_factory=list)
    q_steps: list[np.ndarray] | None = None
    aux: dict | None = None    # extra per-step state, detector-specific


@dataclass(eq=False)
class BatchResult:
    """One detector over a batch of trials with the same (M, N).

    ``s_hat``, ``order`` and ``soft`` are ``(T, M)`` arrays, one trial per
    row, in antenna order as each trial's :class:`DetectionResult` holds
    them, and ``q_steps`` (None unless ``collect_q``) is one ``(T, m, m)``
    block per step.  ``ledger`` and ``mem.peak_words`` are the sums over the
    trials.  ``trials``, each trial's :class:`DetectionResult` in order, equal
    to what a call on that trial alone returns, is built by ``build`` when it
    is first read: its rows of the stacked fields, its trace, its blocks as
    ``q_steps``, its ``aux`` and its ledgers.
    """

    s_hat: np.ndarray
    order: np.ndarray
    soft: np.ndarray
    q_steps: list[np.ndarray] | None
    ledger: FlopLedger
    mem: MemLedger
    build: Callable[[], list[DetectionResult]] = field(repr=False)

    @cached_property
    def trials(self) -> list[DetectionResult]:
        return self.build()

    @classmethod
    def of(cls, results: list[DetectionResult]) -> "BatchResult":
        """``results``, one call's each on trials with the same (M, N), stacked
        as a batch: ``trials`` is ``results`` itself.  The ledgers are summed;
        every trial of a routine at one (M, N) has the same memory ledger."""
        def stack(name):
            return np.stack([getattr(res, name) for res in results])

        q_steps = (None if results[0].q_steps is None
                   else [np.stack(step) for step in zip(*(res.q_steps for res in results))])
        led = FlopLedger()
        for res in results:
            led.merge(res.ledger)
        return cls(stack("s_hat"), stack("order"), stack("soft"), q_steps, led,
                   results[0].mem.times(len(results)), lambda: results)


def _stack(chs, rxs, c):
    """Validate a call's trials, one or a list or tuple of them with the same
    (M, N), and its constellation ``c``, and return ``(batch, trials, h, x,
    alpha, p)``: one trial (a batch of one too) as a :class:`_OneTrial` and
    its own arrays, ``float(alpha)`` and ``arange(M)``; a batch as a
    :class:`_Trials` and stacked arrays, with alpha and ``p`` one row per
    trial.  Argument types are checked first, before any arithmetic.  The
    channel and the received vector are taken as ``complex128`` (themselves if
    they are already), alpha must be a real number.  A batch raises the error
    of its first trial to fail; the received vectors are checked for NaN or
    Inf in one call, trial by trial only if one has any.
    """
    if not isinstance(c, Constellation):
        raise ContractViolationError(
            f"constellation must be a Constellation, got {type(c).__name__}")
    batch = not isinstance(chs, ChannelRealization)
    if not batch:
        chs, rxs = (chs,), (rxs,)
    elif not isinstance(chs, (list, tuple)):
        raise ContractViolationError("channel must be a ChannelRealization, or a list or tuple "
                                     f"of them, got {type(chs).__name__}")
    elif not isinstance(rxs, (list, tuple)):
        raise ContractViolationError("a batch's received frames must be a list or tuple of "
                                     f"RxFrame, got {type(rxs).__name__}")
    if len(chs) != len(rxs) or not len(chs):
        raise ContractViolationError(
            f"a batch needs one received frame per channel, got {len(rxs)} for {len(chs)}")
    for t, (ch, rx) in enumerate(zip(chs, rxs)):
        if not (isinstance(ch, ChannelRealization) and isinstance(rx, RxFrame)):
            if t:
                _stack(chs[:t], rxs[:t], c)     # an earlier trial's own error comes first
            if not isinstance(ch, ChannelRealization):
                raise ContractViolationError(
                    f"channel must be a ChannelRealization, got {type(ch).__name__}")
            raise ContractViolationError(
                f"received frame must be an RxFrame, got {type(rx).__name__}")
    m, n = chs[0].m, chs[0].n
    hs, xs = [_complex(ch.h) for ch in chs], [_complex(rx.x) for rx in rxs]
    finite = all(x is not None for x in xs) and np.isfinite(np.concatenate(xs, axis=None)).all()
    for ch, rx, h, x in zip(chs, rxs, hs, xs):
        if (ch.m, ch.n) != (m, n):
            raise ContractViolationError(
                f"a batch needs one (M, N), got ({ch.m}, {ch.n}) after ({m}, {n})")
        if h is None or x is None:
            what = "channel matrix" if h is None else "received vector"
            raise ContractViolationError(f"{what} must hold real or complex numbers")
        if x.ndim != 1:
            raise ContractViolationError(f"received vector must be 1-D, got shape {x.shape}")
        if x.shape[0] != ch.n:
            raise ContractViolationError(
                f"received vector has length {x.shape[0]} for an N={ch.n} channel"
            )
        if not finite and not np.all(np.isfinite(x)):
            raise ContractViolationError("received vector contains NaN or Inf")
        if not isinstance(rx.alpha, (float, numbers.Real)):     # float first: the ABC check is slow
            raise ContractViolationError(
                f"alpha must be a real number, got {type(rx.alpha).__name__}")
        if not (rx.alpha > 0):
            raise ContractViolationError(f"detectors need alpha > 0, got {rx.alpha}")
    if len(chs) == 1:
        return batch, _OneTrial(m), hs[0], xs[0], float(rxs[0].alpha), np.arange(m)
    trials = _Trials(len(chs), m)
    return (batch, trials, np.array(hs), np.array(xs),
            np.array([[float(rx.alpha)] for rx in rxs]), trials.identity.copy())


def _results(batch, trials, p, hard, soft, led, mem, log, blocks, aux=None):
    """Scatter the decisions, in detection order, back to antenna order and
    return the call's :class:`DetectionResult`, or its :class:`BatchResult`
    when it took a batch (a batch of one with a leading axis of 1 added).
    ``log`` is the call's ordering log, and ``blocks`` (None unless Q is
    collected) each step's Q blocks, one per trial along the leading axis of
    a batch's; ``aux`` holds each trial's records.  A batch's traces and
    per-trial results are left to :func:`_trial_results`, when its
    ``trials`` is first read.  Every trial's ledgers are the one ledger each,
    so a batch's are that ledger times its trials."""
    lead = trials.lead
    s_hat, soft_ant = np.empty_like(hard), np.empty_like(soft)
    s_hat[(*lead, p)] = hard
    soft_ant[(*lead, p)] = soft
    if not batch:
        return DetectionResult(s_hat, p, soft_ant, led, mem, trials.traces(log)[0], blocks,
                               aux and aux[0])
    if not lead:
        s_hat, p, soft_ant = s_hat[None], p[None], soft_ant[None]
        blocks = None if blocks is None else [q[None] for q in blocks]
    n_trials = len(p)
    return BatchResult(
        s_hat, p, soft_ant, blocks,
        FlopLedger(n_trials * led.cmul, n_trials * led.cadd, n_trials * led.cdiv),
        mem.times(n_trials),
        partial(_trial_results, trials, log, s_hat, p, soft_ant, blocks, led, mem, aux))


def _trial_results(trials, log, s_hat, order, soft, blocks, led, mem, aux):
    """Each trial's :class:`DetectionResult` of a batch: its rows of the
    stacked fields, its records from one pass over the call's ``log``, its
    blocks, its ``aux`` and copies of the one trial's ledgers."""
    qs = repeat(None) if blocks is None else ([q[t] for q in blocks] for t in range(len(order)))
    aux = repeat(None) if aux is None else aux
    return [DetectionResult(s, p, x, led.copy(), mem.copy(), trace, q, a)
            for s, p, x, trace, q, a in zip(s_hat, order, soft, trials.traces(log), qs, aux)]


def _argmin_gap(d: list[float]):
    """First index of the smallest entry, its value, and the ordering gap.

    As ``np.argmin`` and ``np.partition`` on the same values: a NaN is the
    smallest entry for the index but sorts last for the value and the gap.
    """
    if len(d) < 2:
        return 0, d[0], math.inf
    total = sum(d)
    if total != total:                      # a NaN, or both infinities
        nan = [i for i, x in enumerate(d) if x != x]
        two = sorted(x for x in d if x == x) + [math.nan, math.nan]
        return (nan[0] if nan else d.index(two[0])), two[0], two[1] - two[0]
    q_min = min(d)
    l = d.index(q_min)
    return l, q_min, min(d[:l] + d[l + 1 :]) - q_min


# ---------------------------------------------------------------------------
# brute-force oracle


@np.errstate(all="ignore")      # numerical trouble ends in a typed error, not a warning
def detect_oracle(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Re-invert the regularized Gram matrix at every step (flop-exempt).

    A batch runs through the same lines with a leading trial axis (a batch
    of one runs as its single trial): one Gauss-Jordan call inverts every
    trial's Gram matrix, and each trial keeps its own pivoting.  The ordering,
    the swaps and the trace records are the trial shape's from :func:`_stack`,
    data movement only, so each trial equals its call alone bit for bit.
    """
    batch, trials, h, x, alpha, p = _stack(ch, rx, c)
    n_rx, m_tx = h.shape[-2:]
    h, alpha = (h, alpha[..., None]) if trials.lead else (h.copy(), alpha)  # h is swapped in place
    led = FlopLedger()          # stays zero: the oracle is not instrumented
    mem = MemLedger()
    mem.alloc("h_copy", m_tx * n_rx)
    mem.alloc("x", n_rx)
    mem.alloc("gram", m_tx * m_tx)
    mem.alloc("inv", m_tx * m_tx)
    mem.alloc("gj_workspace", 2 * m_tx * m_tx)
    soft = np.zeros(p.shape, np.complex128)     # in detection order
    hard = np.zeros(p.shape, np.complex128)
    log = trials.log()
    blocks = [] if collect_q else None      # each step's Q, one block per trial
    for m in range(m_tx, 0, -1):
        j = m - 1
        hm = h[..., :m]
        r = hm.conj().mT @ hm + alpha * np.eye(m)
        if not np.isfinite(r).all():
            raise SingularMatrixError("Gram matrix H^H H + alpha I is not finite")
        q = gauss_jordan_inverse(r)
        l = trials.order(q.diagonal(0, -2, -1).real, m, log)
        if l is not None:       # swap l (one per trial) with j in p, H's columns and Q
            trials.swap_entries((p,), l, j)
            trials.swap_rows((h.mT,), l, j)
            trials.sym_swap(q, l, j, m)
        if blocks is not None:
            blocks.append(q.copy())
        w = np.matvec(h[..., :m].conj().mT, x)
        est = np.vecdot(q[..., j], w)
        s = quantize(est, c)
        soft[..., j] = est
        hard[..., j] = s
        if m == 1:
            break
        x = x - np.asarray(est if cancel_soft else s)[..., None] * h[..., j]
    return _results(batch, trials, p, hard, soft, led, mem, log, blocks)


# ---------------------------------------------------------------------------
# the single buffer's in-place Gram covering
#
# It takes a leading trial axis, as the kernels do.


# rows per product of the Gram covering: at M = 64 and 128, 16 takes 0.02-0.04 ms more
# than 32 and 0.05-0.1 ms less than 8, and 32 doubles the scratch (proposed_2's traced
# peak: 124 against 149 KiB at M = 64, 355 against 439 KiB at M = 128)
GRAM_BLOCK = 16


def _cover_gram_rows(a, alpha, led):
    """Overwrite the upper triangle of a's square block with H^H H + alpha I.

    ``a`` holds the conjugate-transposed channel (M x N).  Row i of R reads
    only rows i..M-1, all still intact, so the buffer is covered in place,
    top-down, in blocks of b = ``GRAM_BLOCK`` rows: block [i0, i1) is one
    matrix product ``conj(a[i0:i1]) @ a[i0:M]^T`` (a ``zgemm`` per trial, the
    right operand read through its transpose), conjugated in place, its
    diagonal set to the real part plus alpha, and written over rows
    i0..i1-1 from column i0 on, entries below the diagonal within the block
    included (scratch: the b x N conjugated block and the b x (M - i0)
    product).  The charge is the upper triangle's ``N M (M + 1) / 2``
    products and adds, plus M adds for alpha.
    """
    m, n = a.shape[-2:]
    tri = m * (m + 1) // 2
    led.tick(cmul=n * tri, cadd=(n - 1) * tri + m)      # + m: alpha on the diagonal
    for i0 in range(0, m, GRAM_BLOCK):
        i1 = min(i0 + GRAM_BLOCK, m)
        t = np.conj(a[..., i0:i1, :]) @ a[..., i0:m, :].mT
        np.conjugate(t, out=t)
        dg = _arange(i1 - i0)
        t[..., dg, dg] = t[..., dg, dg].real + alpha
        a[..., i0:i1, i0:m] = t


# ---------------------------------------------------------------------------
# the trial shape of all ten routines and the Q storage of the recursive ones
#
# ``_stack`` builds a ``_OneTrial`` or, for a batch, a ``_Trials``; the oracle
# orders, swaps and records through it, and ``_sic`` also hands it to the
# initializer and the Q storage.  The two keep only what is faster written
# per shape: the ordering and its trace (a call's ``log``), the swaps of
# vectors, rows and full dense squares, and the index tables.  ``lead``
# indexes the trial axis: ``()``, or the trial
# numbers as a column (``lead2``: with two unit axes); ``spans[k]`` and
# ``ats[k]`` index the leading k entries and entry k of each trial's state
# vector.  Everything else (the swap and the read of Q's upper triangle, the
# growth and the deflation, the storages) is written once and indexes with
# ``...``, ``lead`` and these tables, so that one trial and a batch run the
# same lines.  A batch indexes a position that every trial shares (entry k,
# the swap target m - 1, a diagonal or border entry) with basic slices:
# ``ats[k]`` and ``kernels._entry`` give a ``(T, 1)`` view, and one trial a
# plain int.  It keeps ``lead`` where the position differs per trial (the
# swap source l, the permuted addresses of indexed storage) and for a gather
# through an index table: ``u[:, rows]`` would lay the result out otherwise,
# and the complex multiplies and BLAS calls after it would round unlike one
# trial's.
#
# Swapped storage is ``_Dense`` or ``_Packed``; indexed storage, dense or
# packed alike, is ``_Indexed``.  Every storage that keeps only Q's upper
# triangle (``_Packed``, ``_Indexed``, and ``_Dense`` on the BLAS route)
# holds each trial's buffer as one flat vector, with a table ``at`` of the
# flat index of entry (min(i, j), max(i, j)) for every (i, j).  It reads
# through ``kernels._read_upper`` and, if swapped, moves through
# :func:`_swap_upper`, a batch in one gather.  A storage's ``active(m, p)``
# returns the detected stream's column of the active block (omega last) and
# the index expressions of the active, kept and detected streams into the
# state vectors.


@lru_cache(maxsize=None)      # one read-only instance per shape: tables built once
class _OneTrial:
    """One trial's step operations: unbatched arrays and an int per index."""

    lead = lead2 = ()

    def __init__(self, dim):
        self.spans, self.ats = [slice(0, k) for k in range(dim + 1)], list(range(dim))

    def log(self):
        """A call's ordering log, which :meth:`order` fills and :meth:`traces` reads."""
        return []

    def order(self, dg, m, log):
        """:func:`_argmin_gap` of the diagonal: the index to swap into place
        ``m - 1`` (None if it is there already); the record goes to ``log``."""
        l, q_min, gap = _argmin_gap(dg.tolist())
        log.append(_record((m, l, q_min, gap)))
        return None if l == m - 1 else l

    def traces(self, log):
        """The call's traces, one per trial: the records in ``log``."""
        return [log]

    def swap_entries(self, vecs, l, j):
        for v in vecs:
            v[l], v[j] = v[j], v[l]

    def swap_rows(self, mats, l, j):
        for a in mats:
            row = a[l].copy()
            a[l] = a[j]
            a[j] = row

    def sym_swap(self, a, i, j, m):
        """Swap rows and columns i, j of the leading m x m block of a square."""
        row = a[i, :m].copy()
        a[i, :m] = a[j, :m]
        a[j, :m] = row
        col = a[:m, i].copy()
        a[:m, i] = a[:m, j]
        a[:m, j] = col


@lru_cache(maxsize=None)
class _Trials:
    """A batch's step operations: a leading trial axis on every array and one
    index per trial.  Each is :class:`_OneTrial`'s on every trial.

    The ordering keeps only what a step needs, each trial's index; its trace
    records come from one pass over the whole call's diagonals
    (:meth:`traces`), made when the batch's ``trials`` is first read.  ``flat[j]`` is the flat index of entry j of each
    trial's row in a C-contiguous ``(T, dim)`` state vector.
    """

    def __init__(self, n_trials, dim):
        self.ts = ts = _arange(n_trials)
        self.lead, self.lead2 = (ts[:, None],), (ts[:, None, None],)
        self.spans = [(slice(None), slice(0, k)) for k in range(dim + 1)]
        self.ats = [_entry(self.lead, k) for k in range(dim)]
        self.identity = np.tile(np.arange(dim), (n_trials, 1))     # each trial's first order
        self.flat = ts * dim + np.arange(dim)[:, None]
        # step s orders the leading dim - s entries; the rest of its row is
        # padding, and a row is at least two wide for the partition
        self.shape = (dim, n_trials, max(dim, 2))
        self.pad = np.arange(self.shape[-1]) >= np.arange(dim, 0, -1)[:, None, None]
        for t in (self.identity, self.flat, self.pad):
            t.flags.writeable = False

    def log(self):
        """A call's ordering log: each step's diagonal, padded with +inf, and
        each trial's index."""
        return np.full(self.shape, math.inf), np.empty(self.shape[:2], np.intp)

    def order(self, dg, m, log):
        """Each trial's index to swap, or None if no trial moves; the diagonal
        and the indices go to ``log``.  ``np.argmin`` gives :func:`_argmin_gap`'s
        index on every row, NaN and signed zeros included."""
        diags, ls = log
        s = self.shape[0] - m
        row, l = diags[s, :, :m], ls[s]
        row[...] = dg
        row.argmin(axis=1, out=l)
        return None if l.tolist().count(m - 1) == len(l) else l

    @np.errstate(all="ignore")      # only rows that take the per-row rule warn
    def traces(self, log):
        """The call's traces, one per trial, from one partition of every step's
        diagonal: q_min and the gap to the next smallest entry.  A row that
        holds a zero, a negative, a NaN or an infinity takes
        :func:`_argmin_gap` instead, since ``np.partition`` orders tied zeros
        of either sign as its SIMD network happens to; on a positive finite
        row the two agree bit for bit."""
        diags, ls = log
        two = np.partition(diags, 1, axis=-1)
        q_min = two[..., 0]
        gap = (two[..., 1] - q_min).T.tolist()
        odd = ~((q_min > 0) & (np.isfinite(diags) | self.pad).all(axis=-1))
        q_min = q_min.T.tolist()
        dim = self.shape[0]
        for s, t in zip(*np.nonzero(odd)):
            _, q_min[t][s], gap[t][s] = _argmin_gap(diags[s, t, : dim - s].tolist())
        ms = range(dim, 0, -1)
        return [list(map(_record, zip(ms, *rows))) for rows in zip(ls.T.tolist(), q_min, gap)]

    def swap_entries(self, vecs, l, j):
        """Swap entries l (one per trial) and j (the same in every trial) of each
        C-contiguous ``(T, dim)`` vector, through its flat view; a trial whose
        l is j keeps its own."""
        src, dst = self.flat[0] + l, self.flat[j]
        for v in vecs:
            f = v.reshape(-1, copy=False)
            f[dst], f[src] = f[src], f[dst]

    def swap_rows(self, mats, l, j):
        """Swap rows l (one per trial) and j of each matrix."""
        ts = self.ts
        for a in mats:
            a[:, j], a[ts, l] = a[ts, l], a[:, j].copy()

    def sym_swap(self, a, i, j, m):
        ts = self.ts
        row = a[ts, i, :m]
        a[ts, i, :m] = a[:, j, :m]
        a[:, j, :m] = row
        col = a[ts, :m, i]
        a[ts, :m, i] = a[:, :m, j]
        a[:, :m, j] = col


class _Dense:
    """Dense Q in detection order by symmetric swaps.

    Q is the leading square of ``buf``, one C-contiguous M x lda buffer per
    trial.
    ``rows`` (the x domain's transposed channel copy) has its rows swapped.
    With ``herm``, Q is bound once (``kernels._bind``): on the BLAS route, a
    leading block of ``kernels.ZHER_MIN_K`` or more keeps only its upper
    triangle, which :func:`_swap_upper` and :func:`kernels._read_upper` move
    and read through ``buf`` as one vector per trial and the table ``at``;
    below, Q's blocks are full squares again (the deflation from R's border
    mirrors the block it first reads there).  ``original`` keeps its full
    squares (``herm`` false).  R, where kept, never moves: see
    :func:`_r_border`.
    """

    def __init__(self, trials, buf, rows=None, herm=True):
        self.trials = trials
        self.lead, self.spans, self.ats = trials.lead, trials.spans, trials.ats
        dim, lda = buf.shape[-2:]
        self.q = q = buf[..., :dim]
        self.qdiag = q.diagonal(axis1=-2, axis2=-1).real    # a view: follows Q's updates
        self.rows = rows
        self.bound = _bind(q) if herm else None
        if self.bound is not None:
            # a view, or an error: a copy would take the swaps
            self.flat = buf.reshape(buf.shape[:-2] + (-1,), copy=False)
            self.at = _dense_upper_flat(dim, lda)

    def diag(self, m, p):
        return self.qdiag[..., :m]

    def swap(self, l, last):
        if _on_blas(self.bound, last + 1):
            _swap_upper(self.flat, self.at, self.lead, l, last)
        else:
            self.trials.sym_swap(self.q, l, last, last + 1)
        if self.rows is not None:
            self.trials.swap_rows((self.rows,), l, last)

    def active(self, m, p):
        return self.q[..., :m, m - 1], self.spans[m], self.spans[m - 1], self.ats[m - 1]

    def sub(self, rest, x, c, led):
        """Hermitian ``Q[rest, rest] -= c x x^H``, ``x`` Q's column k above the diagonal."""
        k, bound = x.shape[-1], self.bound
        rank1_update_herm(self.q[..., :k, :k], x, c, led, subtract=True, bound=bound,
                          xat=bound and bound.col(k))

    def block(self, m, p):
        if _on_blas(self.bound, m):
            return _read_upper(self.flat, self.trials.lead2, self.at[:m, :m], _strict_lower_mask(m))
        return self.q[..., :m, :m].copy()


@lru_cache(maxsize=None)
def _swap_order(k):
    """For :func:`_swap_upper` of rows l and k - 1: each moved entry's row or
    column index (it is conjugated where that exceeds l) and the position
    each moved entry goes to, in the order the swap gathers them."""
    j = k - 1
    ar = np.arange(j)
    tables = np.concatenate((ar, [j], ar)), np.concatenate((ar + k, [j], ar))
    for t in tables:
        t.flags.writeable = False
    return tables


def _swap_upper(flat, at, lead, l, last):
    """Swap rows and columns l and last of the leading block of a storage that
    keeps only Q's upper triangle (l one per trial), reading and writing
    nothing below the diagonal.  ``flat`` holds each trial's buffer as one
    vector and ``at[i, j]`` is the flat index of entry (min(i, j), max(i, j)).

    Only the 2 * last + 1 entries that change move: row l (column l above the
    diagonal, the diagonal entry, then row l up to column last) with column
    last above the diagonal, both conjugated past l, except that the two
    diagonal entries trade places; and the corner (l, last), conjugated in
    place.  Every trial moves as many entries, so a batch moves them in one
    gather; a trial whose l is last writes its entries back unchanged.
    """
    k = last + 1
    order, flip = _swap_order(k)
    # row l and the corner, then column last with its diagonal entry at l
    src = np.concatenate((at[l, :k], at[last, :k][_cols_off_diagonal(k)[l, :last]]), axis=-1)
    flat[(*lead, src[..., flip])] = _read_upper(flat, lead, src, order > np.asarray(l)[..., None])


class _Packed:
    """Packed upper triangle of Q, kept in detection order by swaps.

    Both packed forms pack Q's upper triangle once it is grown in the single
    buffer's dense square, before Q first moves; every step after that is
    numpy's, on the packed vector.
    """

    def __init__(self, trials, upper, dim):
        self.trials = trials
        self.lead, self.spans, self.ats = trials.lead, trials.spans, trials.ats
        self.upper, self.at = upper, _packed_square_flat(dim)
        self.dflat = self.at.diagonal()
        self.ureal = upper.real

    def diag(self, m, p):
        return self.ureal[(*self.lead, self.dflat[:m])]

    def swap(self, l, last):
        _swap_upper(self.upper, self.at, self.lead, l, last)

    def active(self, m, p):
        base = (m - 1) * m // 2
        return self.upper[..., base : base + m], self.spans[m], self.spans[m - 1], self.ats[m - 1]

    def sub(self, rest, x, c, led):
        """Hermitian ``Q[:k, :k] -= (c x) x^H`` on the leading block's triangle, the
        packed vector's first k*(k+1)/2 entries, with the products formed as in
        ``kernels.rank1_update_herm``'s numpy path; diagonal imaginary parts zeroed."""
        k, lead = x.shape[-1], self.lead
        rows, cols = _packed_coords(k)
        self.upper[..., : rows.size] -= (c * x)[(*lead, rows)] * np.conj(x)[(*lead, cols)]
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        self.upper.imag[(*lead, self.dflat[:k])] = 0.0

    def block(self, m, p):
        return _read_upper(self.upper, self.trials.lead2, self.at[:m, :m], _strict_lower_mask(m))


@lru_cache(maxsize=None)
def _dense_upper_flat(m, n):
    """Flat index of entry (min(i, j), max(i, j)) of a row-major (m, n) buffer, for
    every (i, j) of its leading square."""
    i, j = np.indices((m, m))
    at = np.minimum(i, j) * n + np.maximum(i, j)
    at.flags.writeable = False
    return at


class _Indexed:
    """Q's upper triangle in antenna order, addressed through the order permutation.

    ``flat`` holds each trial's buffer as one vector and ``at[i, j]`` is the
    flat index of entry (i, j), or of (j, i) below the diagonal, which is
    read and written conjugated.  ``bound`` is the dense square's binding for
    BLAS (``kernels._bind``), None for the packed vector: see :meth:`sub`.
    """

    swap = None     # nothing moves

    def __init__(self, trials, flat, at, bound=None):
        self.trials = trials
        self.lead, self.spans, self.ats = trials.lead, trials.spans, trials.ats
        self.flat, self.at, self.bound = flat, at, bound
        self.freal = flat.real
        self.dflat = at.diagonal()

    def diag(self, m, p):
        return self.freal[(*self.lead, self.dflat[p[..., :m]])]

    def active(self, m, p):
        lead, act, last = self.lead, p[self.spans[m]], p[self.ats[m - 1]]
        return (_read_upper(self.flat, lead, self.at[act, last], act > last), (*lead, act),
                (*lead, p[self.spans[m - 1]]), (*lead, last))

    def sub(self, rest, x, c, led):
        """Hermitian ``Q[rest, rest] -= (c x) x^H`` on the upper triangle in rest's
        order; diagonal imaginary parts zeroed.  From ``ZHER_MIN_K`` streams on,
        a bound dense square takes one ``zher`` per trial over its whole
        antenna-order triangle, ``x`` scattered to rest's places in a zero
        vector in the binding's workspace (a detected stream's entries gain
        +/-0 and are never read again); otherwise numpy gathers and scatters
        the triangle."""
        lead, rest, bound = self.lead, rest[-1], self.bound
        k = rest.shape[-1]
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        if _on_blas(bound, k):
            padded = bound.ws[..., 0, :]
            padded.fill(0.0)
            padded[(*lead, rest)] = x
            bound.her(padded.shape[-1], bound.inp, -c)
            return
        iu0, iu1 = _packed_coords(k)
        i, j = rest[(*lead, iu0)], rest[(*lead, iu1)]
        vals = (c * x)[(*lead, iu0)] * np.conj(x)[(*lead, iu1)]
        np.conjugate(vals, out=vals, where=i > j)
        self.flat[(*lead, self.at[i, j])] -= vals
        self.flat.imag[(*lead, self.dflat[rest])] = 0.0

    def block(self, m, p):
        i, j = p[..., :m, None], p[..., None, :m]
        return _read_upper(self.flat, self.trials.lead2, self.at[i, j], i > j)


# ---------------------------------------------------------------------------
# deflation, initializers and the one recursion


def _deflate_own(q, col, rest, led, cmul=0, cadd=0):
    """Shrink Q from its own column ``col`` (omega last); returns 1/omega, q_bar.

    The caller's own step (``cmul``, ``cadd``) is charged in the same tick.
    """
    k = col.shape[-1] - 1
    om_inv = 1.0 / _check_pivot(col[q.ats[k]], None, "deflation omega", k + 1)
    q_bar = col[..., :k]
    led.tick(cmul=cmul + k, cadd=cadd, cdiv=1)
    q.sub(rest, q_bar, om_inv, led)
    return om_inv, q_bar


def _r_border(r, p, trials, k):
    """R's column k above the diagonal and its entry (k, k), in detection order.

    R is never updated or swapped: both are gathered through the order ``p``,
    ``r[p[:k], p[k]]`` and ``r[p[k], p[k]]`` (through ``lead`` for a batch).
    R is a full square, mirrored by ``init_gram``, so an entry below its
    diagonal is the exact conjugate a swap of the upper triangle would move.
    """
    lead, at = trials.lead, p[trials.ats[k]]
    return r[(*lead, p[trials.spans[k]], at)], r[(*lead, at, at)]


def _deflate(q, col, rest, led, border, triangle_only, cmul, cadd):
    """From Q's own column, or from R's ``border`` ``(r_bar, gamma)`` when given.

    The caller's cancellation (``cmul``, ``cadd``) is charged with it.
    """
    if border is None:
        _deflate_own(q, col, rest, led, cmul, cadd)
    else:
        k, bound = col.shape[-1] - 1, q.bound
        led.tick(cmul=cmul, cadd=cadd)
        block = q.q[..., :k, :k]
        if _on_blas(bound, k + 1) and not _on_blas(bound, k):
            _mirror(block)      # off the BLAS route, the matvec reads the full square
        # gamma is R's own diagonal entry, real and finite since init_gram
        _sm_update_inplace(block, *border, led, "deflate_q_sm", triangle_only, bound)


def _init_x(border):
    """Sherman-Morrison Q, domain x; ``border`` keeps R to deflate from (full)."""

    def init(trials, h, x, alpha, p, led, mem):
        n_rx, m_tx = h.shape[-2:]
        mem.alloc("h_copy", m_tx * n_rx)
        mem.alloc("x", n_rx)
        if border:
            mem.alloc("gram", m_tx * m_tx)
        mem.alloc("inv", m_tx * m_tx)
        mem.alloc("workvec", m_tx)
        h, x = h.copy(), x.copy()       # swapped and cancelled in place
        r = init_gram(h, alpha, led) if border else None
        # the rows of the transpose are the channel's columns
        q = _Dense(trials, init_q_sherman_morrison(h, alpha, led, triangle_only=not border),
                   rows=h.swapaxes(-1, -2), herm=not border)

        def estimate(col, act, last):
            return vdot_c(col, conj_matvec(h[..., : col.shape[-1]], x, led), led)

        def cancel(col, rest, last, s_use):
            k = col.shape[-1] - 1
            np.subtract(x, s_use * h[..., k], out=x)
            _deflate(q, col, rest, led, _r_border(r, p, trials, k) if border else None,
                     triangle_only=False, cmul=n_rx, cadd=n_rx)

        return q, (), estimate, cancel

    return init


def _init_z(variant, border):
    """Q grown from R by the ``variant`` step, domain z; ``border``: deflate from R (tri)."""

    def init(trials, h, x, alpha, p, led, mem):
        m_tx = h.shape[-1]
        mem.alloc("z", m_tx)
        mem.alloc("gram", m_tx * m_tx)
        mem.alloc("inv", m_tx * m_tx)
        z = conj_matvec(h, x, led)
        r = init_gram(h, alpha, led)
        q = _Dense(trials, init_q_recursive(r, led, variant=variant))

        def estimate(col, act, last):
            return vdot_c(col, z[act], led)

        def cancel(col, rest, last, s_use):
            k = col.shape[-1] - 1
            r_bar, gamma = _r_border(r, p, trials, k)
            z[rest] -= s_use * r_bar
            _deflate(q, col, rest, led, (r_bar, gamma) if border else None, triangle_only=True,
                     cmul=k, cadd=k)

        return q, (z,), estimate, cancel

    return init


def _init_single_buffer(packed=False, indexed=False):
    """One buffer holds H^H, then R, then Q (packed: Q is packed, the buffer freed)."""

    def init(trials, h, x, alpha, p, led, mem):
        n_rx, m_tx = h.shape[-2:]
        mem.alloc("ht", m_tx * n_rx)
        mem.alloc("z", m_tx)
        mem.alloc("d", m_tx)
        a = h.mT.copy()     # H^H in one allocation: a transposed copy, conjugated in place
        np.conjugate(a, out=a)
        z = matvec(a, x, led)
        d = np.zeros(z.shape, np.complex128)
        _cover_gram_rows(a, alpha, led)
        square = a[..., :m_tx]
        bound = _bind(square)
        _grow_inverse(square, m_tx, led, "v", bound)
        if packed:
            upper = _pack_upper(square)
            mem.alloc("q_packed", m_tx * (m_tx + 1) // 2)
            mem.free("ht")
            q = (_Indexed(trials, upper, _packed_square_flat(m_tx)) if indexed
                 else _Packed(trials, upper, m_tx))
        elif indexed:
            q = _Indexed(trials, a.reshape(a.shape[:-2] + (-1,)), _dense_upper_flat(m_tx, n_rx),
                         bound)
        else:
            q = _Dense(trials, a)

        def estimate(col, act, last):
            est = vdot_c(col, z[act], led) - d[last]
            led.tick(cadd=1)
            return est

        def cancel(col, rest, last, s_use):
            k = col.shape[-1]       # the coefficient, then d's k - 1 entries
            om_inv, q_bar = _deflate_own(q, col, rest, led, k, k)
            coeff = (s_use + d[last]) * om_inv
            d[rest] -= coeff * q_bar

        return q, (z, d), estimate, cancel

    return init


@np.errstate(all="ignore")      # numerical trouble ends in a typed error, not a warning
def _sic(chs, rxs, c, init, cancel_soft, collect_q, collect_aux=False):
    """Ordered SIC: order by Q's smallest diagonal, estimate, cancel, deflate.

    ``chs`` and ``rxs`` are one trial, which returns a
    :class:`DetectionResult`, or lists or tuples of trials with the same
    (M, N), which return a :class:`BatchResult` (see the module docstring).
    The trial shape from :func:`_stack` orders, swaps and records every step,
    and goes to the initializer and the Q storage.

    ``init`` allocates and initializes the detector's state (charging one
    trial's ledger and memory), given the order ``p`` that its steps read,
    and returns its Q storage, the vectors kept in Q's order, and its
    estimate and cancel steps.  ``collect_aux``
    records ``p``, ``z`` and ``d`` of the active streams at every step
    (single-buffer swapped storage only).
    """
    batch, trials, h, x, alpha, p = _stack(chs, rxs, c)
    m_tx = p.shape[-1]
    n_trials = p.size // m_tx
    led = FlopLedger()
    mem = MemLedger()
    q, vecs, estimate, cancel = init(trials, h, x, alpha, p, led, mem)
    diag, swap, active, block = q.diag, q.swap, q.active, q.block
    order, swap_entries, ats = trials.order, trials.swap_entries, trials.ats
    moved = (p,) if swap is None else (p, *vecs)    # swapped storage keeps vecs in p's order
    soft = np.zeros(p.shape, np.complex128)     # in detection order
    hard = np.zeros(p.shape, np.complex128)
    log = trials.log()
    blocks = [] if collect_q else None      # each step's Q, one block per trial
    aux = [{"p": [], "z": [], "d": []} for _ in range(n_trials)] if collect_aux else None
    for m in range(m_tx, 0, -1):
        j = m - 1                       # the order position filled at this step
        l = order(diag(m, p), m, log)
        if l is not None:
            swap_entries(moved, l, j)
            if swap is not None:
                swap(l, j)
        if blocks is not None:
            blocks.append(block(m, p))
        if aux is not None:
            for key, v in zip(("p", "z", "d"), (p, *vecs)):
                for rec, row in zip(aux, v[..., :m].reshape(-1, m)):
                    rec[key].append(row.copy())
        col, act, rest, last = active(m, p)
        est = estimate(col, act, last)
        s = quantize(est, c)
        soft[ats[j]] = est
        hard[ats[j]] = s
        if m == 1:
            break
        cancel(col, rest, last, est if cancel_soft else s)
    return _results(batch, trials, p, hard, soft, led, mem, log, blocks, aux)


# ---------------------------------------------------------------------------
# recursive detectors


def detect_original(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Rank-one init of Gram matrix and inverse, border-based deflation."""
    return _sic(ch, rx, c, _init_x(border=True), cancel_soft, collect_q)


def detect_fastest_known(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Partitioned init + z-domain cancellation, border-based deflation."""
    return _sic(ch, rx, c, _init_z("i", border=True), cancel_soft, collect_q)


def detect_speed_adv(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """As ``fastest_known`` but deflating from the inverse's own column."""
    return _sic(ch, rx, c, _init_z("i", border=False), cancel_soft, collect_q)


def detect_proposed_1(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``speed_adv`` with the single-division initialization step."""
    return _sic(ch, rx, c, _init_z("v", border=False), cancel_soft, collect_q)


def detect_mem_saving(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """No Gram matrix at all: permutes a channel copy, estimates from x."""
    return _sic(ch, rx, c, _init_x(border=False), cancel_soft, collect_q)


def detect_proposed_2(ch, rx, c, *, cancel_soft=False, collect_q=False,
                      collect_aux=False):
    """One matrix buffer covered in place, cancellation through d."""
    return _sic(ch, rx, c, _init_single_buffer(), cancel_soft, collect_q,
                collect_aux)


def detect_proposed_2_noperm(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``proposed_2`` addressed through the permutation, no physical swaps."""
    return _sic(ch, rx, c, _init_single_buffer(indexed=True), cancel_soft, collect_q)


def detect_proposed_2_tri(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``proposed_2`` with only the upper triangle of the inverse stored."""
    return _sic(ch, rx, c, _init_single_buffer(packed=True), cancel_soft, collect_q)


def detect_proposed_2_tri_noperm(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Packed storage addressed through the permutation, conjugate-aware."""
    return _sic(ch, rx, c, _init_single_buffer(packed=True, indexed=True), cancel_soft, collect_q)


ALGORITHMS = {
    "oracle": detect_oracle,
    "original": detect_original,
    "fastest_known": detect_fastest_known,
    "speed_adv": detect_speed_adv,
    "mem_saving": detect_mem_saving,
    "proposed_1": detect_proposed_1,
    "proposed_2": detect_proposed_2,
    "proposed_2_noperm": detect_proposed_2_noperm,
    "proposed_2_tri": detect_proposed_2_tri,
    "proposed_2_tri_noperm": detect_proposed_2_tri_noperm,
}

# the nine recursive routines checked against the oracle
DETECTOR_NAMES = [name for name in ALGORITHMS if name != "oracle"]


def get_detector(name: str):
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ContractViolationError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
