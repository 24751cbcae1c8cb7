"""Ordered MMSE-SIC detection routines.

Ten routines share one contract: consume ``(ChannelRealization, RxFrame,
Constellation)``, return a :class:`DetectionResult`.  They are mathematically
equivalent and differ only in recursion schedule, flop count and working
memory.

``oracle`` is the brute-force reference: it re-inverts the regularized Gram
matrix at every step with the unledgered Gauss-Jordan routine, in a loop of
its own.  The nine recursive routines all run one recursion, :func:`_sic`:
pick the stream with the smallest diagonal entry of ``Q = (H^H H + alpha
I)^-1``, estimate it, cancel it, deflate ``Q``.  Each ``detect_*`` wrapper
only chooses the initializer, the estimation domain and the Q storage:

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
by Q.  Domain ``x`` estimates from ``H_m^H x`` and cancels from ``x``; ``z``
estimates from ``z = H^H x`` and cancels with R's column; ``d`` cancels
through the deficiency vector ``d`` and never reads R again.  Swapped
storage keeps Q and the domain's vectors in detection order by symmetric
swaps; indexed storage leaves them in antenna order and addresses them
through the order permutation; packed storage keeps Q's upper triangle.
Q is deflated from its own column, or from R's border by a
Sherman-Morrison step on the full square or the upper triangle.

The ``d`` convention: every ``d``-domain form estimates ``q^H z - d_m`` and
updates ``d -= (s + d_m) / omega * q_bar``, swapped or indexed alike.  The
published update is written in the '+' form, with ``d_paper = -d``.

Memory accounting counts named, detector-owned working buffers of at least M
complex words (matrix buffers, copies of mutated inputs, and the M-length
state/scratch vectors).  Shorter per-step scratch and host-language
expression temporaries are outside the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, SingularMatrixError
from .kernels import (
    FlopLedger,
    HermPacked,
    SINGULAR_RTOL,
    _packed_diag_indices,
    _packed_square_flat,
    _packed_triu_flat,
    _strict_lower_mask,
    _triu_indices,
    _triu_strict_indices,
    conj_matvec,
    gauss_jordan_inverse,
    init_gram,
    init_q_recursive,
    init_q_sherman_morrison,
    matvec,
    rank1_update_herm,
    real_pivot,
    vdot_c,
    _deflate_sm_inplace,
    _grow_inverse,
    _packed_unpack,
)
from .sigmodel import ChannelRealization, RxFrame, quantize


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

    @property
    def buffers(self) -> list[tuple[str, int]]:
        return list(self._registry.items())

    def __repr__(self) -> str:
        return f"MemLedger(peak_words={self.peak_words}, buffers={self.buffers})"


@dataclass(frozen=True)
class OrderingTrace:
    """Ordering decision at one recursion step."""

    m: int
    l: int
    q_min: float
    q_gap: float


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


def _prep(ch: ChannelRealization, rx: RxFrame):
    if rx.x.shape[0] != ch.n:
        raise ContractViolationError(
            f"received vector has length {rx.x.shape[0]} for an N={ch.n} channel"
        )
    if not np.all(np.isfinite(rx.x)):
        raise ContractViolationError("received vector contains NaN or Inf")
    if not (rx.alpha > 0):
        raise ContractViolationError(f"detectors need alpha > 0, got {rx.alpha}")
    return ch.m, ch.n, float(rx.alpha)


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


def _sym_swap(a: np.ndarray, i: int, j: int, m: int) -> None:
    """Swap rows and columns i, j of the leading m x m block."""
    row = a[i, :m].copy()
    a[i, :m] = a[j, :m]
    a[j, :m] = row
    col = a[:m, i].copy()
    a[:m, i] = a[:m, j]
    a[:m, j] = col


# ---------------------------------------------------------------------------
# brute-force oracle


def detect_oracle(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Re-invert the regularized Gram matrix at every step (flop-exempt)."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()          # stays zero: the oracle is not instrumented
    mem = MemLedger()
    mem.alloc("h_copy", m_tx * n_rx)
    mem.alloc("x", n_rx)
    mem.alloc("gram", m_tx * m_tx)
    mem.alloc("inv", m_tx * m_tx)
    mem.alloc("gj_workspace", 2 * m_tx * m_tx)
    h = ch.h.copy()
    x = rx.x.copy()
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs: list[np.ndarray] | None = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        hm = h[:, :m]
        r = hm.conj().T @ hm + alpha * np.eye(m)
        q = gauss_jordan_inverse(r)
        l, qmin, gap = _argmin_gap(q.diagonal().real.tolist())
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
            h[:, [l, m - 1]] = h[:, [m - 1, l]]
            _sym_swap(q, l, m - 1, m)
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(q.copy())
        w = h[:, :m].conj().T @ x
        est = complex(np.vdot(q[:, m - 1], w))
        s = quantize(est, c)
        ant = p[m - 1]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        x = x - (est if cancel_soft else s) * h[:, m - 1]
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


# ---------------------------------------------------------------------------
# in-place covering and packed-storage helpers


def _cover_gram_rows(a, alpha, led):
    """Overwrite the upper triangle of a's square block with H^H H + alpha I.

    ``a`` holds the conjugate-transposed channel (M x N).  Row i's dot
    products read only rows i..M-1, all still intact, so the buffer can be
    covered in place.  The diagonal term is computed separately, which keeps
    per-row scratch below M words.
    """
    m, n = a.shape
    tri = m * (m + 1) // 2
    led.tick(cmul=n * tri, cadd=(n - 1) * tri + m)      # + m: alpha on the diagonal
    for i in range(m):
        tail = a[i + 1 : m, :].conj() @ a[i, :] if i < m - 1 else None
        diag = np.vdot(a[i, :], a[i, :]).real
        a[i, i] = diag + alpha
        if tail is not None:
            a[i, i + 1 : m] = tail


def _cover_inverse(a, m, led):
    """Overwrite the square block (holding the Gram matrix) with its inverse.

    The single-division growth steps of ``init_q_recursive(variant="v")``,
    run on the same buffer: step i reads only column i of the old content
    plus the already-inverted leading block.
    """
    g0 = real_pivot(a[0, 0], "inverse covering leading entry")
    if abs(g0) < SINGULAR_RTOL:
        raise SingularMatrixError("inverse covering: leading entry is singular")
    a[0, 0] = 1.0 / g0
    led.tick(cdiv=1)
    _grow_inverse(a, m, led, "v", "inverse covering gamma", "inverse covering",
                  singular="inverse covering: singular pivot at index {}")


def _cover_inverse_packed(packed, m, led):
    """Packed-storage version of the in-place inverse covering."""
    g0 = real_pivot(packed[0], "inverse covering leading entry")
    if abs(g0) < SINGULAR_RTOL:
        raise SingularMatrixError("inverse covering: leading entry is singular")
    packed[0] = 1.0 / g0
    led.tick(cdiv=1)
    for i in range(1, m):
        base = i * (i + 1) // 2
        rcol = packed[base : base + i].copy()
        q_tilde = _packed_unpack(packed, i) @ rcol      # Hermitian matvec
        t = vdot_c(rcol, q_tilde, led)
        gamma = real_pivot(packed[base + i], "inverse covering gamma")
        delta = real_pivot(gamma - t, "inverse covering", i + 1)
        if abs(delta) < SINGULAR_RTOL * max(abs(gamma), 1e-300):
            raise SingularMatrixError(f"inverse covering: singular pivot at index {i + 1}")
        omega = 1.0 / delta
        packed[base + i] = omega
        q_col = (-omega) * q_tilde
        packed[base : base + i] = q_col
        r0, c0 = _triu_indices(i)
        packed[_packed_triu_flat(i)] -= q_tilde[r0] * np.conj(q_col)[c0]
        dflat = _packed_diag_indices(i)
        packed[dflat] = packed[dflat].real
        # the matvec (i**2 products), the pivot, the column, the triangle (base)
        led.tick(cmul=i * i + i + base, cadd=i * (i - 1) + 1 + base, cdiv=1)


def _packed_sym_swap(packed, l, last):
    """Symmetric row/column swap l <-> last inside packed upper storage."""
    lbase = l * (l + 1) // 2
    mbase = last * (last + 1) // 2
    if l > 0:
        tmp = packed[lbase : lbase + l].copy()
        packed[lbase : lbase + l] = packed[mbase : mbase + l]
        packed[mbase : mbase + l] = tmp
    mids = np.arange(l + 1, last)
    if mids.size:
        row_idx = mids * (mids + 1) // 2 + l
        col_idx = mbase + mids
        tmp = packed[row_idx].copy()
        packed[row_idx] = np.conj(packed[col_idx])
        packed[col_idx] = np.conj(tmp)
    dl, dm = lbase + l, mbase + last
    packed[dl], packed[dm] = packed[dm], packed[dl]
    packed[mbase + l] = np.conj(packed[mbase + l])


# ---------------------------------------------------------------------------
# Q storage for the recursive detectors


class _Dense:
    """Dense Q (and R, where kept) in detection order by symmetric swaps.

    ``rows`` (the x domain's transposed channel copy) has its rows swapped.
    """

    def __init__(self, q, r=None, rows=None):
        self.q = q
        self.qdiag = q.diagonal().real      # a view: follows Q's updates
        self.mats = (q,) if r is None else (q, r)
        self.rows = rows

    def diag(self, m, p):
        return self.qdiag[:m].tolist()

    def swap(self, l, last):
        for a in self.mats:
            _sym_swap(a, l, last, last + 1)
        if self.rows is not None:
            self.rows[[l, last]] = self.rows[[last, l]]

    def active(self, m, p):
        """Addresses of the m active streams, the m-1 kept ones and the detected
        one, and the detected stream's column of the active block (omega last)."""
        return slice(0, m), slice(0, m - 1), m - 1, self.q[:m, m - 1]

    def sub(self, rest, u, w, led):
        """Hermitian ``Q[rest, rest] -= u w^H``."""
        rank1_update_herm(self.q[rest, rest], u, w, led, subtract=True)

    def block(self, m, p):
        return self.q[:m, :m].copy()


class _DenseIndexed(_Dense):
    """Dense Q in antenna order, addressed through the order permutation."""

    swap = None     # nothing moves

    def diag(self, m, p):
        return self.qdiag[p[:m]].tolist()

    def active(self, m, p):
        act, last = p[:m], p[m - 1]
        return act, p[: m - 1], last, self.q[act, last]

    def sub(self, rest, u, w, led):
        """Upper triangle in index order, mirrored; diagonal imaginary parts zeroed."""
        k = rest.shape[0]
        iu0, iu1 = _triu_indices(k)
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        self.q[rest[iu0], rest[iu1]] -= u[iu0] * np.conj(w)[iu1]
        s0, s1 = _triu_strict_indices(k)
        above, below = rest[s0], rest[s1]
        self.q[below, above] = np.conj(self.q[above, below])
        self.q[rest, rest] = self.q[rest, rest].real

    def block(self, m, p):
        return self.q[np.ix_(p[:m], p[:m])]


class _Packed:
    """Packed upper triangle of Q, kept in detection order by swaps."""

    def __init__(self, upper, dim):
        self.upper = upper
        self.dim = dim
        self.dflat = _packed_diag_indices(dim)
        self.ureal = upper.real

    def diag(self, m, p):
        return self.ureal[self.dflat[:m]].tolist()

    def swap(self, l, last):
        _packed_sym_swap(self.upper, l, last)

    def active(self, m, p):
        base = (m - 1) * m // 2
        return slice(0, m), slice(0, m - 1), m - 1, self.upper[base : base + m]

    def sub(self, rest, u, w, led):
        k = u.shape[0]
        r0, c0 = _triu_indices(k)
        self.upper[_packed_triu_flat(k)] -= u[r0] * np.conj(w)[c0]
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        dflat = self.dflat[rest]
        self.upper[dflat] = self.upper[dflat].real

    def block(self, m, p):
        return _packed_unpack(self.upper, m)


class _PackedIndexed(_Packed):
    """Packed Q in antenna order; entries below the diagonal read conjugated."""

    swap = None     # nothing moves

    def __init__(self, upper, dim):
        super().__init__(upper, dim)
        self.sqflat = _packed_square_flat(dim)
        self.lower = _strict_lower_mask(dim)

    def diag(self, m, p):
        return self.ureal[self.dflat[p[:m]]].tolist()

    def _flat(self, i, j):
        """Packed index of entries (i, j) and whether each is stored conjugated."""
        return self.sqflat[i, j], self.lower[i, j]

    def active(self, m, p):
        rest, last = p[: m - 1], p[m - 1]
        flat, lower = self._flat(rest, last)
        raw = self.upper[flat]
        q_bar = np.where(lower, np.conj(raw), raw)
        omega = real_pivot(self.upper[self.dflat[last]], "deflation omega")
        return p[:m], rest, last, np.concatenate([q_bar, [omega]])

    def sub(self, rest, u, w, led):
        k = rest.shape[0]
        iu0, iu1 = _triu_indices(k)
        flat, lower = self._flat(rest[iu0], rest[iu1])
        vals = u[iu0] * np.conj(w)[iu1]
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        self.upper[flat] -= np.where(lower, np.conj(vals), vals)
        dflat = self.dflat[rest]
        self.upper[dflat] = self.upper[dflat].real

    def block(self, m, p):
        return _packed_unpack(self.upper, self.dim)[np.ix_(p[:m], p[:m])]


# ---------------------------------------------------------------------------
# deflation, initializers and the one recursion


def _deflate_own(q, col, rest, led, cmul=0, cadd=0):
    """Shrink Q from its own column ``col`` (omega last); returns 1/omega, q_bar.

    The caller's own step (``cmul``, ``cadd``) is charged in the same tick.
    """
    k = col.shape[0] - 1
    omega = real_pivot(col[k], "deflation omega")
    if omega <= SINGULAR_RTOL:
        raise SingularMatrixError(f"deflation at recursion {k + 1}: omega={omega:g}")
    om_inv = 1.0 / omega
    q_bar = col[:k]
    led.tick(cmul=cmul + k, cadd=cadd, cdiv=1)
    q.sub(rest, om_inv * q_bar, q_bar, led)
    return om_inv, q_bar


def _deflate(q, col, rest, last, led, r_border, triangle_only, cmul, cadd):
    """From Q's own column, or from R's border when ``r_border`` is given.

    The caller's cancellation (``cmul``, ``cadd``) is charged with it.
    """
    if r_border is None:
        _deflate_own(q, col, rest, led, cmul, cadd)
    else:
        led.tick(cmul=cmul, cadd=cadd)
        _deflate_sm_inplace(q.q[rest, rest], r_border[rest, last],
                            real_pivot(r_border[last, last], "deflation gamma"),
                            led, triangle_only=triangle_only)


def _init_x(border):
    """Sherman-Morrison Q, domain x; ``border`` keeps R to deflate from (full)."""

    def init(ch, rx, alpha, led, mem):
        m_tx, n_rx = ch.m, ch.n
        mem.alloc("h_copy", m_tx * n_rx)
        mem.alloc("x", n_rx)
        if border:
            mem.alloc("gram", m_tx * m_tx)
        mem.alloc("inv", m_tx * m_tx)
        mem.alloc("workvec", m_tx)
        h = ch.h.copy()
        x = rx.x.copy()
        r = init_gram(ch.h, alpha, led) if border else None
        # h.T's rows are the channel's columns
        q = _Dense(init_q_sherman_morrison(ch.h, alpha, led, triangle_only=not border), r,
                   rows=h.T)

        def estimate(col, act, last):
            return vdot_c(col, conj_matvec(h[:, act], x, led), led)

        def cancel(col, rest, last, s_use):
            np.subtract(x, s_use * h[:, last], out=x)
            _deflate(q, col, rest, last, led, r, triangle_only=False, cmul=n_rx, cadd=n_rx)

        return q, (), estimate, cancel

    return init


def _init_z(variant, border):
    """Q grown from R by the ``variant`` step, domain z; ``border``: deflate from R (tri)."""

    def init(ch, rx, alpha, led, mem):
        m_tx = ch.m
        mem.alloc("z", m_tx)
        mem.alloc("gram", m_tx * m_tx)
        mem.alloc("inv", m_tx * m_tx)
        z = conj_matvec(ch.h, rx.x, led)
        r = init_gram(ch.h, alpha, led)
        q = _Dense(init_q_recursive(r, led, variant=variant), r)

        def estimate(col, act, last):
            return vdot_c(col, z[act], led)

        def cancel(col, rest, last, s_use):
            z[rest] -= s_use * r[rest, last]
            k = col.shape[0] - 1
            _deflate(q, col, rest, last, led, r if border else None, triangle_only=True,
                     cmul=k, cadd=k)

        return q, (z,), estimate, cancel

    return init


def _init_single_buffer(storage):
    """One buffer holds H^H, then R, then Q (packed: R is packed, the buffer freed)."""

    def init(ch, rx, alpha, led, mem):
        m_tx, n_rx = ch.m, ch.n
        mem.alloc("ht", m_tx * n_rx)
        mem.alloc("z", m_tx)
        mem.alloc("d", m_tx)
        a = ch.h.conj().T.copy()
        z = matvec(a, rx.x, led)
        d = np.zeros(m_tx, np.complex128)
        _cover_gram_rows(a, alpha, led)
        if issubclass(storage, _Packed):
            upper = HermPacked.pack(a[:, :m_tx]).upper
            mem.alloc("q_packed", m_tx * (m_tx + 1) // 2)
            mem.free("ht")
            del a
            _cover_inverse_packed(upper, m_tx, led)
            q = storage(upper, m_tx)
        else:
            _cover_inverse(a, m_tx, led)
            q = storage(a[:, :m_tx])

        def estimate(col, act, last):
            est = vdot_c(col, z[act], led) - d[last]
            led.tick(cadd=1)
            return est

        def cancel(col, rest, last, s_use):
            k = col.shape[0]        # the coefficient, then d's k - 1 entries
            om_inv, q_bar = _deflate_own(q, col, rest, led, k, k)
            coeff = (s_use + d[last]) * om_inv
            d[rest] -= coeff * q_bar

        return q, (z, d), estimate, cancel

    return init


def _sic(ch, rx, c, init, cancel_soft, collect_q, collect_aux=False):
    """Ordered SIC: order by Q's smallest diagonal, estimate, cancel, deflate.

    ``init`` allocates and initializes the detector's state and returns its
    Q storage, the vectors kept in Q's order, and its estimate and cancel
    steps.  ``collect_aux`` records ``p``, ``z`` and ``d`` of the active
    streams at every step (single-buffer swapped storage only).
    """
    m_tx, _, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    q, vecs, estimate, cancel = init(ch, rx, alpha, led, mem)
    diag, swap, active, block = q.diag, q.swap, q.active, q.block
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    aux = {"p": [], "z": [], "d": []} if collect_aux else None
    for m in range(m_tx, 0, -1):
        j = m - 1                       # the order position filled at this step
        l, qmin, gap = _argmin_gap(diag(m, p))
        if l != j:
            p[l], p[j] = p[j], p[l]
            if swap is not None:        # swapped storage keeps Q in p's order
                swap(l, j)
                for v in vecs:
                    v[l], v[j] = v[j], v[l]
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(block(m, p))
        if aux is not None:
            for key, v in zip(aux, (p, *vecs)):
                aux[key].append(v[:m].copy())
        act, rest, last, col = active(m, p)
        est = estimate(col, act, last)
        s = quantize(est, c)
        ant = p[j]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        cancel(col, rest, last, est if cancel_soft else s)
    return DetectionResult(hard, p, soft, led, mem, trace, qs, aux)


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
    return _sic(ch, rx, c, _init_single_buffer(_Dense), cancel_soft, collect_q,
                collect_aux)


def detect_proposed_2_noperm(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``proposed_2`` addressed through the permutation, no physical swaps."""
    return _sic(ch, rx, c, _init_single_buffer(_DenseIndexed), cancel_soft, collect_q)


def detect_proposed_2_tri(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``proposed_2`` with only the upper triangle of the inverse stored."""
    return _sic(ch, rx, c, _init_single_buffer(_Packed), cancel_soft, collect_q)


def detect_proposed_2_tri_noperm(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Packed storage addressed through the permutation, conjugate-aware."""
    return _sic(ch, rx, c, _init_single_buffer(_PackedIndexed), cancel_soft, collect_q)


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
