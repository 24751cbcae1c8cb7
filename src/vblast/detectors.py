"""Ordered MMSE-SIC detection routines.

Ten routines share one contract: consume ``(ChannelRealization, RxFrame,
Constellation)``, return a :class:`DetectionResult`.  They are mathematically
equivalent and differ only in recursion schedule, flop count and working
memory:

``oracle``
    brute force; re-inverts the regularized Gram matrix at every step with
    the unledgered Gauss-Jordan routine.
``original``
    rank-one inverse updates over receive rows, estimation straight from the
    received vector, border-based deflation.
``fastest_known``
    partitioned-matrix initialization, estimation and cancellation in the
    matched-filter domain, Hermitian-aware updates.
``speed_adv``
    ``fastest_known`` plus deflation from the inverse's own column.
``mem_saving``
    never materializes the Gram matrix; permutes the channel copy instead.
``proposed_1``
    ``speed_adv`` with the single-division initialization step.
``proposed_2``
    one matrix buffer: the stored conjugate-transposed channel is overwritten
    first by the Gram matrix, then by its inverse; cancellation runs through
    the deficiency vector ``d`` so the Gram matrix is never needed again.
``proposed_2_noperm``
    ``proposed_2`` addressing everything through the order permutation
    instead of physically swapping rows/columns.
``proposed_2_tri`` / ``proposed_2_tri_noperm``
    the same with only the upper triangle of the inverse stored (packed).

Sign note: the unpermuted variants keep the running cancellation vector with
the opposite sign of ``proposed_2``'s ``d`` (their update adds what the
permuted form subtracts).  Both start from zero, so the estimates produced
are identical; the cross-variant tests pin the two forms to bit-exact
agreement.

Memory accounting counts named, detector-owned working buffers of at least M
complex words (matrix buffers, copies of mutated inputs, and the M-length
state/scratch vectors).  Shorter per-step scratch and host-language
expression temporaries are outside the convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, SingularMatrixError
from .kernels import (
    FlopLedger,
    HermPacked,
    SINGULAR_RTOL,
    _packed_diag_indices,
    _packed_triu_flat,
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


def _argmin_gap(diag: np.ndarray):
    """First index of the smallest entry, its value, and the ordering gap."""
    l = int(np.argmin(diag))
    if diag.shape[0] < 2:
        return l, float(diag[l]), float("inf")
    two = np.partition(diag, 1)[:2]
    return l, float(two[0]), float(two[1] - two[0])


def _sym_swap(a: np.ndarray, i: int, j: int, m: int) -> None:
    """Swap rows and columns i, j of the leading m x m block."""
    row = a[i, :m].copy()
    a[i, :m] = a[j, :m]
    a[j, :m] = row
    col = a[:m, i].copy()
    a[:m, i] = a[:m, j]
    a[:m, j] = col


def _deflate_iv_inplace(q, m, led, om_inv=None):
    """Deflate the leading block using the inverse's own border column."""
    k = m - 1
    if om_inv is None:
        omega = real_pivot(q[k, k], "deflation omega")
        if omega <= SINGULAR_RTOL:
            raise SingularMatrixError(f"deflation at recursion {m}: omega={omega:g}")
        om_inv = 1.0 / omega
        led.tick(cdiv=1)
    q_bar = q[:k, k]
    v = om_inv * q_bar
    led.tick(cmul=k)
    rank1_update_herm(q[:k, :k], v, q_bar, led, subtract=True)


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
        l, qmin, gap = _argmin_gap(q.diagonal().real)
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
# recursive detectors


def detect_original(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Rank-one init of Gram matrix and inverse, border-based deflation."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    mem.alloc("h_copy", m_tx * n_rx)
    mem.alloc("x", n_rx)
    mem.alloc("gram", m_tx * m_tx)
    mem.alloc("inv", m_tx * m_tx)
    mem.alloc("workvec", m_tx)
    h = ch.h.copy()
    x = rx.x.copy()
    r = init_gram(ch.h, alpha, led)
    q = init_q_sherman_morrison(ch.h, alpha, led, triangle_only=False)
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        l, qmin, gap = _argmin_gap(q.diagonal()[:m].real)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
            h[:, [l, m - 1]] = h[:, [m - 1, l]]
            _sym_swap(r, l, m - 1, m)
            _sym_swap(q, l, m - 1, m)
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(q[:m, :m].copy())
        w = conj_matvec(h[:, :m], x, led)
        est = vdot_c(q[:m, m - 1], w, led)
        s = quantize(est, c)
        ant = p[m - 1]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        x -= s_use * h[:, m - 1]
        led.tick(cmul=n_rx, cadd=n_rx)
        _deflate_sm_inplace(q[: m - 1, : m - 1], r[: m - 1, m - 1],
                            real_pivot(r[m - 1, m - 1], "deflation gamma"),
                            led, triangle_only=False)
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


def _detect_z_domain(ch, rx, c, *, init_variant, fast_deflation,
                     cancel_soft, collect_q):
    """Shared skeleton: Gram-domain estimation with z-vector cancellation."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    mem.alloc("z", m_tx)
    mem.alloc("gram", m_tx * m_tx)
    mem.alloc("inv", m_tx * m_tx)
    z = conj_matvec(ch.h, rx.x, led)
    r = init_gram(ch.h, alpha, led)
    q = init_q_recursive(r, led, variant=init_variant)
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        l, qmin, gap = _argmin_gap(q.diagonal()[:m].real)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
            z[[l, m - 1]] = z[[m - 1, l]]
            _sym_swap(r, l, m - 1, m)
            _sym_swap(q, l, m - 1, m)
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(q[:m, :m].copy())
        est = vdot_c(q[:m, m - 1], z[:m], led)
        s = quantize(est, c)
        ant = p[m - 1]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        z[: m - 1] -= s_use * r[: m - 1, m - 1]
        led.tick(cmul=m - 1, cadd=m - 1)
        if fast_deflation:
            _deflate_iv_inplace(q, m, led)
        else:
            _deflate_sm_inplace(q[: m - 1, : m - 1], r[: m - 1, m - 1],
                                real_pivot(r[m - 1, m - 1], "deflation gamma"),
                                led, triangle_only=True)
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


def detect_fastest_known(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Partitioned init + z-domain cancellation, border-based deflation."""
    return _detect_z_domain(ch, rx, c, init_variant="i", fast_deflation=False,
                            cancel_soft=cancel_soft, collect_q=collect_q)


def detect_speed_adv(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """As ``fastest_known`` but deflating from the inverse's own column."""
    return _detect_z_domain(ch, rx, c, init_variant="i", fast_deflation=True,
                            cancel_soft=cancel_soft, collect_q=collect_q)


def detect_proposed_1(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``speed_adv`` with the single-division initialization step."""
    return _detect_z_domain(ch, rx, c, init_variant="v", fast_deflation=True,
                            cancel_soft=cancel_soft, collect_q=collect_q)


def detect_mem_saving(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """No Gram matrix at all: permutes a channel copy, estimates from x."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    mem.alloc("h_copy", m_tx * n_rx)
    mem.alloc("x", n_rx)
    mem.alloc("inv", m_tx * m_tx)
    mem.alloc("workvec", m_tx)
    h = ch.h.copy()
    x = rx.x.copy()
    q = init_q_sherman_morrison(ch.h, alpha, led, triangle_only=True)
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        l, qmin, gap = _argmin_gap(q.diagonal()[:m].real)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
            h[:, [l, m - 1]] = h[:, [m - 1, l]]
            _sym_swap(q, l, m - 1, m)
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(q[:m, :m].copy())
        w = conj_matvec(h[:, :m], x, led)
        est = vdot_c(q[:m, m - 1], w, led)
        s = quantize(est, c)
        ant = p[m - 1]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        x -= s_use * h[:, m - 1]
        led.tick(cmul=n_rx, cadd=n_rx)
        _deflate_iv_inplace(q, m, led)
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


# ---------------------------------------------------------------------------
# single-buffer algorithm and its variants


def _cover_gram_rows(a, alpha, led):
    """Overwrite the upper triangle of a's square block with H^H H + alpha I.

    ``a`` holds the conjugate-transposed channel (M x N).  Row i's dot
    products read only rows i..M-1, all still intact, so the buffer can be
    covered in place.  The diagonal term is computed separately, which keeps
    per-row scratch below M words.
    """
    m = a.shape[0]
    n = a.shape[1]
    for i in range(m):
        if i < m - 1:
            tail = a[i + 1 : m, :].conj() @ a[i, :]
            led.tick(cmul=(m - 1 - i) * n, cadd=(m - 1 - i) * (n - 1))
        else:
            tail = None
        diag = np.vdot(a[i, :], a[i, :]).real
        led.tick(cmul=n, cadd=n - 1)
        a[i, i] = diag + alpha
        led.tick(cadd=1)
        if tail is not None:
            a[i, i + 1 : m] = tail


def _cover_inverse(a, m, led):
    """Overwrite the square block (holding the Gram matrix) with its inverse.

    Single-division growth steps; iteration i reads only column i of the old
    content plus the already-inverted leading block, so the same buffer can
    hold both.
    """
    g0 = real_pivot(a[0, 0], "inverse covering leading entry")
    if abs(g0) < SINGULAR_RTOL:
        raise SingularMatrixError("inverse covering: leading entry is singular")
    a[0, 0] = 1.0 / g0
    led.tick(cdiv=1)
    for i in range(1, m):
        q_tilde = matvec(a[:i, :i], a[:i, i], led)
        t = vdot_c(a[:i, i], q_tilde, led)
        gamma = real_pivot(a[i, i], "inverse covering gamma")
        delta = real_pivot(gamma - t, f"inverse covering (recursion index {i + 1})")
        led.tick(cadd=1)
        if abs(delta) < SINGULAR_RTOL * max(abs(gamma), 1e-300):
            raise SingularMatrixError(f"inverse covering: singular pivot at index {i + 1}")
        omega = 1.0 / delta
        led.tick(cdiv=1)
        a[i, i] = omega
        a[:i, i] = (-omega) * q_tilde
        led.tick(cmul=i)
        a[i, :i] = np.conj(a[:i, i])
        rank1_update_herm(a[:i, :i], q_tilde, a[:i, i], led, subtract=True)


def detect_proposed_2(ch, rx, c, *, cancel_soft=False, collect_q=False,
                      collect_aux=False):
    """One matrix buffer covered in place, cancellation through d."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    mem.alloc("ht", m_tx * n_rx)
    mem.alloc("z", m_tx)
    mem.alloc("d", m_tx)
    a = ch.h.conj().T.copy()
    z = matvec(a, rx.x, led)
    d = np.zeros(m_tx, np.complex128)
    _cover_gram_rows(a, alpha, led)
    _cover_inverse(a, m_tx, led)
    q = a[:, :m_tx]
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    aux = {"p": [], "z": [], "d": []} if collect_aux else None
    for m in range(m_tx, 0, -1):
        l, qmin, gap = _argmin_gap(q.diagonal()[:m].real)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
            z[[l, m - 1]] = z[[m - 1, l]]
            d[[l, m - 1]] = d[[m - 1, l]]
            _sym_swap(q, l, m - 1, m)
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(q[:m, :m].copy())
        if aux is not None:
            aux["p"].append(p[:m].copy())
            aux["z"].append(z[:m].copy())
            aux["d"].append(d[:m].copy())
        est = vdot_c(q[:m, m - 1], z[:m], led) - d[m - 1]
        led.tick(cadd=1)
        s = quantize(est, c)
        ant = p[m - 1]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        omega = real_pivot(q[m - 1, m - 1], "deflation omega")
        if omega <= SINGULAR_RTOL:
            raise SingularMatrixError(f"deflation at recursion {m}: omega={omega:g}")
        om_inv = 1.0 / omega
        led.tick(cdiv=1)
        coeff = (s_use + d[m - 1]) * om_inv
        led.tick(cadd=1, cmul=1)
        d[: m - 1] -= coeff * q[: m - 1, m - 1]
        led.tick(cmul=m - 1, cadd=m - 1)
        _deflate_iv_inplace(q, m, led, om_inv=om_inv)
    return DetectionResult(hard, p, soft, led, mem, trace, qs, aux)


def detect_proposed_2_noperm(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``proposed_2`` addressed through the permutation, no physical swaps."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    mem.alloc("ht", m_tx * n_rx)
    mem.alloc("z", m_tx)
    mem.alloc("d", m_tx)
    a = ch.h.conj().T.copy()
    z = matvec(a, rx.x, led)
    d = np.zeros(m_tx, np.complex128)
    _cover_gram_rows(a, alpha, led)
    _cover_inverse(a, m_tx, led)
    q = a[:, :m_tx]
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        act = p[:m]
        l, qmin, gap = _argmin_gap(q[act, act].real)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(_gather_sub_full(q, p[:m]))
        pm = p[m - 1]
        idx = p[:m]
        est = vdot_c(q[idx, pm], z[idx], led) + d[pm]
        led.tick(cadd=1)
        s = quantize(est, c)
        soft[pm] = est
        hard[pm] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        omega = real_pivot(q[pm, pm], "deflation omega")
        if omega <= SINGULAR_RTOL:
            raise SingularMatrixError(f"deflation at recursion {m}: omega={omega:g}")
        om_inv = 1.0 / omega
        led.tick(cdiv=1)
        rest = p[: m - 1]
        w = q[rest, pm]
        coeff = (s_use - d[pm]) * om_inv
        led.tick(cadd=1, cmul=1)
        d[rest] += coeff * w
        led.tick(cmul=m - 1, cadd=m - 1)
        v = om_inv * w
        led.tick(cmul=m - 1)
        _rank1_sub_indexed(q, rest, v, w, led)
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


def _gather_sub_full(q, idx):
    return q[np.ix_(idx, idx)].copy()


def _rank1_sub_indexed(q, idx, u, w, led):
    """q[idx, idx] -= u w^H on the upper triangle in index order, mirrored.

    Hermitian-result semantics: diagonal imaginary parts are zeroed, as in
    :func:`vblast.kernels.rank1_update_herm`.
    """
    k = idx.shape[0]
    iu0, iu1 = _triu_indices(k)
    rows = idx[iu0]
    cols = idx[iu1]
    prods = u[iu0] * np.conj(w)[iu1]
    led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
    q[rows, cols] -= prods
    s0, s1 = _triu_strict_indices(k)
    srows = idx[s0]
    scols = idx[s1]
    q[scols, srows] = np.conj(q[srows, scols])
    q[idx, idx] = q[idx, idx].real


# ---------------------------------------------------------------------------
# packed upper-triangle variants


def _packed_herm_matvec(packed, k, v, led):
    """Hermitian matvec from packed upper storage; charges k**2 products."""
    led.tick(cmul=k * k, cadd=k * (k - 1))
    return _packed_unpack(packed, k) @ v


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
        q_tilde = _packed_herm_matvec(packed, i, rcol, led)
        t = vdot_c(rcol, q_tilde, led)
        gamma = real_pivot(packed[base + i], "inverse covering gamma")
        delta = real_pivot(gamma - t, f"inverse covering (recursion index {i + 1})")
        led.tick(cadd=1)
        if abs(delta) < SINGULAR_RTOL * max(abs(gamma), 1e-300):
            raise SingularMatrixError(f"inverse covering: singular pivot at index {i + 1}")
        omega = 1.0 / delta
        led.tick(cdiv=1)
        packed[base + i] = omega
        q_col = (-omega) * q_tilde
        led.tick(cmul=i)
        packed[base : base + i] = q_col
        flat = _packed_triu_flat(i)
        r0, c0 = _triu_indices(i)
        packed[flat] -= q_tilde[r0] * np.conj(q_col)[c0]
        led.tick(cmul=i * (i + 1) // 2, cadd=i * (i + 1) // 2)
        dflat = _packed_diag_indices(i)
        packed[dflat] = packed[dflat].real


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


def _init_single_buffer_packed(ch, rx, alpha, led, mem):
    """Shared init for the packed variants: cover, then pack the triangle."""
    m_tx, n_rx = ch.m, ch.n
    mem.alloc("ht", m_tx * n_rx)
    mem.alloc("z", m_tx)
    mem.alloc("d", m_tx)
    a = ch.h.conj().T.copy()
    z = matvec(a, rx.x, led)
    d = np.zeros(m_tx, np.complex128)
    _cover_gram_rows(a, alpha, led)
    packed = HermPacked.pack(a[:, :m_tx]).upper
    mem.alloc("q_packed", m_tx * (m_tx + 1) // 2)
    mem.free("ht")
    del a
    _cover_inverse_packed(packed, m_tx, led)
    return packed, z, d


def detect_proposed_2_tri(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """``proposed_2`` with only the upper triangle of the inverse stored."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    packed, z, d = _init_single_buffer_packed(ch, rx, alpha, led, mem)
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        diag = packed[_packed_diag_indices(m)].real
        l, qmin, gap = _argmin_gap(diag)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
            z[[l, m - 1]] = z[[m - 1, l]]
            d[[l, m - 1]] = d[[m - 1, l]]
            _packed_sym_swap(packed, l, m - 1)
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(_packed_unpack(packed, m))
        base = (m - 1) * m // 2
        est = vdot_c(packed[base : base + m], z[:m], led) - d[m - 1]
        led.tick(cadd=1)
        s = quantize(est, c)
        ant = p[m - 1]
        soft[ant] = est
        hard[ant] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        omega = real_pivot(packed[base + m - 1], "deflation omega")
        if omega <= SINGULAR_RTOL:
            raise SingularMatrixError(f"deflation at recursion {m}: omega={omega:g}")
        om_inv = 1.0 / omega
        led.tick(cdiv=1)
        q_bar = packed[base : base + m - 1]
        coeff = (s_use + d[m - 1]) * om_inv
        led.tick(cadd=1, cmul=1)
        d[: m - 1] -= coeff * q_bar
        led.tick(cmul=m - 1, cadd=m - 1)
        v = om_inv * q_bar
        led.tick(cmul=m - 1)
        k = m - 1
        r0, c0 = _triu_indices(k)
        packed[_packed_triu_flat(k)] -= v[r0] * np.conj(q_bar)[c0]
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        dflat = _packed_diag_indices(k)
        packed[dflat] = packed[dflat].real
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


def detect_proposed_2_tri_noperm(ch, rx, c, *, cancel_soft=False, collect_q=False):
    """Packed storage addressed through the permutation, conjugate-aware."""
    m_tx, n_rx, alpha = _prep(ch, rx)
    led = FlopLedger()
    mem = MemLedger()
    packed, z, d = _init_single_buffer_packed(ch, rx, alpha, led, mem)
    p = np.arange(m_tx)
    soft = np.zeros(m_tx, np.complex128)
    hard = np.zeros(m_tx, np.complex128)
    trace: list[OrderingTrace] = []
    qs = [] if collect_q else None
    for m in range(m_tx, 0, -1):
        act = p[:m]
        diag = packed[act * (act + 1) // 2 + act].real
        l, qmin, gap = _argmin_gap(diag)
        if m > 1 and l != m - 1:
            p[[l, m - 1]] = p[[m - 1, l]]
        trace.append(OrderingTrace(m, l, qmin, gap))
        if qs is not None:
            qs.append(_packed_unpack(packed, m_tx)[np.ix_(p[:m], p[:m])])
        pm = p[m - 1]
        rest = p[: m - 1]
        lo = np.minimum(rest, pm)
        hi = np.maximum(rest, pm)
        raw = packed[hi * (hi + 1) // 2 + lo]
        q_bar = np.where(rest > pm, np.conj(raw), raw)
        omega = real_pivot(packed[pm * (pm + 1) // 2 + pm], "deflation omega")
        q_col = np.concatenate([q_bar, [omega]])
        est = vdot_c(q_col, z[p[:m]], led) + d[pm]
        led.tick(cadd=1)
        s = quantize(est, c)
        soft[pm] = est
        hard[pm] = s
        if m == 1:
            break
        s_use = est if cancel_soft else s
        if omega <= SINGULAR_RTOL:
            raise SingularMatrixError(f"deflation at recursion {m}: omega={omega:g}")
        om_inv = 1.0 / omega
        led.tick(cdiv=1)
        coeff = (s_use - d[pm]) * om_inv
        led.tick(cadd=1, cmul=1)
        d[rest] += coeff * q_bar
        led.tick(cmul=m - 1, cadd=m - 1)
        v = om_inv * q_bar
        led.tick(cmul=m - 1)
        k = m - 1
        iu0, iu1 = _triu_indices(k)
        a_i = rest[iu0]
        b_j = rest[iu1]
        lo = np.minimum(a_i, b_j)
        hi = np.maximum(a_i, b_j)
        vals = v[iu0] * np.conj(q_bar)[iu1]
        led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
        packed[hi * (hi + 1) // 2 + lo] -= np.where(a_i > b_j, np.conj(vals), vals)
        dd = rest * (rest + 1) // 2 + rest
        packed[dd] = packed[dd].real
    return DetectionResult(hard, p, soft, led, mem, trace, qs)


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
