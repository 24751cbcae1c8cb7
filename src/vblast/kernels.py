"""Instrumented complex linear algebra kernels.

Every arithmetic operation the detectors perform is routed through the
helpers here, which charge a :class:`FlopLedger` under a fixed convention:

* one complex multiply                      -> 1 ``cmul``
* one complex add or subtract               -> 1 ``cadd``
* one reciprocal or divide (also real/cplx) -> 1 ``cdiv``

Conjugation, negation and data movement are free.  Hermitian-aware rank-one
updates charge only the upper triangle, ``k*(k+1)/2`` products instead of
``k**2``, and the Gram matrix ``H^H H`` of an N x M channel charges
``N*M*(M+1)/2`` products and adds; quadratic forms computed through an
explicit matrix-vector product charge the full ``k**2``.  A kernel, a
growth or deflation step, or a detector's estimate or cancel step sums its
own sub-expressions into one ``FlopLedger.tick``; the kernels it calls
charge their own.

The ledger charges the algorithm's arithmetic, not numpy's evaluation of
it.  Below ``ZHER_MIN_K`` rows, and on matrices not bound for BLAS, the
Hermitian kernels make one dense numpy pass over the full square and then
overwrite its strict lower triangle with the conjugate of the upper one
(:func:`_mirror`), uncharged.  From ``ZHER_MIN_K`` rows on, a caller binds
its row-major squares once per call (:func:`_bind`), and
:func:`rank1_update_herm` and :func:`matvec` run ``zher`` and ``zhemv``
from numpy's OpenBLAS, once per trial, on the upper triangle only; nothing
mirrors such a block, and a caller that reads the full square mirrors it
once.  The initializers do so on exit, so every public kernel returns full
Hermitian squares.  The full-square update (:func:`rank1_update_full`) and
the packed storages' deflation in ``vblast.detectors`` always take numpy.

The kernels the detectors run take an optional leading trial axis: T
matrices ``(T, k, k)`` and T vectors ``(T, k)``, one per trial, worked in
the same numpy calls, each trial rounding as its unbatched call.  The
ledger charges one trial's work, since the count depends only on the
shapes.  A value that is one number per trial (a dot product, a pivot) is
then an array of shape ``(T, 1)``, else a Python number.  The detectors
decide the shape once per call, in ``detectors._sic``.

One in-place growth, :func:`_grow_inverse`, inverts a Hermitian matrix
border by border in a dense square: a copy in :func:`init_q_recursive`, or
the single buffer, whose packed forms pack the grown upper triangle after
it.  Each recursion step names itself in its errors, whoever calls it.  The
public kernels run with numpy's floating-point warnings off: numerical
trouble ends in a typed error, never in a warning or a non-finite result.

One rule, :func:`_check_pivot`, judges every pivot the recursion computes:
it fails when not finite or not above ``SINGULAR_RTOL`` times the size of
the value it comes from.  A Schur or Sherman-Morrison pivot ``c -/+ r^H Q r``
is judged against c (R's border entry gamma, or 1 for a row added to Q).  A
growth's leading entry and gamma, a deflation's omega and a three-division
step's corner are no differences, so their scale is their own: only a
non-positive one fails.  So scaling (H, x, alpha) by (2^k, 2^k, 4^k) changes
no outcome.  A computed pivot with a non-negligible imaginary part
(``PIVOT_IMAG_RTOL``) fails too, a placeholder for an accuracy guard.  A
pivot that meets a sufficient condition for passing (finite, above the
scale's tolerance, imaginary part within ``PIVOT_IMAG_RTOL`` of it) returns
at once, one trial's as a number and a batch's in one pass over them as
Python numbers; any other takes the one-trial rule, trial by trial, so a
batch raises exactly the error its first failing trial raises alone.

The Gauss-Jordan routine at the bottom is the independent oracle used by the
test-suite: it is deliberately plain, uses partial pivoting, and never
touches a ledger.  It also inverts a stack of matrices, each with its own
pivot rows, bit for bit as one by one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError, SingularMatrixError

# Relative tolerance at or below which a computed pivot counts as singular:
# alpha > 0 makes every matrix we invert positive definite.
SINGULAR_RTOL = 1e-14

# Pivots such as gamma - r^H Q r are mathematically real for Hermitian
# inputs; imaginary parts beyond this relative level fail them.
PIVOT_IMAG_RTOL = 1e-10


class FlopLedger:
    """Counters of complex multiplies, adds and divisions.

    Instances only ever increase during a detector run; two ledgers merge by
    componentwise summation.
    """

    __slots__ = ("cmul", "cadd", "cdiv")

    def __init__(self, cmul: int = 0, cadd: int = 0, cdiv: int = 0):
        self.cmul = cmul
        self.cadd = cadd
        self.cdiv = cdiv

    def tick(self, cmul: int = 0, cadd: int = 0, cdiv: int = 0) -> None:
        self.cmul += cmul
        self.cadd += cadd
        self.cdiv += cdiv

    def merge(self, other: "FlopLedger") -> "FlopLedger":
        self.cmul += other.cmul
        self.cadd += other.cadd
        self.cdiv += other.cdiv
        return self

    def copy(self) -> "FlopLedger":
        return FlopLedger(self.cmul, self.cadd, self.cdiv)

    def total_mul_add(self) -> int:
        return self.cmul + self.cadd

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.cmul, self.cadd, self.cdiv)

    def __eq__(self, other) -> bool:
        return isinstance(other, FlopLedger) and self.as_tuple() == other.as_tuple()

    def __repr__(self) -> str:
        return f"FlopLedger(cmul={self.cmul}, cadd={self.cadd}, cdiv={self.cdiv})"


@dataclass
class HermPacked:
    """Upper triangle of a Hermitian matrix, packed column by column.

    Entry ``(i, j)`` with ``i <= j`` lives at flat index ``j*(j+1)//2 + i``.
    ``dim`` must be an integer of at least 1, ``upper`` convertible to a 1-D
    complex array (which it becomes) with finite entries, and diagonal
    entries real to within 1e-12 of their own real part.
    """

    dim: int
    upper: np.ndarray

    def __post_init__(self):
        if not _is_int(self.dim, 1):
            raise ContractViolationError(f"HermPacked: dim must be an integer >= 1, got {self.dim!r}")
        self.dim = int(self.dim)
        upper = _complex(self.upper)
        if upper is None:
            raise ContractViolationError("HermPacked: upper must be an array of numbers, got "
                                         f"{type(self.upper).__name__}")
        self.upper = upper
        n = self.dim * (self.dim + 1) // 2
        if self.upper.shape != (n,):
            raise ContractViolationError(
                f"packed storage for dim {self.dim} needs {n} entries, "
                f"got {self.upper.shape}"
            )
        if not np.isfinite(self.upper).all():
            raise ContractViolationError("packed storage contains NaN or Inf")
        d = self.upper[_packed_diag_indices(self.dim)]
        if (np.abs(d.imag) > 1e-12 * np.abs(d.real)).any():
            raise ContractViolationError("packed diagonal is not real")

    @classmethod
    def pack(cls, a: np.ndarray) -> "HermPacked":
        a = as_cmat(a, "matrix")
        m = a.shape[0]
        if a.shape[1] != m:
            raise ContractViolationError("can only pack a square matrix")
        return cls(m, _pack_upper(a))

    def unpack(self, m: int | None = None) -> np.ndarray:
        """Materialize the leading ``m`` x ``m`` Hermitian block."""
        m = self._size(m, "unpack")
        return _read_upper(self.upper, (), _packed_square_flat(m), _strict_lower_mask(m))

    def diagonal(self, m: int | None = None) -> np.ndarray:
        return self.upper[_packed_diag_indices(self._size(m, "diagonal"))].real

    def _size(self, m, method: str) -> int:
        """A leading block's size ``m`` (None: ``dim``) as an int in 1..dim, else misuse."""
        if m is None:
            return self.dim
        if _is_int(m, 1, self.dim):
            return int(m)
        raise ContractViolationError(
            f"HermPacked.{method}: m must be an integer in 1..{self.dim}, got {m!r}")


def _is_int(x, lo: int, hi: float = math.inf) -> bool:
    """Whether ``x`` is an integer (not a bool) in lo..hi."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and lo <= x <= hi


def _read_upper(flat: np.ndarray, lead: tuple, at, lower) -> np.ndarray:
    """Entries of a storage that keeps only a Hermitian matrix's upper triangle.

    ``flat[at]``, through the trial index ``lead`` (see :func:`_lead`), with
    the entries where ``lower`` holds conjugated: those below the diagonal,
    which ``at`` addresses at their upper mirror.  A whole block read so is
    exactly Hermitian.  The one read of packed Q, of indexed Q and of dense Q
    on the BLAS route.
    """
    out = flat[(*lead, at)]
    np.conjugate(out, out=out, where=lower)
    return out


@lru_cache(maxsize=None)
def _arange(k: int) -> np.ndarray:
    return np.arange(k)


@lru_cache(maxsize=None)
def _square_tables(size: int):
    """Strict-lower mask and packed flat index of every entry of a square,
    the row and column of every packed entry in flat order, and the column of
    every entry with -1 on the diagonal.

    None depends on the block size, so a k x k block reads the leading
    corner (or prefix) of the tables for the next power of two; caching one
    table per power of two instead of per k keeps them small.
    """
    rows, cols = np.indices((size, size))
    lower = rows > cols
    hi = np.maximum(rows, cols)
    flat = hi * (hi + 1) // 2 + np.minimum(rows, cols)
    pcols = np.repeat(np.arange(size), np.arange(1, size + 1))
    prows = np.arange(pcols.size) - pcols * (pcols + 1) // 2
    skip = np.where(rows == cols, -1, cols)
    tables = lower, flat, prows, pcols, skip
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=None)      # a view per k: no memory beyond the table's
def _strict_lower_mask(k: int) -> np.ndarray:
    return _square_tables(1 << (k - 1).bit_length())[0][:k, :k]


@lru_cache(maxsize=None)      # a view per k, as above
def _packed_square_flat(k: int) -> np.ndarray:
    """Packed flat index of every entry of a k x k block (upper mirror below)."""
    return _square_tables(1 << (k - 1).bit_length())[1][:k, :k]


@lru_cache(maxsize=None)      # a view per k, as above
def _cols_off_diagonal(k: int) -> np.ndarray:
    """Row i holds the column indices of a k x k block, with -1 at column i."""
    return _square_tables(1 << (k - 1).bit_length())[4][:k, :k]


@lru_cache(maxsize=None)
def _packed_diag_indices(k: int):
    j = np.arange(k)
    return j * (j + 1) // 2 + j


@lru_cache(maxsize=None)      # views, as above
def _packed_coords(k: int):
    """Row and column of every packed entry, in flat order."""
    n = k * (k + 1) // 2
    rows, cols = _square_tables(1 << (k - 1).bit_length())[2:4]
    return rows[:n], cols[:n]


def _lead(a: np.ndarray, core: int, depth: int = 1) -> tuple:
    """Index of ``a``'s trial axis for fancy indexing of its ``core`` trailing axes.

    ``()`` for one trial, else the trial numbers as one column with ``depth``
    unit axes.  ``a[(*lead, idx)]`` keeps one trial's gather on numpy's fast
    path (``a[..., idx]`` is two to three times slower), and a batch's gather
    comes out C-contiguous, so BLAS reads each trial's rows with unit stride
    and the complex multiplies that follow round as for one trial.  A
    position that every trial shares takes basic slices instead (:func:`_entry`).
    """
    if a.ndim == core:
        return ()
    return (_arange(len(a)).reshape((-1,) + (1,) * depth),)


def _entry(lead: tuple, *idx: int) -> tuple:
    """Index of the entry at ``idx`` of the trailing axes, the same in every trial.

    The plain integers for one trial (``lead`` is ``()``); for a batch, basic
    slices that give a ``(T, 1)`` view, the shape of a per-trial value.
    """
    if not lead:
        return idx
    return (slice(None), *idx[:-1], slice(idx[-1], idx[-1] + 1))


def _pack_upper(a: np.ndarray) -> np.ndarray:
    """Packed upper triangle of each trailing square of ``a``."""
    rows, cols = _packed_coords(a.shape[-1])
    return a[(*_lead(a, 2), rows, cols)]


# ---------------------------------------------------------------------------
# validation helpers


def _complex(a):
    """``a`` as a complex128 array (``a`` itself if it is one), None unless it holds
    numbers: strings, dates, durations and an object array's non-numbers (None, a
    string of digits) are not taken, even where numpy converts them.  The one
    conversion rule of the detectors' trials, the channel and the public kernels."""
    if type(a) is np.ndarray and a.dtype == np.complex128:
        return a
    try:
        arr = np.asarray(a)
        kind = arr.dtype.kind
        if kind in "biufc" or (kind == "O" and all(isinstance(v, numbers.Number)
                                                   for v in arr.flat)):
            return np.asarray(arr, np.complex128)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _numbers(a, name: str) -> np.ndarray:
    """:func:`_complex` of ``a``, else misuse naming ``name``."""
    out = _complex(a)
    if out is None:
        raise ContractViolationError(f"{name} must hold real or complex numbers")
    return out


def as_cmat(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """A non-empty complex matrix with finite entries (``stack``: or a 3-D stack of them)."""
    a = _numbers(a, name)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        raise ContractViolationError(f"{name} must be 2-D, got shape {a.shape}")
    if not a.size:
        raise ContractViolationError(f"{name} must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractViolationError(f"{name} contains NaN or Inf")
    return a


def as_cvec(v, name: str = "vector") -> np.ndarray:
    v = _numbers(v, name)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ContractViolationError(f"{name} must be 1-D and non-empty, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ContractViolationError(f"{name} contains NaN or Inf")
    return v


def _label(context: str, step) -> str:
    return f"{context} (recursion index {step})" if step else context


def real_pivot(x, context: str, step: int | None = None, error=ContractViolationError) -> float:
    """Assert a pivot is (numerically) real and return its real part.

    Errors are of type ``error`` and name ``context`` and, when given, the
    recursion index ``step``: a value read from the caller's arguments is
    misuse (the default), a pivot the recursion computed is a numerical
    failure (``SingularMatrixError``).  ``x`` may hold one pivot per trial;
    each is then judged as a number, in trial order, so the first failing
    trial's error is raised, and the real parts come back as a new array.
    A value that is no number at all (a string, None, a list) is misuse.
    """
    if isinstance(x, np.ndarray):
        if x.size > 1:
            vals = x.ravel().tolist()
            # a sufficient condition for passing, else the rule trial by trial
            if not all(abs(v.imag) <= PIVOT_IMAG_RTOL * abs(v.real) < math.inf for v in vals):
                for v in vals:
                    real_pivot(v, context, step, error)
            return x.real.copy()
        if x.size:          # an empty array is no number: complex() below refuses it
            x = x.item()
    try:
        if isinstance(x, str):
            raise TypeError     # complex() would parse it
        x = complex(x)
    except TypeError:
        raise ContractViolationError(f"{_label(context, step)}: expected a number, got "
                                     f"{type(x).__name__}") from None
    re, im = x.real, x.imag
    if im and abs(im) > PIVOT_IMAG_RTOL * max(abs(re), 1e-300):
        raise error(f"{_label(context, step)}: pivot {x} has a non-negligible imaginary part")
    if not math.isfinite(re) or math.isnan(im):
        raise error(f"{_label(context, step)}: pivot is not finite")
    return re


def _operands(context: str, mat, vec, scalar=None, drop: int = 0):
    """A public kernel's operands, each given as ``(name, value)``, else misuse
    naming ``context``: a square matrix, a vector of its size less ``drop``
    and, when given, a real scalar.  Returns the matrix, the vector and the
    scalar's real part (None when not given)."""
    (a_name, a), (v_name, v) = mat, vec
    a, v = as_cmat(a, a_name), as_cvec(v, v_name)
    m = a.shape[0]
    if a.shape[1] != m or v.shape[0] != m - drop or m <= drop:
        raise ContractViolationError(
            f"{context}: {a_name} is {a.shape}, {v_name} has length {v.shape[0]}")
    return a, v, None if scalar is None else real_pivot(scalar[1], f"{context} {scalar[0]}")


def _check_pivot(x, scale, context: str, step=None):
    """Real part of the pivot ``x`` a step computed, else SingularMatrixError.

    Not real or not finite (see :func:`real_pivot`), or not above SINGULAR_RTOL
    times ``|scale|`` (``None``: its own size, so only a non-positive ``x``) fails,
    naming ``context`` and ``step``.  ``x`` may hold one pivot per trial, and
    ``scale`` one per trial or one for all, judged as :func:`real_pivot` does.
    One trial's pivot, a ``complex``, that meets the sufficient condition a
    batch tests first returns at once; anything else takes :func:`_pivot_rule`."""
    if isinstance(x, complex):      # np.complex128 too
        re = x.real
        if ((0.0 if scale is None else SINGULAR_RTOL * abs(scale)) < re < math.inf
                and abs(x.imag) <= PIVOT_IMAG_RTOL * re):
            return float(re)
    elif isinstance(x, np.ndarray) and x.size > 1:
        vals = x.ravel().tolist()
        # a sufficient condition for passing, else the rule trial by trial
        if scale is None:       # self-scaled: only a non-positive pivot fails
            scales = [None] * len(vals)
            passed = all(0.0 < v.real < math.inf and abs(v.imag) <= PIVOT_IMAG_RTOL * v.real
                         for v in vals)
        else:
            scales = scale.ravel().tolist() if isinstance(scale, np.ndarray) else [scale] * len(vals)
            passed = all(SINGULAR_RTOL * abs(s) < v.real < math.inf
                         and abs(v.imag) <= PIVOT_IMAG_RTOL * v.real for v, s in zip(vals, scales))
        if not passed:
            for v, s in zip(vals, scales):
                _pivot_rule(v, s, context, step)
        return x.real.copy()
    return _pivot_rule(x, scale, context, step)


def _pivot_rule(x, scale, context: str, step):
    """:func:`_check_pivot`'s rule on one pivot, in full."""
    delta = real_pivot(x, context, step, SingularMatrixError)
    if delta <= (0.0 if scale is None else SINGULAR_RTOL * abs(scale)):
        raise SingularMatrixError(f"singular pivot in {_label(context, step)}: |{delta:g}|")
    return delta


# ---------------------------------------------------------------------------
# charged primitives


def _dot(a: np.ndarray, b: np.ndarray):
    """Uncharged a^H b: a complex for one pair of vectors, else ``(T, 1)``."""
    return complex(np.vdot(a, b)) if a.ndim == 1 else np.vecdot(a, b)[..., None]


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Uncharged A @ v, per trial for a stack."""
    return a @ v if a.ndim == 2 else np.matvec(a, v)


def vdot_c(a: np.ndarray, b: np.ndarray, led: FlopLedger):
    """Conjugated dot product a^H b; charges k cmul and k-1 cadd.

    With a trial axis, one product per trial, of shape ``(T, 1)``.
    """
    k = a.shape[-1]
    led.tick(cmul=k, cadd=k - 1)
    return _dot(a, b)


def matvec(a: np.ndarray, v: np.ndarray, led: FlopLedger, bound=None, vat=None) -> np.ndarray:
    """Plain A @ v (per trial); charges rows*cols cmul and rows*(cols-1) cadd.

    With ``bound`` (see :func:`rank1_update_herm`), ``a`` is the leading block
    of Hermitian squares: from ``ZHER_MIN_K`` rows on, one BLAS ``zhemv`` per
    trial reads only its upper triangle and writes A v into the bound
    workspace, which comes back.  ``v`` is read where ``vat`` says, else
    staged into the workspace first.
    """
    rows, cols = a.shape[-2:]
    led.tick(cmul=rows * cols, cadd=rows * (cols - 1))
    if bound is not None and cols >= ZHER_MIN_K:
        return bound.hemv(cols, vat or bound.stage(v))
    return _mv(a, v)


def conj_matvec(a: np.ndarray, v: np.ndarray, led: FlopLedger) -> np.ndarray:
    """A^H @ v (per trial); same charge as matvec on the transposed shape."""
    rows, cols = a.shape[-2:]
    led.tick(cmul=rows * cols, cadd=cols * (rows - 1))
    return _mv(np.conj(a).mT, v)


def _outer(u: np.ndarray, v: np.ndarray, fused: bool = True) -> np.ndarray:
    """``u v^T``, per trial for a batch, rounded as for one trial.

    One trial takes ``np.outer`` (``fused``) or ``np.multiply.outer``.
    numpy multiplies complex arrays with fused multiply-adds, except that
    ``np.multiply.outer`` of two one-element vectors rounds as plain scalar
    arithmetic; a batch's 1 x 1 products keep that rounding when not
    ``fused``, so a trial's bits never depend on whether it runs in a batch.
    """
    if u.ndim == 1:
        return np.outer(u, v) if fused else np.multiply.outer(u, v)
    if not fused and u.shape[-1] == 1:
        re = u.real * v.real - u.imag * v.imag
        im = u.real * v.imag + u.imag * v.real
        return np.stack((re, im), axis=-1).view(np.complex128)
    return u[..., :, None] * v[..., None, :]


def _zero_diag_imag(a: np.ndarray) -> None:
    """Zero the imaginary parts of the diagonal of each trailing square."""
    k = a.shape[-1]
    if a.ndim == 2:                 # one square: a flat stride over its diagonal
        a.imag.flat[:: k + 1] = 0.0
    else:
        d = _arange(k)
        a.imag[..., d, d] = 0.0


# Block size from which the Hermitian kernels run through BLAS ``zher`` and
# ``zhemv`` (set by measurement; README "Counting conventions").  Smaller
# blocks, where a call's fixed cost outweighs numpy's extra passes, stay on
# numpy.
ZHER_MIN_K = 32

# numpy's OpenBLAS, 64-bit integers: zher and zhemv
_SYMBOLS = tuple(f"scipy_cblas_{name}64_" for name in ("zher", "zhemv"))
_CBLAS_ROW_MAJOR, _CBLAS_UPPER = 101, 121
_ONE_ZERO = np.array([1.0, 0.0], np.complex128)    # the matvec's alpha and beta, passed by address


@lru_cache(maxsize=None)
def _zher():
    """``(zher, zhemv, library, ab)`` from numpy's own OpenBLAS, or None;
    ``ab`` holds the addresses of the matvec's alpha (1) and beta (0).

    Looked up once, at the first block of ``ZHER_MIN_K`` or more, never at
    import: in the OpenBLAS that numpy's wheels ship (``numpy.libs`` or
    ``numpy/.dylibs``), else through numpy's core extension, whose loader
    resolves the libraries it links.  Both symbols come from the one library
    found, or neither is used.  A numpy built on another BLAS (Accelerate,
    MKL) has no such symbols, and the numpy path runs.
    """
    import ctypes
    import glob
    import os

    import numpy._core._multiarray_umath as core

    root = os.path.dirname(np.__file__)
    found = sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                   + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in (*found, core.__file__):
        try:
            lib = ctypes.CDLL(path)
            zher, zhemv = (getattr(lib, name) for name in _SYMBOLS)
        except (OSError, AttributeError):
            continue
        enum, n, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
        zher.restype = zhemv.restype = None
        zher.argtypes = (enum, enum, n, ctypes.c_double, ptr, n, ptr, n)
        zhemv.argtypes = (enum, enum, n, ptr, ptr, n, ptr, n, ptr, ptr, n)
        one = _address(_ONE_ZERO)
        return zher, zhemv, os.path.basename(path), (one, one + 16)
    return None


def blas_route() -> str:
    """Which code runs the Hermitian rank-one updates and matvecs, as one line."""
    names = " and ".join(_SYMBOLS)
    found = _zher()
    if found is None:
        return f"Hermitian kernels: numpy for every k ({names} not found)"
    return f"Hermitian kernels: {names} from {found[2]} for k >= {ZHER_MIN_K}, numpy below"


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]      # as ``a.ctypes.data``, in half the time


def _addresses(a: np.ndarray):
    """The address of entry (0, 0): an int for one matrix, else a list, one per
    matrix of the stack."""
    at = _address(a)
    return at if a.ndim == 2 else [at + t * a.strides[0] for t in range(len(a))]


def _shifted(at, offset: int):
    """Addresses from :func:`_addresses`, each moved by ``offset`` bytes."""
    return at + offset if isinstance(at, int) else [a + offset for a in at]


class _Bound:
    """Row-major Hermitian squares, one or a stack, bound once per call
    (:func:`_bind`) so that a step passes BLAS integers to ``zher`` and
    ``zhemv``, with no lookup or layout check.

    ``lda`` is the squares' row stride in entries, ``at`` the address of
    entry (0, 0), ``ws`` a staged operand and the matvec's output, and ``ab``
    the addresses of the matvec's alpha and beta.  A vector operand is
    ``(addresses, increment)``: a column (:meth:`col`), ``inp`` or ``out``.
    Addresses are one int for a single matrix (``single``), which takes one
    BLAS call per operation, else a list with one per trial.  Only the upper
    triangle of a leading block is read or written.
    """

    __slots__ = ("at", "lda", "ws", "inp", "out", "ab", "her_fn", "hemv_fn", "single", "mat")

    def __init__(self, a: np.ndarray, found):
        self.her_fn, self.hemv_fn, _, self.ab = found
        self.lda, dim = a.strides[-2] // 16, a.shape[-1]
        self.single = a.ndim == 2
        self.at = _addresses(a)
        # the matrix arguments of a BLAS call: address, then lda
        self.mat = (self.at, self.lda) if self.single else [(at, self.lda) for at in self.at]
        self.ws = np.zeros(a.shape[:-2] + (2, dim), np.complex128)
        inp = _addresses(self.ws)
        self.inp, self.out = (inp, 1), (_shifted(inp, self.ws.strides[-2]), 1)

    def col(self, j: int):
        """Column j of each matrix, from row 0."""
        return _shifted(self.at, 16 * j), self.lda

    def stage(self, v: np.ndarray):
        """Copy ``v`` (one per trial) into the staged operand, which is returned."""
        np.copyto(self.ws[..., 0, : v.shape[-1]], v)
        return self.inp

    def hemv(self, k: int, x) -> np.ndarray:
        """``A x`` for the leading k x k block A of each matrix, read from its
        upper triangle, into ``out``: one ``zhemv`` per trial.  Returns ``out``."""
        (xs, incx), ys, (one, zero), fn = x, self.out[0], self.ab, self.hemv_fn
        if self.single:
            fn(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, k, one, *self.mat, xs, incx, zero, ys, 1)
        else:
            for mat, xat, yat in zip(self.mat, xs, ys):
                fn(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, k, one, *mat, xat, incx, zero, yat, 1)
        return self.ws[..., 1, :k]

    def her(self, k: int, x, alpha) -> None:
        """``A += alpha x x^H`` on the upper triangle of each leading k x k block,
        in place: one ``zher`` per trial, ``alpha`` one real, or for a stack one
        per trial."""
        (xs, incx), fn = x, self.her_fn
        if self.single:
            fn(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, k, alpha, xs, incx, *self.mat)
            return
        alphas = ((alpha,) * len(xs) if isinstance(alpha, float)
                  else np.broadcast_to(np.ravel(alpha), len(xs)).tolist())
        for mat, xat, alpha_t in zip(self.mat, xs, alphas):
            fn(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, k, alpha_t, xat, incx, *mat)


def _bind(a: np.ndarray) -> _Bound | None:
    """``a``'s Hermitian squares (one or a stack) bound for BLAS, or None where
    every block stays on numpy: below ``ZHER_MIN_K`` rows, where no BLAS is
    found, or in a layout BLAS does not take.  No lookup is made below
    ``ZHER_MIN_K``."""
    k = a.shape[-1]
    if k < ZHER_MIN_K:
        return None
    found = _zher()
    if (found is None or a.ndim > 3 or a.dtype != np.complex128 or not a.flags.writeable
            or a.strides[-1] != 16 or (a.ndim > 2 and a.strides[0] % 16)
            or a.shape[-2] != k or a.strides[-2] % 16 or a.strides[-2] < 16 * k):
        return None
    return _Bound(a, found)


def _on_blas(bound: _Bound | None, k: int) -> bool:
    """Whether a k x k block of bound squares runs on BLAS, keeping only its upper triangle."""
    return bound is not None and k >= ZHER_MIN_K


def _mirror(a: np.ndarray) -> None:
    """Overwrite the strict lower triangle of each trailing square by the
    conjugate of the upper one."""
    np.copyto(a, a.mT.conj(), where=_strict_lower_mask(a.shape[-1]))


def rank1_update_herm(
    a: np.ndarray,
    x: np.ndarray,
    c,
    led: FlopLedger,
    subtract: bool = False,
    right: bool = False,
    bound: _Bound | None = None,
    xat=None,
) -> None:
    """In place ``a +/-= c x x^H`` for real ``c``: a Hermitian result (per trial).

    Charged as the upper triangle (k*(k+1)/2 products), whichever path runs.
    Below ``ZHER_MIN_K``, and unbound, numpy forms the products ``(c x) x^H``,
    or ``x (c x)^H`` when ``right`` (they round differently, and each caller
    keeps its form and its bits), over the whole square in one pass, then
    mirrors the strict lower triangle from the upper one.  From ``ZHER_MIN_K``
    on, where ``a`` is the leading block of the squares ``bound`` holds
    (:func:`_bind`), BLAS ``zher`` adds ``(+/-c) x x^H`` to the upper
    triangle only, one call per trial, so a trial in a batch is bit for bit
    its call alone; nothing mirrors it.  ``x`` is read where ``xat`` says,
    else staged into the bound workspace.

    Either way the diagonal's imaginary parts are zero, as in the reference
    Hermitian BLAS routines.  ``a`` may be a strided view such as
    ``q[:k, :k]``; ``x`` must not overlap it.  ``c`` is one number, or one
    per trial as ``(T, 1)``.
    """
    k = x.shape[-1]
    led.tick(cmul=k * (k + 1) // 2, cadd=k * (k + 1) // 2)
    if bound is not None and k >= ZHER_MIN_K:
        bound.her(k, xat or bound.stage(x), -c if subtract else c)
        return
    u, w = (x, c * x) if right else (c * x, x)
    (np.subtract if subtract else np.add)(a, _outer(u, np.conj(w), fused=False), out=a)
    _zero_diag_imag(a)
    _mirror(a)


def rank1_update_full(
    a: np.ndarray,
    x: np.ndarray,
    c,
    led: FlopLedger,
    subtract: bool = False,
) -> None:
    """In place ``a +/-= (c x) x^H`` without exploiting symmetry (k**2 products).

    Always numpy.  Hermitian-result semantics as in :func:`rank1_update_herm`:
    the diagonal is forced real.
    """
    k = x.shape[-1]
    led.tick(cmul=k * k, cadd=k * k)
    (np.subtract if subtract else np.add)(a, _outer(c * x, np.conj(x), fused=True), out=a)
    _zero_diag_imag(a)


def _finite(kernel: str, *outs):
    """A public kernel's result ``outs`` (one value, else a tuple), unless an
    entry is not finite: then SingularMatrixError naming ``kernel``."""
    for out in outs:
        if not np.isfinite(out).all():
            raise SingularMatrixError(f"{kernel}: result is not finite")
    return outs if len(outs) > 1 else outs[0]


# ---------------------------------------------------------------------------
# public kernel operations


@np.errstate(all="ignore")
def herm_rank1_update(
    a: np.ndarray,
    v: np.ndarray,
    alpha: float,
    triangle_only: bool,
    ledger: FlopLedger,
) -> np.ndarray:
    """Return ``a + alpha * v v^H`` for Hermitian ``a`` and real ``alpha``."""
    a, v, alpha = _operands("herm_rank1_update", ("a", a), ("v", v), ("alpha", alpha))
    m = a.shape[0]
    out = a.copy()
    ledger.tick(cmul=m)     # alpha * v
    (rank1_update_herm if triangle_only else rank1_update_full)(out, v, alpha, ledger)
    return _finite("herm_rank1_update", out)


def _block_step_i(a, r_bar, gamma, led, bound=None, step=None):
    """Partitioned-inverse growth step, three-division form, in place.

    ``a`` holds the leading block's inverse, Hermitian squares (one or a
    stack), which becomes the grown inverse's block; returns the new column
    and corner entry.  With ``bound`` (:func:`_bind`), ``a`` is the leading
    k x k block of the bound squares and ``r_bar`` their column k above the
    diagonal, read in place.  Division accounting is deliberate: one for the
    Schur denominator, one for 1/gamma and one for 1/gamma**2.  Errors name
    ``block_inv_step_i``.
    """
    k = r_bar.shape[-1]
    vat = bound and bound.col(k)
    g = matvec(a, r_bar, led, bound, vat)
    t = vdot_c(r_bar, g, led)
    delta = _check_pivot(gamma - t, gamma, "block_inv_step_i", step)
    beta = 1.0 / delta
    rank1_update_herm(a, g, beta, led, bound=bound, xat=bound and bound.out)
    g2 = matvec(a, r_bar, led, bound, vat)
    gamma_inv = 1.0 / gamma
    q_col = (-gamma_inv) * g2
    gamma_inv2 = gamma_inv / gamma
    t2 = vdot_c(r_bar, g2, led)
    omega = _check_pivot(gamma_inv + gamma_inv2 * t2, None, "block_inv_step_i", step)
    led.tick(cmul=2 * k + 1, cadd=2, cdiv=3)
    return q_col, omega


def _block_step_v(a, r_bar, gamma, led, bound=None, step=None):
    """Partitioned-inverse growth step, single-division form, in place.

    As :func:`_block_step_i`; also returns ``q_tilde = Q r_bar``.
    """
    k = r_bar.shape[-1]
    q_tilde = matvec(a, r_bar, led, bound, bound and bound.col(k))
    t = vdot_c(r_bar, q_tilde, led)
    delta = _check_pivot(gamma - t, gamma, "block_inv_step_v", step)
    omega = 1.0 / delta
    q_col = (-omega) * q_tilde
    led.tick(cmul=k, cadd=1, cdiv=1)
    # q -= q_tilde q_col^H
    rank1_update_herm(a, q_tilde, -omega, led, subtract=True, right=True, bound=bound,
                      xat=bound and bound.out)
    return q_col, omega, q_tilde


@np.errstate(all="ignore")
def block_inv_step_i(q_prev, r_bar, gamma, ledger: FlopLedger, step: int | None = None):
    """Grow a partitioned inverse by one row/column (two extra divisions).

    Given Q = R^-1 for the leading block and the new border (r_bar, gamma)
    of the grown Hermitian matrix, returns (q_bar_block, q_bar_col, omega)
    such that assembling [[q_bar_block, q_bar_col], [q_bar_col^H, omega]]
    inverts the grown matrix.
    """
    q_prev, r_bar, gamma = _operands("block_inv_step_i", ("q_prev", q_prev), ("r_bar", r_bar),
                                     ("gamma", gamma))
    q_bar = q_prev.copy()
    q_col, omega = _block_step_i(q_bar, r_bar, gamma, ledger, step=step)
    return _finite("block_inv_step_i", q_bar, q_col, omega)


@np.errstate(all="ignore")
def block_inv_step_v(q_prev, r_bar, gamma, ledger: FlopLedger, step: int | None = None):
    """Grow a partitioned inverse by one row/column with a single division.

    Mathematically identical to :func:`block_inv_step_i` but reuses the
    intermediate q_tilde = Q r_bar, charging exactly one cdiv per call.
    Also returns q_tilde, which callers may reuse.
    """
    q_prev, r_bar, gamma = _operands("block_inv_step_v", ("q_prev", q_prev), ("r_bar", r_bar),
                                     ("gamma", gamma))
    q_bar = q_prev.copy()
    q_col, omega, q_tilde = _block_step_v(q_bar, r_bar, gamma, ledger, step=step)
    return _finite("block_inv_step_v", q_bar, q_col, omega, q_tilde)


@np.errstate(all="ignore")
def sm_rank1_inverse_update(
    q: np.ndarray,
    h: np.ndarray,
    ledger: FlopLedger,
    triangle_only: bool = True,
) -> np.ndarray:
    """Return ``(Q^-1 + h h^H)^-1`` from Q via a rank-one correction."""
    q, h, _ = _operands("sm_rank1_inverse_update", ("q", q), ("h", h))
    out = q.copy()
    _sm_update_inplace(out, h, 1.0, ledger, "sm_rank1_inverse_update", triangle_only)
    return _finite("sm_rank1_inverse_update", out)


def _sm_update_inplace(q, r, c, led, context, triangle_only=True, bound=None):
    """Q -= (Q r)(Q r)^H / (c + r^H Q r) in place, the pivot judged against c.

    With ``bound`` (``q`` its leading block), a block on the BLAS route is read
    and updated in its upper triangle only.
    """
    m = q.shape[-1]
    u = matvec(q, r, led, bound)
    t = vdot_c(r, u, led)
    delta = _check_pivot(c + t, c, context)
    beta = 1.0 / delta
    led.tick(cmul=m, cadd=1, cdiv=1)
    if triangle_only:
        rank1_update_herm(q, u, beta, led, subtract=True, bound=bound, xat=bound and bound.out)
    else:
        rank1_update_full(q, u, beta, led, subtract=True)


@np.errstate(all="ignore")
def deflate_q(q_m: np.ndarray, ledger: FlopLedger) -> np.ndarray:
    """Shrink an inverse after dropping the last row/column of its matrix.

    Uses only entries of ``q_m`` itself: the block, last column and last
    diagonal entry.
    """
    q_m = as_cmat(q_m, "q_m")
    m = q_m.shape[0]
    if q_m.shape[1] != m or m < 2:
        raise ContractViolationError(f"deflate_q needs a square matrix of dim >= 2, got {q_m.shape}")
    omega = _check_pivot(real_pivot(q_m[-1, -1], "deflate_q omega"), None, "deflation omega", m)
    out = q_m[: m - 1, : m - 1].copy()
    q_bar = q_m[: m - 1, m - 1]
    om_inv = 1.0 / omega
    ledger.tick(cdiv=1)
    ledger.tick(cmul=m - 1)
    rank1_update_herm(out, q_bar, om_inv, ledger, subtract=True)
    return _finite("deflate_q", out)


@np.errstate(all="ignore")
def deflate_q_sm(
    q_m: np.ndarray,
    r_bar: np.ndarray,
    gamma,
    ledger: FlopLedger,
    triangle_only: bool = True,
) -> np.ndarray:
    """Shrink an inverse using the border of the original matrix.

    Same output as :func:`deflate_q` but computed from (r_bar, gamma), which
    costs one extra matrix-vector product.
    """
    q_m, r_bar, gamma = _operands("deflate_q_sm", ("q_m", q_m), ("r_bar", r_bar),
                                  ("gamma", gamma), drop=1)
    m = q_m.shape[0]
    out = q_m[: m - 1, : m - 1].copy()
    _sm_update_inplace(out, r_bar, gamma, ledger, "deflate_q_sm", triangle_only)
    return _finite("deflate_q_sm", out)


# ---------------------------------------------------------------------------
# initializer chains shared by the detectors


@np.errstate(all="ignore")
def init_gram(h: np.ndarray, alpha: float, ledger: FlopLedger) -> np.ndarray:
    """Return ``H^H H + alpha I``, exactly Hermitian with a real diagonal.

    Charged as the row-by-row accumulation of Hermitian outer products on
    the upper triangle (N*M*(M+1)/2 products and adds); numpy forms the
    full product in one call and the strict lower triangle is mirrored.
    ``h`` may be a stack of channels, with one ``alpha`` per trial.  Overflow
    is a numerical failure; a finite diagonal bounds |r_ij| <= sqrt(r_ii r_jj).
    """
    h = as_cmat(h, "h", stack=True)
    n, m = h.shape[-2:]
    alpha = real_pivot(alpha, "init_gram alpha")
    if np.any(alpha <= 0):
        raise ContractViolationError("init_gram needs alpha > 0")
    ledger.tick(cmul=n * m * (m + 1) // 2, cadd=n * m * (m + 1) // 2)
    r = h.conj().mT @ h
    _mirror(r)
    diag = (*_lead(r, 2), _arange(m), _arange(m))
    r[diag] = d = r[diag].real + alpha
    if not np.isfinite(d).all():
        raise SingularMatrixError("init_gram: H^H H + alpha I is not finite")
    return r


@np.errstate(all="ignore")
def init_q_sherman_morrison(
    h: np.ndarray,
    alpha: float,
    ledger: FlopLedger,
    triangle_only: bool = True,
) -> np.ndarray:
    """Build ``(H^H H + alpha I)^-1`` by rank-one corrections over rows.

    ``h`` may be a stack of channels, with one ``alpha`` per trial.  With
    ``triangle_only``, Q is bound once (:func:`_bind`): on the BLAS route the
    corrections keep its upper triangle, mirrored once on exit.
    """
    h = as_cmat(h, "h", stack=True)
    n, m = h.shape[-2:]
    alpha = real_pivot(alpha, "init_q_sherman_morrison alpha")
    if np.any(alpha <= 0):
        raise ContractViolationError("init_q_sherman_morrison needs alpha > 0")
    q = np.zeros(h.shape[:-2] + (m, m), dtype=np.complex128)
    q[(*_lead(q, 2), _arange(m), _arange(m))] = 1.0 / alpha
    ledger.tick(cdiv=1)
    bound = _bind(q) if triangle_only else None
    for row in range(n):
        _sm_update_inplace(q, np.conj(h[..., row, :]), 1.0, ledger, "sm_rank1_inverse_update",
                           triangle_only, bound)
    if bound is not None:
        _mirror(q)
    return q


@np.errstate(all="ignore")
def init_q_recursive(r: np.ndarray, ledger: FlopLedger, variant: str = "v") -> np.ndarray:
    """Invert a Hermitian positive-definite matrix by growing its inverse.

    ``variant`` selects the border step: "i" is the three-division form,
    "v" the single-division form.  Both produce the full inverse of ``r``,
    or of each matrix of a stack.  A non-real diagonal entry is misuse.
    """
    r = as_cmat(r, "r", stack=True)
    m = r.shape[-1]
    if r.shape[-2] != m:
        raise ContractViolationError("init_q_recursive needs a square matrix")
    if variant not in ("i", "v"):
        raise ContractViolationError(f"unknown variant {variant!r}")
    real_pivot(r.diagonal(0, -2, -1), "init_q_recursive")
    q = r.copy()
    bound = _bind(q)
    _grow_inverse(q, m, ledger, variant, bound)
    if bound is not None:
        _mirror(q)
    return q


def _grow_inverse(q, m, led, variant, bound=None):
    """:func:`init_q_recursive` in place: the leading m x m Hermitian block of
    the squares ``q`` (one or a stack, read from its upper triangle) becomes
    its inverse.  Step 0 inverts the leading entry; step k grows the inverse
    by border k (column k above the diagonal and the entry gamma, a pivot of
    its own scale) with the ``variant`` step and overwrites the border.  With
    ``bound``, ``q``'s binding (:func:`_bind`), blocks from ``ZHER_MIN_K`` rows
    on run BLAS on the upper triangle; the others take numpy and mirror the
    border row.
    """
    step_fn = _block_step_i if variant == "i" else _block_step_v
    lead = _lead(q, 2)
    for k in range(m):
        ii = _entry(lead, k, k)
        col, gamma = q[..., :k, k], q[ii]
        if k:
            gamma = _check_pivot(gamma, None, "init_q_recursive", k + 1)
            q_col, omega = step_fn(q[..., :k, :k], col, gamma, led, bound, k + 1)[:2]
        else:       # the 1 x 1 inverse
            q_col, omega = col, 1.0 / _check_pivot(gamma, None, "init_q_recursive leading entry")
            led.tick(cdiv=1)
        q[ii] = omega
        q[..., :k, k] = q_col
        if not _on_blas(bound, k + 1):
            q[..., k, :k] = np.conj(q_col)


# ---------------------------------------------------------------------------
# independent oracle


@np.errstate(all="ignore")
def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square complex matrix by Gauss-Jordan with partial pivoting.

    Test oracle: unoptimized on purpose and never charged to a ledger.
    ``a`` may be a stack of matrices ``(T, n, n)``.  Each keeps its own
    pivoting (its own pivot rows, swapped through the stack index) and comes
    out bit for bit as its own call; if one fails, the stack raises the error
    of the first to fail, as a call on that matrix alone raises it.
    """
    a = as_cmat(a, "a", stack=True)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ContractViolationError(f"cannot invert non-square matrix {a.shape}")
    lead = _lead(a, 2, 0)
    scale = np.abs(a).max(axis=(-2, -1))
    if (scale == 0.0).any():
        raise SingularMatrixError("gauss_jordan_inverse: zero matrix")
    tol = SINGULAR_RTOL * scale
    aug = np.empty(a.shape[:-1] + (2 * n,), np.complex128)
    aug[..., :n] = a
    aug[..., n:] = np.eye(n)
    for col in range(n):
        piv = col + np.abs(aug[..., col:, col]).argmax(axis=-1)
        pivot = aug[(*lead, piv, col)]
        small = np.abs(pivot) < tol
        if small.any() if lead else small:      # one matrix: a numpy bool, no reduction
            piv = np.ravel(piv)[np.argmax(small)]
            raise SingularMatrixError(f"gauss_jordan_inverse: pivot {piv} below tolerance")
        top = aug[(*lead, piv)].copy()      # the pivot row into place, a no-op where it is
        aug[(*lead, piv)] = aug[..., col, :]
        aug[..., col, :] = top
        aug[..., col, :] /= pivot[..., None]
        factors = aug[..., :, col].copy()
        factors[..., col] = 0.0
        aug -= factors[..., :, None] * aug[..., None, col, :]
    return _finite("gauss_jordan_inverse", aug[..., n:])
