"""Kernel-level contracts: examples, oracles and cross-kernel invariants."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vblast import kernels
from vblast.errors import ContractViolationError, SingularMatrixError
from vblast.kernels import (
    ZHER_MIN_K,
    FlopLedger,
    HermPacked,
    block_inv_step_i,
    block_inv_step_v,
    deflate_q,
    deflate_q_sm,
    gauss_jordan_inverse,
    herm_rank1_update,
    init_gram,
    init_q_recursive,
    init_q_sherman_morrison,
    matvec,
    rank1_update_herm,
    real_pivot,
    sm_rank1_inverse_update,
    _check_pivot,
    _grow_inverse,
)
from vblast.sigmodel import make_rng


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def seeded_spd(rng, m, extra_rows=2):
    """Hermitian positive-definite matrix built as H^H H + alpha I."""
    h = random_complex(rng, m + extra_rows, m)
    return h.conj().T @ h + 0.3 * np.eye(m)


def herm_err(x):
    return np.abs(x - x.conj().T).max() / max(np.abs(x).max(), 1e-300)


# ---------------------------------------------------------------------------
# herm_rank1_update


def test_rank1_unit_vector_outer_product():
    led = FlopLedger()
    a = np.zeros((2, 2), complex)
    out = herm_rank1_update(a, np.array([1.0, 0.0], complex), 1.0, True, led)
    assert np.allclose(out, [[1, 0], [0, 0]])


def test_rank1_zero_vector_noop():
    led = FlopLedger()
    out = herm_rank1_update(np.eye(2, dtype=complex), np.zeros(2, complex), -5.0, True, led)
    assert np.allclose(out, np.eye(2))


def test_rank1_matches_naive_dense_oracle():
    rng = make_rng(41)
    a = seeded_spd(rng, 4)
    v = random_complex(rng, 4)
    alpha = -1.0 / 0.7
    led = FlopLedger()
    got = herm_rank1_update(a, v, alpha, True, led)
    # naive elementwise oracle
    naive = np.empty((4, 4), complex)
    for i in range(4):
        for j in range(4):
            naive[i, j] = a[i, j] + alpha * v[i] * np.conj(v[j])
    err = np.abs(got - naive).max() / np.abs(naive).max()
    assert err < 1e-13
    assert herm_err(got) < 1e-12


def test_rank1_triangle_charge_is_halved():
    m = 8
    a = np.eye(m, dtype=complex)
    v = random_complex(make_rng(5), m)
    led_tri = FlopLedger()
    herm_rank1_update(a, v, 2.0, True, led_tri)
    led_full = FlopLedger()
    herm_rank1_update(a, v, 2.0, False, led_full)
    # scaling costs m either way; the outer part is m(m+1)/2 vs m**2
    assert led_tri.cmul == m + m * (m + 1) // 2
    assert led_full.cmul == m + m * m


def test_rank1_dimension_mismatch():
    with pytest.raises(ContractViolationError):
        herm_rank1_update(np.eye(3, dtype=complex), np.zeros(2, complex), 1.0, True, FlopLedger())


def test_rank1_rejects_nan():
    a = np.eye(2, dtype=complex)
    a[0, 1] = np.nan
    with pytest.raises(ContractViolationError):
        herm_rank1_update(a, np.zeros(2, complex), 1.0, True, FlopLedger())


@pytest.mark.parametrize("fused", [True, False])
def test_outer_is_numpys_outer_bit_for_bit(fused):
    """``kernels._outer`` is ``np.outer`` (``fused``), else ``np.multiply.outer``,
    bit for bit, for k = 1..64: on one trial's vectors, contiguous or strided
    as a column of Q is, and on every trial of a batch of 3.  The result is
    C-contiguous, as the rank-one updates' product buffer must be."""
    want_of = np.outer if fused else np.multiply.outer
    rng = make_rng(47)
    for k in range(1, 65):
        u, v = random_complex(rng, 3, 2 * k)[:, ::2], random_complex(rng, 3, k)
        batch = kernels._outer(u, v, fused)
        assert batch.shape == (3, k, k) and batch.flags.c_contiguous
        for t in range(3):
            want = want_of(u[t], v[t]).tobytes()
            for uu in (u[t], u[t].copy()):
                one = kernels._outer(uu, v[t], fused)
                assert one.shape == (k, k) and one.flags.c_contiguous
                assert one.tobytes() == want, (k, t)
            assert batch[t].tobytes() == want, (k, t)


def _on_blas(k):
    """Whether a bound k x k block runs on BLAS here: then only its upper triangle is kept."""
    return k >= ZHER_MIN_K and kernels._zher() is not None


def _bound_update(buf, k, x, c, **kw):
    """``rank1_update_herm`` on ``buf[..., :k, :k]``, bound as the detectors bind it;
    returns the charge."""
    led = FlopLedger()
    block = buf[..., :k, :k]
    rank1_update_herm(block, x, c, led, bound=kernels._bind(block), **kw)
    return led


def _grow(q, m, variant="v"):
    """``_grow_inverse`` on the squares ``q`` in place, bound as the single buffer
    binds them."""
    _grow_inverse(q, m, FlopLedger(), variant, kernels._bind(q))


def _spoiled(buf, k):
    """A copy of ``buf`` with the strict lower triangle of its leading k x k block(s) NaN."""
    out = buf.copy()
    rows, cols = np.tril_indices(k, -1)
    out[..., rows, cols] = np.nan
    return out


@pytest.mark.parametrize("subtract", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 17, 64])
def test_rank1_update_herm_on_strided_view(k, subtract):
    """The in-place kernel on ``buf[:k, :k]``, bound as the detectors bind it.

    Only the upper triangle is read.  Below ``ZHER_MIN_K`` the strict lower
    one starts as junk and must come out as its conjugate mirror; on the BLAS
    route it is never read nor written: spoiled with NaN, it stays so, bit
    for bit, and the upper triangle keeps its bits.
    """
    rng = make_rng(43, k)
    buf = random_complex(rng, k + 3, k + 5)
    block = np.triu(seeded_spd(rng, k)) + np.tril(random_complex(rng, k, k), -1)
    block[np.diag_indices(k)] = block.diagonal().real
    buf[:k, :k] = block
    before = buf.copy()
    w = random_complex(rng, k)
    u = -0.7 * w
    led = _bound_update(buf, k, w, -0.7, subtract=subtract)
    assert led.as_tuple() == (k * (k + 1) // 2, k * (k + 1) // 2, 0)
    got = buf[:k, :k]
    sign = -1.0 if subtract else 1.0
    naive = np.empty((k, k), complex)
    for i in range(k):
        for j in range(k):
            naive[i, j] = before[i, j] + sign * (u[i] * np.conj(w[j]))
    rows, cols = np.triu_indices(k)
    err = np.abs(got[rows, cols] - naive[rows, cols]).max() / np.abs(naive).max()
    assert err <= 1e-14
    lo_rows, lo_cols = np.tril_indices(k, -1)
    if _on_blas(k):
        assert got[lo_rows, lo_cols].tobytes() == before[lo_rows, lo_cols].tobytes()
        spoiled = _spoiled(before, k)
        _bound_update(spoiled, k, w, -0.7, subtract=subtract)
        assert spoiled[rows, cols].tobytes() == got[rows, cols].tobytes()
        assert np.isnan(spoiled[lo_rows, lo_cols]).all()
    else:
        assert np.array_equal(got[lo_rows, lo_cols], np.conj(got[lo_cols, lo_rows]))
    assert np.all(got.diagonal().imag == 0.0)
    outside = np.ones(buf.shape, bool)
    outside[:k, :k] = False
    assert np.array_equal(buf[outside], before[outside])


def _strided_blocks(rng, k, lead):
    """A Hermitian k x k block with a junk strict lower triangle at the top left
    of a larger buffer, one per trial (``lead``: ``()`` or ``(T,)``), and a
    vector per trial read with stride 2 from elsewhere."""
    buf = random_complex(rng, *lead, k + 3, k + 5)
    for blk in buf.reshape(-1, k + 3, k + 5):
        blk[:k, :k] = np.triu(seeded_spd(rng, k)) + np.tril(random_complex(rng, k, k), -1)
        blk[:k, :k][np.diag_indices(k)] = blk[:k, :k].diagonal().real
    x = random_complex(rng, *lead, 2 * k)[..., ::2]
    c = -0.7 if not lead else rng.standard_normal((*lead, 1))
    return buf, x, c


@pytest.mark.parametrize("right", [False, True])
@pytest.mark.parametrize("subtract", [False, True])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
@pytest.mark.parametrize("k", [ZHER_MIN_K - 1, ZHER_MIN_K, 64, 100])
def test_rank1_update_herm_blas_route(k, lead, subtract, right):
    """Either side of ``ZHER_MIN_K``, on bound strided views, one trial and a
    batch: the upper triangle is ``a +/- c x x^H`` to 1e-13 and the diagonal
    real.  The strict lower triangle is the conjugate mirror bit for bit below
    ``ZHER_MIN_K``; on the BLAS route it is never read nor written (NaN there
    changes no bit of the upper one).  Nothing outside the view moves and the
    charge is the triangle's.  A batch's trials, with one c each or one c for
    all, are each bit for bit the call on that trial alone."""
    rng = make_rng(47, k)
    buf, x, c = _strided_blocks(rng, k, lead)
    before = buf.copy()
    led = _bound_update(buf, k, x, c, subtract=subtract, right=right)
    assert led.as_tuple() == (k * (k + 1) // 2, k * (k + 1) // 2, 0)
    got = buf[..., :k, :k]
    sign = -1.0 if subtract else 1.0
    naive = before[..., :k, :k] + sign * np.asarray(c)[..., None] * (
        x[..., :, None] * np.conj(x)[..., None, :])
    rows, cols = np.triu_indices(k)
    err = np.abs(got[..., rows, cols] - naive[..., rows, cols]).max() / np.abs(naive).max()
    assert err <= 1e-13
    lo_rows, lo_cols = np.tril_indices(k, -1)
    if _on_blas(k):
        assert got[..., lo_rows, lo_cols].tobytes() == before[..., lo_rows, lo_cols].tobytes()
        spoiled = _spoiled(before, k)
        _bound_update(spoiled, k, x, c, subtract=subtract, right=right)
        assert spoiled[..., rows, cols].tobytes() == got[..., rows, cols].tobytes()
    else:
        mirror = np.conj(got[..., lo_cols, lo_rows])
        assert got[..., lo_rows, lo_cols].tobytes() == mirror.tobytes()
    assert not got.diagonal(0, -2, -1).imag.any()
    outside = np.ones(buf.shape, bool)
    outside[..., :k, :k] = False
    assert buf[outside].tobytes() == before[outside].tobytes()
    for t in range(len(buf) if lead else 0):
        one = before[t].copy()
        _bound_update(one, k, x[t], c[t, 0], subtract=subtract, right=right)
        assert one.tobytes() == buf[t].tobytes()
    if lead:        # one c for every trial of the batch
        same_c = before.copy()
        _bound_update(same_c, k, x, -0.7, subtract=subtract, right=right)
        for t in range(len(buf)):
            one = before[t].copy()
            _bound_update(one, k, x[t], -0.7, subtract=subtract, right=right)
            assert one.tobytes() == same_c[t].tobytes()


@pytest.mark.parametrize("full", [False, True], ids=["herm", "full"])
@pytest.mark.parametrize("subtract", [False, True])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_rank1_update_on_whole_squares_matches_strided_blocks(k, lead, subtract, full):
    """Unbound, the numpy path updates a C-contiguous square in place and a
    strided leading block through its product buffer: the same bits either way,
    for ``rank1_update_herm`` (with ``c x`` formed or given, on either side) and
    for ``rank1_update_full``."""
    rng = make_rng(53, k)
    buf, x, c = _strided_blocks(rng, k, lead)
    whole = buf[..., :k, :k].copy()
    assert whole.flags.c_contiguous and not buf[..., :k, :k].flags.c_contiguous or k == 1
    sides = [{}] if full else [{}, {"cx": c * x}, {"right": True}, {"right": True, "cx": c * x}]
    for kw in sides:
        a, b = whole.copy(), buf.copy()
        for target in (a, b[..., :k, :k]):
            if full:
                kernels.rank1_update_full(target, x, c, FlopLedger(), subtract=subtract)
            else:
                rank1_update_herm(target, x, c, FlopLedger(), subtract=subtract, **kw)
        assert a.tobytes() == b[..., :k, :k].copy().tobytes()
        if kw.get("cx") is not None:
            plain = whole.copy()
            rank1_update_herm(plain, x, c, FlopLedger(), subtract=subtract,
                              right=kw.get("right", False))
            assert plain.tobytes() == a.tobytes()


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
@pytest.mark.parametrize("k", [ZHER_MIN_K - 1, ZHER_MIN_K, 64])
def test_matvec_on_bound_squares_reads_only_the_upper_triangle(k, lead):
    """``matvec`` on a bound Hermitian block, with ``v`` a column of the squares
    (as the growth steps pass it) or staged: on the BLAS route ``zhemv`` gives
    A v to 1e-13 from the upper triangle alone (NaN below changes no bit), a
    batch's trials each bit for bit its call alone; below ``ZHER_MIN_K`` it is
    numpy's product of the full square, bit for bit.  The charge is the plain
    matvec's."""
    rng = make_rng(61, k)
    buf, _, _ = _strided_blocks(rng, k, lead)
    upper = np.triu(buf[..., :k, :k])
    herm = upper + np.conj(np.triu(upper, 1)).swapaxes(-1, -2)
    v = buf[..., :k, k]
    want = np.matvec(herm, v)

    def product(b, col):
        block, led = b[..., :k, :k], FlopLedger()
        bound = kernels._bind(block)
        vat = bound.col(k) if bound is not None and col else None
        out = matvec(block, b[..., :k, k], led, bound, vat).copy()
        assert led.as_tuple() == (k * k, k * (k - 1), 0)
        return out

    for col in (True, False):
        got = product(buf, col)
        if not _on_blas(k):     # the full square, junk below the diagonal and all
            assert got.tobytes() == np.matvec(buf[..., :k, :k], v).tobytes()
            continue
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert product(_spoiled(buf, k), col).tobytes() == got.tobytes()
        for t in range(len(buf) if lead else 0):
            assert product(buf[t], col).tobytes() == got[t].tobytes()


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "batch"])
@pytest.mark.parametrize("k", [ZHER_MIN_K, 64])
def test_rank1_update_herm_without_blas_runs_numpy(monkeypatch, k, lead):
    """Where no BLAS ``zher`` is found, nothing is bound, and a block of
    ``ZHER_MIN_K`` or more runs the numpy path, the bits of a block below
    ``ZHER_MIN_K``."""
    rng = make_rng(53, k)
    buf, x, c = _strided_blocks(rng, k, lead)

    def update():
        out = buf.copy()
        _bound_update(out, k, x, c, subtract=True)
        return out.tobytes()

    with monkeypatch.context() as mp:
        mp.setattr(kernels, "ZHER_MIN_K", k + 1)        # the numpy path by block size
        want = update()
    route = kernels.blas_route()
    monkeypatch.setattr(kernels, "_zher", lambda: None)
    assert "numpy for every k" in kernels.blas_route()
    for name in ("zher", "zhemv"):       # found or not, the line names both
        assert f"scipy_cblas_{name}64_" in route
        assert f"scipy_cblas_{name}64_" in kernels.blas_route()
    assert kernels._bind(buf[..., :k, :k]) is None
    assert update() == want


def test_blas_is_loaded_at_the_first_large_block_only():
    """``import vblast`` and blocks below ``ZHER_MIN_K`` never look for BLAS."""
    code = (
        "import numpy as np, vblast\n"
        "from vblast import kernels as K\n"
        "c = vblast.constellation('qpsk')\n"
        "for m in (K.ZHER_MIN_K - 1, K.ZHER_MIN_K + 1):\n"
        "    ch = vblast.draw_channel(m, m, 3)\n"
        "    rx = vblast.transmit(vblast.random_frame(m, c, 3, stream=1), ch, 0.1, 3, stream=2)\n"
        "    vblast.detect_proposed_2(ch, rx, c)\n"
        "    print(K._zher.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1"]


# ---------------------------------------------------------------------------
# Gram matrix


@pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (8, 8), (20, 16), (64, 64)])
def test_init_gram_matches_row_accumulation(n, m):
    rng = make_rng(53, n * 100 + m)
    h = random_complex(rng, n, m)
    alpha = 0.25
    led = FlopLedger()
    r = init_gram(h, alpha, led)
    assert led.as_tuple() == (n * m * (m + 1) // 2, n * m * (m + 1) // 2, 0)
    ref = alpha * np.eye(m, dtype=complex)
    for row in range(n):
        v = np.conj(h[row])
        ref += np.outer(v, np.conj(v))
    assert np.abs(r - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(r, r.conj().T)
    assert np.all(r.diagonal().imag == 0.0)


# ---------------------------------------------------------------------------
# partitioned-inverse steps


def test_block_step_i_block_diagonal_scalar():
    q_bar, q_col, omega = block_inv_step_i(
        np.array([[0.5]], complex), np.array([0.0], complex), 2.0, FlopLedger()
    )
    assert np.allclose(q_bar, [[0.5]])
    assert np.allclose(q_col, [0.0])
    assert omega == pytest.approx(0.5)


def test_block_step_i_block_diagonal_2x2():
    q_bar, q_col, omega = block_inv_step_i(
        np.eye(2, dtype=complex) / 3.0, np.zeros(2, complex), 3.0, FlopLedger()
    )
    assert np.allclose(q_bar, np.eye(2) / 3.0)
    assert np.allclose(q_col, 0.0)
    assert omega == pytest.approx(1.0 / 3.0)


def _assemble(q_bar, q_col, omega):
    k = q_bar.shape[0]
    out = np.empty((k + 1, k + 1), complex)
    out[:k, :k] = q_bar
    out[:k, k] = q_col
    out[k, :k] = np.conj(q_col)
    out[k, k] = omega
    return out


@pytest.mark.parametrize("step", [block_inv_step_i, block_inv_step_v])
def test_block_step_matches_gauss_jordan(step):
    rng = make_rng(7)
    r4 = seeded_spd(rng, 4)
    q3 = gauss_jordan_inverse(r4[:3, :3])
    out = step(q3, r4[:3, 3], r4[3, 3].real, FlopLedger())
    got = _assemble(out[0], out[1], out[2])
    want = gauss_jordan_inverse(r4)
    assert np.abs(got - want).max() <= 1e-10 * 4


def test_block_steps_agree_and_v_returns_q_tilde():
    rng = make_rng(9)
    r = seeded_spd(rng, 4)
    q3 = gauss_jordan_inverse(r[:3, :3])
    bar_i, col_i, om_i = block_inv_step_i(q3, r[:3, 3], r[3, 3].real, FlopLedger())
    bar_v, col_v, om_v, q_tilde = block_inv_step_v(q3, r[:3, 3], r[3, 3].real, FlopLedger())
    scale = np.abs(bar_i).max()
    assert np.abs(bar_i - bar_v).max() <= 1e-12 * scale
    assert np.abs(col_i - col_v).max() <= 1e-12 * np.abs(col_i).max()
    assert om_i == pytest.approx(om_v, rel=1e-12)
    assert np.allclose(q_tilde, q3 @ r[:3, 3])


def test_cross_kernel_equivalence_1000_seeds():
    for trial in range(1000):
        rng = make_rng(1234, trial)
        m = 2 + trial % 15          # sizes 2..16
        r = seeded_spd(rng, m)
        q_prev = gauss_jordan_inverse(r[: m - 1, : m - 1])
        args = (q_prev, r[: m - 1, m - 1], r[m - 1, m - 1].real)
        out_i = block_inv_step_i(*args, FlopLedger())
        out_v = block_inv_step_v(*args, FlopLedger())
        scale = np.abs(out_i[0]).max()
        assert np.abs(out_i[0] - out_v[0]).max() <= 1e-12 * scale
        colscale = max(np.abs(out_i[1]).max(), 1e-300)
        assert np.abs(out_i[1] - out_v[1]).max() <= 1e-12 * colscale
        assert abs(out_i[2] - out_v[2]) <= 1e-12 * abs(out_i[2])


def test_block_step_singular_pivot_names_index():
    # gamma equal to r^H Q r makes the Schur pivot vanish
    q = np.array([[1.0]], complex)
    r_bar = np.array([1.0], complex)
    with pytest.raises(SingularMatrixError, match="recursion index 5"):
        block_inv_step_i(q, r_bar, 1.0, FlopLedger(), step=5)


def assemble_from_public_steps(r, variant, led):
    """The inverse of r grown out of place by block_inv_step_i/v, step by step."""
    step_fn = block_inv_step_i if variant == "i" else block_inv_step_v
    q = np.array([[1.0 / r[0, 0].real]], complex)
    led.tick(cdiv=1)
    for i in range(1, r.shape[0]):
        q_bar, q_col, omega = step_fn(q, r[:i, i], r[i, i].real, led, step=i + 1)[:3]
        grown = np.empty((i + 1, i + 1), complex)
        grown[:i, :i] = q_bar
        grown[:i, i] = q_col
        grown[i, :i] = np.conj(q_col)
        grown[i, i] = omega
        q = grown
    return q


@pytest.mark.parametrize("variant", ["i", "v"])
@pytest.mark.parametrize("m", [1, 2, 5, 17])
def test_init_q_recursive_grows_in_place_like_public_steps(variant, m):
    for seed in range(3):
        r = init_gram(random_complex(make_rng(83, 10 * m + seed), m + seed, m), 0.1, FlopLedger())
        led_in, led_oop = FlopLedger(), FlopLedger()
        q = init_q_recursive(r, led_in, variant=variant)
        assert np.array_equal(q, assemble_from_public_steps(r, variant, led_oop))   # bitwise
        assert led_in == led_oop


@pytest.mark.parametrize("variant", ["i", "v"])
@pytest.mark.parametrize("m", [2, 5, 17, ZHER_MIN_K + 1])
def test_init_q_recursive_singular_border_names_index(variant, m):
    # powers of two keep the Schur pivot of the duplicated last border exactly 0
    r = np.diag(2.0 ** np.arange(m)).astype(complex)
    r[m - 1, :] = r[m - 2, :]
    r[:, m - 1] = r[:, m - 2]
    text = rf"^singular pivot in block_inv_step_{variant} \(recursion index {m}\): \|0\|$"
    with pytest.raises(SingularMatrixError, match=text):
        init_q_recursive(r, FlopLedger(), variant=variant)
    # as the middle trial of a batch of three, the same error; the single
    # buffer's growth raises it too
    stack = np.stack([np.diag(2.0 ** np.arange(m)), r, np.eye(m)]).astype(complex)
    runs = [lambda: init_q_recursive(stack, FlopLedger(), variant=variant)]
    if variant == "v":
        runs.append(lambda: _grow(stack.copy(), m))
    for run in runs:
        with pytest.raises(SingularMatrixError, match=text):
            run()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["i", "v"])
@pytest.mark.parametrize("m", [kernels.JUDGE_ONCE_MIN_STEPS, kernels.JUDGE_ONCE_MIN_STEPS + 1,
                               17, ZHER_MIN_K + 1])
def test_growth_judged_once_is_each_trials_growth(variant, m, monkeypatch):
    """A batch of three growths, below and from ``JUDGE_ONCE_MIN_STEPS`` steps and
    on the BLAS route: each trial's inverse bit for bit as its own growth, one
    trial's charge, and the same bits and charges as judging every step."""
    stack = init_gram(random_complex(make_rng(89, m), 3, m + 2, m), 0.1, FlopLedger())
    out = {}
    for once in (True, False):
        if not once:
            monkeypatch.setattr(kernels, "JUDGE_ONCE_MIN_STEPS", 10**9)
        for how in ("init", "grow"):
            leds = [FlopLedger() for _ in range(4)]
            if how == "init":
                got = [init_q_recursive(r, led, variant) for r, led in zip([stack, *stack], leds)]
            else:
                got = [q.copy() for q in [stack, *stack]]
                for q, led in zip(got, leds):
                    _grow_inverse(q, m, led, variant, kernels._bind(q))
                    if _on_blas(m):
                        kernels._mirror(q)
            for t in range(3):
                assert got[0][t].tobytes() == got[t + 1].tobytes()
                assert leds[0] == leds[t + 1]
            out[once, how] = got[0].tobytes(), leds[0]
    assert out[True, "init"] == out[False, "init"] == out[True, "grow"] == out[False, "grow"]


@pytest.mark.parametrize("m", [3, ZHER_MIN_K + 1])
@pytest.mark.parametrize("lead, text", [
    (0.0, "singular pivot in init_q_recursive leading entry: |0|"),
    (-1.0, "singular pivot in init_q_recursive leading entry: |-1|"),
    (np.inf, "init_q_recursive leading entry: pivot is not finite"),
])
def test_grow_inverse_leading_entry_errors(m, lead, text):
    """A leading entry that is not positive and finite fails the growth's step 0, with
    the same text in either variant, for one trial and as the middle trial of a batch
    of three; a finite one fails ``init_q_recursive`` the same way."""
    good = 2.0 * np.eye(m, dtype=complex)
    bad = good.copy()
    bad[0, 0] = lead
    stack = np.stack([good, bad, good])
    runs = []
    for variant in ("i", "v"):
        runs += [lambda v=variant: _grow(bad.copy(), m, v),
                 lambda v=variant: _grow(stack.copy(), m, v)]
        if np.isfinite(lead):
            runs += [lambda v=variant: init_q_recursive(bad, FlopLedger(), v),
                     lambda v=variant: init_q_recursive(stack, FlopLedger(), v)]
    for run in runs:
        with pytest.raises(SingularMatrixError, match=f"^{re.escape(text)}$"):
            run()


def test_init_chain_division_counts():
    rng = make_rng(11)
    r = seeded_spd(rng, 8)
    led_v = FlopLedger()
    init_q_recursive(r, led_v, variant="v")
    led_i = FlopLedger()
    init_q_recursive(r, led_i, variant="i")
    assert led_v.cdiv == 8                 # one per growth step incl. the 1x1 start
    assert led_i.cdiv == 3 * 7 + 1         # three per step after the 1x1 start
    assert led_i.cdiv >= 2 * 8 - 1


def test_init_chain_dominant_charges():
    m = 32
    rng = make_rng(3)
    r = seeded_spd(rng, m)
    led_i = FlopLedger()
    init_q_recursive(r, led_i, variant="i")
    led_v = FlopLedger()
    init_q_recursive(r, led_v, variant="v")
    assert abs(led_i.cmul - 5 / 6 * m**3) / (5 / 6 * m**3) < 0.10
    assert abs(led_v.cmul - m**3 / 2) / (m**3 / 2) < 0.10


# ---------------------------------------------------------------------------
# rank-one inverse update


def test_sm_zero_vector_noop():
    out = sm_rank1_inverse_update(np.eye(2, dtype=complex), np.zeros(2, complex), FlopLedger())
    assert np.allclose(out, np.eye(2))


def test_sm_scalar_case():
    out = sm_rank1_inverse_update(np.array([[1.0]], complex), np.array([1.0], complex), FlopLedger())
    assert np.allclose(out, [[0.5]])


def test_sm_row_sweep_matches_gauss_jordan():
    rng = make_rng(21)
    h = random_complex(rng, 6, 4)          # 6 receive rows, 4 streams
    alpha = 0.1
    q = np.eye(4, dtype=complex) / alpha
    led = FlopLedger()
    for row in range(6):
        q = sm_rank1_inverse_update(q, np.conj(h[row]), led)
    want = gauss_jordan_inverse(h.conj().T @ h + alpha * np.eye(4))
    assert np.abs(q - want).max() <= 1e-10
    assert herm_err(q) < 1e-12


def test_sm_triangle_mode_dominant_charge():
    m = n = 64
    rng = make_rng(2)
    h = random_complex(rng, n, m)
    led = FlopLedger()
    init_q_sherman_morrison(h, 0.1, led, triangle_only=True)
    target = 1.5 * m * m * n
    assert abs(led.cmul - target) / target < 0.05


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_sm_init_needs_positive_alpha(alpha):
    h = random_complex(make_rng(3), 3, 2)
    with pytest.raises(ContractViolationError) as info:
        init_q_sherman_morrison(h, alpha, FlopLedger())
    assert str(info.value) == "init_q_sherman_morrison needs alpha > 0"


def test_sm_denominator_underflow():
    with pytest.raises(SingularMatrixError):
        sm_rank1_inverse_update(-np.eye(1, dtype=complex), np.array([1.0], complex), FlopLedger())


# ---------------------------------------------------------------------------
# deflation


def test_deflate_diagonal():
    out = deflate_q(np.diag([0.5, 0.25]).astype(complex), FlopLedger())
    assert np.allclose(out, [[0.5]])


def test_deflate_identity():
    out = deflate_q(np.eye(3, dtype=complex), FlopLedger())
    assert np.allclose(out, np.eye(2))


def test_deflate_matches_gauss_jordan():
    rng = make_rng(23)
    r4 = seeded_spd(rng, 4)
    q4 = gauss_jordan_inverse(r4)
    got = deflate_q(q4, FlopLedger())
    want = gauss_jordan_inverse(r4[:3, :3])
    assert np.abs(got - want).max() <= 1e-9
    assert herm_err(got) < 1e-12


def test_deflate_sm_same_contract():
    rng = make_rng(29)
    r4 = seeded_spd(rng, 4)
    q4 = gauss_jordan_inverse(r4)
    got = deflate_q_sm(q4, r4[:3, 3], r4[3, 3].real, FlopLedger())
    want = gauss_jordan_inverse(r4[:3, :3])
    assert np.abs(got - want).max() <= 1e-9
    # trivial cases through the border route
    assert np.allclose(
        deflate_q_sm(np.diag([0.5, 0.25]).astype(complex), np.array([0j]), 4.0, FlopLedger()),
        [[0.5]],
    )
    assert np.allclose(
        deflate_q_sm(np.eye(3, dtype=complex), np.zeros(2, complex), 1.0, FlopLedger()),
        np.eye(2),
    )


def test_deflation_equivalence_on_consistent_inputs():
    for trial in range(50):
        rng = make_rng(31, trial)
        m = 3 + trial % 6
        r = seeded_spd(rng, m)
        q = gauss_jordan_inverse(r)
        a = deflate_q(q, FlopLedger())
        b = deflate_q_sm(q, r[: m - 1, m - 1], r[m - 1, m - 1].real, FlopLedger())
        assert np.abs(a - b).max() <= 1e-11 * np.abs(a).max()


def test_deflate_sm_charges_more():
    rng = make_rng(37)
    r = seeded_spd(rng, 6)
    q = gauss_jordan_inverse(r)
    led_a, led_b = FlopLedger(), FlopLedger()
    deflate_q(q, led_a)
    deflate_q_sm(q, r[:5, 5], r[5, 5].real, led_b)
    assert led_b.cmul > led_a.cmul


def test_deflate_nonpositive_omega():
    q = np.eye(2, dtype=complex)
    q[1, 1] = 0.0
    with pytest.raises(SingularMatrixError,
                       match=r"^singular pivot in deflation omega \(recursion index 2\): \|0\|$"):
        deflate_q(q, FlopLedger())


def test_check_omega_one_trial_and_batch_raise_alike():
    """A deflation's omega is a pivot of its own scale: a batch raises its
    first failing trial's error, as that trial's float does."""
    assert _check_pivot(0.5, 0.5, "deflation omega", 3) == 0.5
    with pytest.raises(SingularMatrixError) as one:
        _check_pivot(-0.25, -0.25, "deflation omega", 3)
    assert str(one.value) == "singular pivot in deflation omega (recursion index 3): |-0.25|"
    ok = np.array([[0.5], [2.0]], complex)
    assert _check_pivot(ok, ok, "deflation omega", 3).tolist() == [[0.5], [2.0]]
    bad = np.array([[0.5], [-0.25], [0.0]], complex)
    with pytest.raises(SingularMatrixError) as batch:
        _check_pivot(bad, bad, "deflation omega", 3)
    assert str(batch.value) == str(one.value)


def test_batch_raises_first_failing_trials_error_whatever_the_check():
    """Each trial is judged as a number, in trial order: a batch whose trial 0
    fails one check and trial 1 another raises trial 0's error."""
    two = np.array([[0], [1 + 1j]])
    with pytest.raises(SingularMatrixError) as info:
        _check_pivot(two, None, "deflation omega", 3)
    assert str(info.value) == "singular pivot in deflation omega (recursion index 3): |0|"
    for x, want in (([[np.nan], [1 + 1j]], "pivot is not finite"),
                    ([[1 + 1j], [np.nan]], "pivot (1+1j) has a non-negligible imaginary part")):
        with pytest.raises(ContractViolationError) as info:
            real_pivot(np.array(x), "init_gram alpha", 3)
        assert str(info.value) == f"init_gram alpha (recursion index 3): {want}"


def test_nan_imaginary_part_is_not_finite():
    """A pivot whose imaginary part is NaN fails as not finite, typed by the
    caller's error, for one trial and in a batch; an infinite imaginary part
    keeps its own text."""
    nan_pivot = complex(2.0, np.nan)
    with pytest.raises(ContractViolationError) as one:
        real_pivot(nan_pivot, "init_gram alpha", 3)
    assert str(one.value) == "init_gram alpha (recursion index 3): pivot is not finite"
    with pytest.raises(ContractViolationError) as batch:
        real_pivot(np.array([[1.0], [nan_pivot]]), "init_gram alpha", 3)
    assert str(batch.value) == str(one.value)
    for x in (nan_pivot, np.array([[0.5], [nan_pivot], [-1.0]])):
        with pytest.raises(SingularMatrixError) as info:
            _check_pivot(x, None, "deflation omega", 3)
        assert str(info.value) == "deflation omega (recursion index 3): pivot is not finite"
    with pytest.raises(ContractViolationError) as inf:
        real_pivot(complex(2.0, np.inf), "init_gram alpha")
    assert str(inf.value) == "init_gram alpha: pivot (2+infj) has a non-negligible imaginary part"


# ---------------------------------------------------------------------------
# Gauss-Jordan oracle


def test_gj_identity_and_diagonal():
    assert np.allclose(gauss_jordan_inverse(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(
        gauss_jordan_inverse(np.diag([2.0, 4.0]).astype(complex)), np.diag([0.5, 0.25])
    )


def test_gj_residual_self_check():
    rng = make_rng(43)
    a = seeded_spd(rng, 5)
    inv = gauss_jordan_inverse(a)
    resid = np.abs(a @ inv - np.eye(5)).max()
    assert resid <= 1e-10


def test_gj_singular():
    with pytest.raises(SingularMatrixError):
        gauss_jordan_inverse(np.ones((3, 3), complex))


def test_gj_partial_pivoting_handles_zero_leading_entry():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
    assert np.allclose(gauss_jordan_inverse(a), a)


@pytest.mark.parametrize("count", [1, 3, 7])
def test_gj_stack_equals_each_matrix_call(count):
    """Each matrix of a stack is inverted bit for bit as by its own call.
    Non-Hermitian matrices make partial pivoting swap rows, each matrix its own."""
    rng = make_rng(61, count)
    swapped = 0
    for n in range(1, 17):
        a = random_complex(rng, count, n, n)
        stack = gauss_jordan_inverse(a)
        assert stack.shape == (count, n, n)
        for t in range(count):
            assert stack[t].tobytes() == gauss_jordan_inverse(a[t]).tobytes(), (n, t)
            swapped += int(np.abs(a[t, :, 0]).argmax() != 0)
    assert swapped >= count


@pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.ones((3, 3))], ids=["zero", "singular"])
def test_gj_stack_raises_its_failing_matrix_error(bad):
    bad = bad.astype(complex)
    rng = make_rng(62)
    stack = np.stack([seeded_spd(rng, 3), bad, seeded_spd(rng, 3)])
    with pytest.raises(SingularMatrixError) as alone:
        gauss_jordan_inverse(bad)
    with pytest.raises(SingularMatrixError) as info:
        gauss_jordan_inverse(stack)
    assert str(info.value) == str(alone.value)


# ---------------------------------------------------------------------------
# initializer-path invariants


@pytest.mark.parametrize("alpha", [1e-3, 1e-1, 1.0])
def test_inverse_pair_property_all_paths(alpha):
    from vblast.detectors import _cover_gram_rows

    sizes = [(1, 1), (2, 4), (5, 5), (8, 12), (16, 16), (24, 32), (32, 32), (33, 35), (64, 64)]
    for idx, (m, n) in enumerate(sizes):
        rng = make_rng(47, idx)
        h = random_complex(rng, n, m) / np.sqrt(2.0)
        r_exact = h.conj().T @ h + alpha * np.eye(m)
        led = FlopLedger()
        r = init_gram(h, alpha, led)
        assert np.abs(r - r_exact).max() <= 1e-12 * np.abs(r_exact).max()
        buf = h.conj().T.copy()
        _cover_gram_rows(buf, alpha, FlopLedger())
        _grow(buf[:, :m], m)
        # the single buffer's Q is its upper triangle: from ZHER_MIN_K rows on, the
        # BLAS route never writes the strict lower one
        grown = np.triu(buf[:, :m]) + np.triu(buf[:, :m], 1).conj().T
        for q in (
            init_q_sherman_morrison(h, alpha, FlopLedger()),
            init_q_recursive(r, FlopLedger(), variant="i"),
            init_q_recursive(r, FlopLedger(), variant="v"),
            grown,
        ):
            resid = np.abs(q @ r_exact - np.eye(m)).max()
            assert resid <= 1e-10 * m
            assert herm_err(q) <= 1e-12


def test_hermitian_closure_of_kernel_outputs():
    rng = make_rng(53)
    r = seeded_spd(rng, 6)
    q5 = gauss_jordan_inverse(r[:5, :5])
    bar_v, _, _, _ = block_inv_step_v(q5, r[:5, 5], r[5, 5].real, FlopLedger())
    bar_i, _, _ = block_inv_step_i(q5, r[:5, 5], r[5, 5].real, FlopLedger())
    q6 = gauss_jordan_inverse(r)
    for x in (bar_v, bar_i, deflate_q(q6, FlopLedger()), init_q_recursive(r, FlopLedger())):
        assert herm_err(x) <= 1e-12


def test_ledger_determinism_and_merge():
    rng = make_rng(59)
    r = seeded_spd(rng, 7)
    led1, led2 = FlopLedger(), FlopLedger()
    init_q_recursive(r, led1, variant="v")
    init_q_recursive(r, led2, variant="v")
    assert led1 == led2
    merged = led1.copy().merge(led2)
    assert merged.as_tuple() == tuple(2 * x for x in led1.as_tuple())


def test_packed_roundtrip():
    rng = make_rng(61)
    a = seeded_spd(rng, 5)
    hp = HermPacked.pack(a)
    assert np.abs(hp.unpack() - a).max() < 1e-15
    assert np.allclose(hp.diagonal(), np.diag(a).real)
    assert np.abs(hp.unpack(3) - a[:3, :3]).max() < 1e-15
    # a numpy integer is an integer; 1 and dim are the ends of the range
    assert hp.unpack(np.int64(3)).tobytes() == hp.unpack(3).tobytes()
    assert hp.diagonal(np.int32(2)).tobytes() == hp.diagonal()[:2].tobytes()
    assert hp.unpack(1).shape == (1, 1) and hp.diagonal(5).shape == (5,)


def test_packed_rejects_complex_diagonal():
    bad = np.eye(2, dtype=complex)
    bad[1, 1] = 1 + 1e-6j
    with pytest.raises(ContractViolationError):
        HermPacked.pack(bad)


@pytest.mark.parametrize("k", [-60, 0, 60])
def test_packed_diagonal_check_is_scale_free(k):
    """A diagonal entry is judged against its own real part: a product
    B B^H packs at any scale, rounding-level imaginary parts and all, and an
    imaginary part of 1e-6 of its entry fails at any scale."""
    b = 2.0**k * random_complex(make_rng(67), 6, 6)
    a = b @ b.conj().T
    assert np.abs(HermPacked.pack(a).unpack() - a).max() <= 1e-15 * np.abs(a).max()
    noisy = a.copy()
    noisy[np.diag_indices(6)] += 1e-14j * a.diagonal().real
    HermPacked.pack(noisy)
    bad = a.copy()
    bad[3, 3] += 1e-6j * a[3, 3].real
    with pytest.raises(ContractViolationError, match="^packed diagonal is not real$"):
        HermPacked.pack(bad)


@pytest.mark.parametrize("call, text", [
    (lambda led: init_gram(np.zeros((1, 2, 2, 2)), 1.0, led),
     "h must be 2-D, got shape (1, 2, 2, 2)"),
    (lambda led: herm_rank1_update(np.eye(2), np.ones((2, 1)), 1.0, True, led),
     "v must be 1-D and non-empty, got shape (2, 1)"),
    (lambda led: herm_rank1_update(np.eye(2), np.array([1.0, np.nan]), 1.0, True, led),
     "v contains NaN or Inf"),
    (lambda led: herm_rank1_update(np.eye(2), np.ones(3), 1.0, True, led),
     "herm_rank1_update: a is (2, 2), v has length 3"),
    (lambda led: herm_rank1_update(np.eye(2), np.ones(2), "x", True, led),
     "herm_rank1_update alpha: expected a number, got str"),
    (lambda led: herm_rank1_update(np.eye(2), np.ones(2), None, True, led),
     "herm_rank1_update alpha: expected a number, got NoneType"),
    (lambda led: herm_rank1_update(np.eye(2), np.ones(2), np.array([]), True, led),
     "herm_rank1_update alpha: expected a number, got ndarray"),
    (lambda led: block_inv_step_v(np.eye(2), np.ones(3), 1.0, led),
     "block_inv_step_v: q_prev is (2, 2), r_bar has length 3"),
    (lambda led: block_inv_step_v(np.eye(2), np.ones(2), "g", led),
     "block_inv_step_v gamma: expected a number, got str"),
    (lambda led: sm_rank1_inverse_update(np.eye(2), np.ones(3), led),
     "sm_rank1_inverse_update: q is (2, 2), h has length 3"),
    (lambda led: deflate_q_sm(np.eye(3), np.ones(3), 1.0, led),
     "deflate_q_sm: q_m is (3, 3), r_bar has length 3"),
    (lambda led: deflate_q_sm(np.eye(3), np.ones(3)[:2], [1, 2], led),
     "deflate_q_sm gamma: expected a number, got list"),
    (lambda led: init_gram(np.eye(2), "a", led), "init_gram alpha: expected a number, got str"),
    (lambda led: deflate_q(np.eye(1), led),
     "deflate_q needs a square matrix of dim >= 2, got (1, 1)"),
    (lambda led: init_q_recursive(np.ones((2, 3)), led),
     "init_q_recursive needs a square matrix"),
    (lambda led: init_q_recursive(np.eye(2), led, variant="x"), "unknown variant 'x'"),
    (lambda led: init_q_recursive(np.zeros((0, 0)), led), "r must be non-empty, got shape (0, 0)"),
    (lambda led: gauss_jordan_inverse(np.ones((2, 3))), "cannot invert non-square matrix (2, 3)"),
    (lambda led: gauss_jordan_inverse(np.zeros((0, 0))), "a must be non-empty, got shape (0, 0)"),
    (lambda led: HermPacked(2, np.zeros(4, complex)),
     "packed storage for dim 2 needs 3 entries, got (4,)"),
    (lambda led: HermPacked(2, np.array([1, np.nan, 1], complex)),
     "packed storage contains NaN or Inf"),
    (lambda led: HermPacked(2, np.array([complex(1, np.nan), 0, 1])),
     "packed storage contains NaN or Inf"),
    (lambda led: HermPacked(2, np.array([np.inf, 0, 1], complex)),
     "packed storage contains NaN or Inf"),
    (lambda led: HermPacked(-2, np.zeros(1)), "HermPacked: dim must be an integer >= 1, got -2"),
    (lambda led: HermPacked(-1, np.zeros(0)), "HermPacked: dim must be an integer >= 1, got -1"),
    (lambda led: HermPacked(0, np.zeros(0)), "HermPacked: dim must be an integer >= 1, got 0"),
    (lambda led: HermPacked(2.0, np.ones(3)), "HermPacked: dim must be an integer >= 1, got 2.0"),
    (lambda led: HermPacked(True, np.ones(1)),
     "HermPacked: dim must be an integer >= 1, got True"),
    (lambda led: HermPacked(2, np.array(["a"])),
     "HermPacked: upper must be an array of numbers, got ndarray"),
    (lambda led: HermPacked(2, [1, [0], 1]),
     "HermPacked: upper must be an array of numbers, got list"),
    (lambda led: HermPacked(2, [10**400, 0, 1]),
     "HermPacked: upper must be an array of numbers, got list"),
    (lambda led: HermPacked(2, np.ones((3, 1))),
     "packed storage for dim 2 needs 3 entries, got (3, 1)"),
    (lambda led: HermPacked.pack(np.ones((2, 3))), "can only pack a square matrix"),
    (lambda led: HermPacked.pack(np.eye(3)).unpack(5),
     "HermPacked.unpack: m must be an integer in 1..3, got 5"),
    (lambda led: HermPacked.pack(np.eye(3)).unpack(-1),
     "HermPacked.unpack: m must be an integer in 1..3, got -1"),
    (lambda led: HermPacked.pack(np.eye(3)).unpack(2.0),
     "HermPacked.unpack: m must be an integer in 1..3, got 2.0"),
    (lambda led: HermPacked.pack(np.eye(3)).diagonal(4),
     "HermPacked.diagonal: m must be an integer in 1..3, got 4"),
    (lambda led: HermPacked.pack(np.eye(3)).diagonal(0),
     "HermPacked.diagonal: m must be an integer in 1..3, got 0"),
    (lambda led: HermPacked.pack(np.eye(3)).diagonal(True),
     "HermPacked.diagonal: m must be an integer in 1..3, got True"),
    (lambda led: init_gram(np.ones((2, 2)), -1.0, led), "init_gram needs alpha > 0"),
    (lambda led: init_gram(np.ones((3, 2, 2)), np.array([[0.1], [0.0], [0.1]]), led),
     "init_gram needs alpha > 0"),
])
def test_kernel_input_checks_name_the_misuse(call, text):
    """Each shape or value check on a kernel's arguments raises misuse, with its text,
    and charges nothing."""
    led = FlopLedger()
    with pytest.raises(ContractViolationError) as info:
        call(led)
    assert str(info.value) == text
    assert led.as_tuple() == (0, 0, 0)


def test_herm_packed_converts_its_entries_to_complex():
    """A list or an int array of entries is stored as a complex vector, and an
    integer-typed dim as an int."""
    want = np.array([[1, 2], [2, 5]], complex)
    for upper in ([1, 2, 5], np.array([1, 2, 5])):
        hp = HermPacked(np.int64(2), upper)
        assert type(hp.dim) is int and hp.upper.dtype == np.complex128
        assert hp.unpack().dtype == np.complex128
        assert np.array_equal(hp.unpack(), want)


@pytest.mark.parametrize("call, text", [
    (lambda led: block_inv_step_i(1e300 * np.eye(2), np.full(2, 1e300), 1e300, led),
     "block_inv_step_i: pivot is not finite"),
    (lambda led: block_inv_step_v(1e300 * np.eye(2), np.full(2, 1e300), 1e300, led),
     "block_inv_step_v: pivot is not finite"),
    (lambda led: sm_rank1_inverse_update(1e300 * np.eye(2), np.full(2, 1e300), led),
     "sm_rank1_inverse_update: pivot is not finite"),
    (lambda led: deflate_q_sm(1e300 * np.eye(3), np.full(2, 1e300), 1e300, led),
     "deflate_q_sm: pivot is not finite"),
    (lambda led: init_gram(np.full((2, 2), 1e300), 1.0, led),
     "init_gram: H^H H + alpha I is not finite"),
    (lambda led: init_q_sherman_morrison(np.full((3, 2), 1e300), 1e-300, led),
     "sm_rank1_inverse_update: pivot is not finite"),
    (lambda led: herm_rank1_update(np.eye(2), np.full(2, 1e200), 1e200, True, led),
     "herm_rank1_update: result is not finite"),
    (lambda led: herm_rank1_update(np.eye(2), np.full(2, 1e200), 1e200, False, led),
     "herm_rank1_update: result is not finite"),
    (lambda led: deflate_q([[1e300, 1e300], [1e300, 1e-300]], led),
     "deflate_q: result is not finite"),
    # a pivot of subnormal size passes the relative test, and its reciprocal overflows
    (lambda led: block_inv_step_v(1e-160 * np.eye(2), np.full(2, 1e-320), 1e-310, led),
     "block_inv_step_v: result is not finite"),
    (lambda led: deflate_q_sm(1e-160 * np.eye(3), np.full(2, 1e-320), 1e-310, led),
     "deflate_q_sm: result is not finite"),
    (lambda led: gauss_jordan_inverse(1e-310 * np.eye(2)),
     "gauss_jordan_inverse: result is not finite"),
])
def test_public_kernels_overflow_into_typed_errors(call, text):
    """Finite operands whose arithmetic overflows end in SingularMatrixError, with no
    numpy floating-point warning and no non-finite result."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrixError, match=f"^{re.escape(text)}$"):
            call(FlopLedger())


def test_caller_supplied_pivots_keep_contract_errors():
    """A non-real value passed by the caller is misuse; a pivot the recursion
    computes is not (see test_original_non_real_pivot_is_a_numerical_failure)."""
    led = FlopLedger()
    with pytest.raises(ContractViolationError, match="alpha"):
        herm_rank1_update(np.eye(2), np.ones(2), 1 + 1j, True, led)
    with pytest.raises(ContractViolationError, match="gamma"):
        block_inv_step_v(np.eye(2), np.ones(2), 3 + 1j, led)
    with pytest.raises(ContractViolationError, match="gamma"):
        deflate_q_sm(np.eye(3, dtype=complex), np.ones(2), 2 + 1j, led)
    with pytest.raises(ContractViolationError, match="alpha"):
        init_gram(np.eye(2), 0.1 + 1j, led)


def _not_numbers(shape):
    """Operands of ``shape`` that hold no numbers, although numpy converts most
    of them to complex: digit strings, a string, a dict, a digit string or None
    in an object array, and durations."""
    def with_entry(entry):
        a = np.ones(shape, object)
        a.flat[0] = entry
        return a

    return [np.full(shape, "1"), "x", with_entry({}), with_entry("1"), with_entry(None),
            np.ones(shape, "m8[s]")]


_EYE, _ONES = np.eye(2), np.ones(2)


@pytest.mark.parametrize("name, call, shape", [
    ("h", lambda b, led: init_gram(b, 0.1, led), (2, 2)),
    ("h", lambda b, led: init_q_sherman_morrison(b, 0.1, led), (2, 2)),
    ("r", lambda b, led: init_q_recursive(b, led), (2, 2)),
    ("a", lambda b, led: gauss_jordan_inverse(b), (2, 2)),
    ("q_m", lambda b, led: deflate_q(b, led), (2, 2)),
    ("q_m", lambda b, led: deflate_q_sm(b, _ONES[:1], 1.0, led), (2, 2)),
    ("r_bar", lambda b, led: deflate_q_sm(_EYE, b, 1.0, led), (1,)),
    ("a", lambda b, led: herm_rank1_update(b, _ONES, 1.0, True, led), (2, 2)),
    ("v", lambda b, led: herm_rank1_update(_EYE, b, 1.0, False, led), (2,)),
    ("q_prev", lambda b, led: block_inv_step_i(b, _ONES, 1.0, led), (2, 2)),
    ("r_bar", lambda b, led: block_inv_step_v(_EYE, b, 1.0, led), (2,)),
    ("q", lambda b, led: sm_rank1_inverse_update(b, _ONES, led), (2, 2)),
    ("h", lambda b, led: sm_rank1_inverse_update(_EYE, b, led), (2,)),
    ("matrix", lambda b, led: HermPacked.pack(b), (2, 2)),
])
def test_public_kernels_take_only_numbers(name, call, shape):
    """Every public kernel takes its matrix and vector operands by the detectors'
    rule (``kernels._complex``): an operand that holds no numbers is misuse naming
    it, never a result, a raw numpy error or a charge."""
    for bad in _not_numbers(shape):
        led = FlopLedger()
        with pytest.raises(ContractViolationError) as info:
            call(bad, led)
        assert str(info.value) == f"{name} must hold real or complex numbers", bad
        assert led.as_tuple() == (0, 0, 0)


def test_herm_packed_takes_only_numbers():
    for bad in _not_numbers((3,)):
        with pytest.raises(ContractViolationError) as info:
            HermPacked(2, bad)
        assert str(info.value) == ("HermPacked: upper must be an array of numbers, got "
                                   f"{type(bad).__name__}")


def test_one_matrix_binding_is_a_stack_bindings_row():
    """A binding of one square makes one BLAS call per operation, without the
    stack's per-trial lists: its ``hemv`` (``zhemv``) and ``her`` (``zher``)
    give, bit for bit, row 0 of a two-square stack binding whose first square
    is the same."""
    if kernels._zher() is None:
        pytest.skip("no BLAS zher/zhemv in this numpy")
    dim, k = ZHER_MIN_K + 8, ZHER_MIN_K + 5
    rng = make_rng(71)
    stack = np.stack([seeded_spd(rng, dim), seeded_spd(rng, dim)])
    one = stack[0].copy()
    b1, bs = (kernels._bind(a) for a in (one, stack))
    assert b1.single and not bs.single
    for x1, xs in ((b1.col(k), bs.col(k)), (b1.stage(stack[0, 1, :k]), bs.stage(stack[:, 1, :k]))):
        assert b1.hemv(k, x1).tobytes() == bs.hemv(k, xs)[0].tobytes()
    x = random_complex(rng, 2, k)
    b1.her(k, b1.stage(x[0]), -0.7)
    bs.her(k, bs.stage(x), np.array([[-0.7], [1.3]]))
    assert one.tobytes() == stack[0].tobytes()
    b1.her(k, b1.stage(x[1]), 0.25)
    bs.her(k, bs.stage(x[::-1]), 0.25)      # one alpha for every matrix of the stack
    assert one.tobytes() == stack[0].tobytes()
