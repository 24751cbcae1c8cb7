"""Channel, noise, constellation and bit-mapping contracts."""

import pickle

import numpy as np
import pytest

from vblast.errors import ContractViolationError
from vblast.sigmodel import (
    ChannelRealization,
    Constellation,
    constellation,
    demap,
    draw_channel,
    frame_from_bits,
    make_rng,
    quantize,
    random_frame,
    sigma_n2_for_snr_db,
    transmit,
)


def test_scalar_channel_reproducible():
    a = draw_channel(1, 1, 7)
    b = draw_channel(1, 1, 7)
    assert a.h[0, 0] == b.h[0, 0]


def test_channel_seed_determinism():
    a = draw_channel(4, 4, 1)
    b = draw_channel(4, 4, 1)
    assert np.array_equal(a.h, b.h)
    c = draw_channel(4, 4, 2)
    assert not np.array_equal(a.h, c.h)


def test_channel_entry_statistics():
    draws = 30000
    acc = np.zeros((2, 2))
    mean = np.zeros((2, 2), complex)
    for t in range(draws):
        h = draw_channel(2, 2, 99, stream=t).h
        acc += np.abs(h) ** 2
        mean += h
    var = acc / draws
    assert np.all(np.abs(var - 1.0) < 0.02)
    assert np.all(np.abs(mean / draws) < 0.02)


def test_channel_rejects_bad_dims():
    with pytest.raises(ContractViolationError):
        draw_channel(3, 2, 1)
    with pytest.raises(ContractViolationError):
        ChannelRealization(np.zeros((2, 2), complex), 2, 3)


def test_transmit_noiseless_identity():
    c = constellation("qpsk")
    ch = ChannelRealization(np.eye(2, dtype=complex), 2, 2)
    frame = frame_from_bits([0, 0, 1, 1], c)
    rx = transmit(frame, ch, 0.0, 1)
    assert np.array_equal(rx.x, frame.s)
    assert rx.alpha == 0.0


def test_transmit_zero_symbols():
    c = constellation("qpsk")
    ch = draw_channel(2, 3, 5)
    frame = frame_from_bits([0, 0, 0, 0], c)
    zero = type(frame)(np.zeros(2, complex), frame.bits, c)
    rx = transmit(zero, ch, 0.0, 1)
    assert np.all(rx.x == 0)


def test_transmit_noise_variance_monte_carlo():
    c = constellation("qpsk")
    ch = draw_channel(2, 2, 3)
    frame = random_frame(2, c, 3, stream=1)
    clean = ch.h @ frame.s
    sigma = 0.37
    total = 0.0
    frames = 100_000
    for t in range(frames):
        rx = transmit(frame, ch, sigma, 3, stream=t + 10)
        total += np.sum(np.abs(rx.x - clean) ** 2)
    est = total / (frames * ch.n)
    assert abs(est - sigma) / sigma < 0.02


def test_transmit_rejects_negative_noise():
    c = constellation("qpsk")
    ch = draw_channel(2, 2, 1)
    frame = random_frame(2, c, 1)
    with pytest.raises(ContractViolationError):
        transmit(frame, ch, -1.0, 1)


def test_alpha_consistency_and_override():
    c = constellation("qpsk")
    ch = draw_channel(2, 2, 1)
    frame = random_frame(2, c, 1)
    rx = transmit(frame, ch, 0.25, 1)
    assert abs(rx.alpha - 0.25 / c.symbol_energy) <= 1e-12
    rx2 = transmit(frame, ch, 0.0, 1, alpha=1e-6)
    assert rx2.alpha == 1e-6 and rx2.sigma_n2 == 0.0


def test_quantize_nearest_quadrant():
    c = constellation("qpsk")
    assert quantize(0.9 + 0.8j, c) == pytest.approx((1 + 1j) / np.sqrt(2))


def test_quantize_exact_point():
    c = constellation("qpsk")
    for p in c.points:
        assert quantize(complex(p), c) == complex(p)


def test_quantize_tie_breaks_to_first_point():
    c = constellation("qpsk")
    assert quantize(0.0, c) == complex(c.points[0])


def test_empty_bits_rejected():
    c = constellation("qpsk")
    with pytest.raises(ContractViolationError):
        frame_from_bits([], c)
    with pytest.raises(ContractViolationError):
        frame_from_bits([0, 1, 0], c)  # not a multiple of bits/symbol


def test_all_zero_bits_map_to_first_point():
    c = constellation("qpsk")
    frame = frame_from_bits([0] * 8, c)
    assert np.all(frame.s == c.points[0])


@pytest.mark.parametrize("cname", ["qpsk", "qam16"])
def test_bits_roundtrip_random(cname):
    c = constellation(cname)
    rng = make_rng(77)
    nbits = 10_000 - 10_000 % c.bits_per_symbol
    bits = rng.integers(0, 2, size=nbits, dtype=np.uint8)
    frame = frame_from_bits(bits, c)
    assert np.array_equal(demap(frame.s, c), bits)


def test_constellation_energy_and_distinctness():
    for name in ("qpsk", "qam16"):
        c = constellation(name)
        assert abs(np.mean(np.abs(c.points) ** 2) - c.symbol_energy) <= 1e-12
        assert len(np.unique(c.points)) == len(c.points)


def test_constellation_fails_closed():
    """A non-finite point, a NaN declared energy or a repeated point is misuse
    naming the constellation."""
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    unit = np.array([1, -1, 1j, -1j], dtype=np.complex128)
    for pts, energy in ((np.array([np.nan, 1, -1, 1j]), 1.0),
                        (np.array([np.inf, 1, -1, 1j]), 1.0),
                        (np.array([complex(1, np.nan), 1, -1, 1j]), 1.0),
                        (unit, np.nan),
                        (np.array([1, -1, 1j, 1j], dtype=np.complex128), 1.0)):
        with pytest.raises(ContractViolationError, match="constellation bad"):
            Constellation("bad", pts, energy, 2, labels)
    assert Constellation("good", unit, 1.0, 2, labels).points is unit


def test_snr_helper():
    assert sigma_n2_for_snr_db(0.0) == pytest.approx(1.0)
    assert sigma_n2_for_snr_db(10.0) == pytest.approx(0.1)
    assert sigma_n2_for_snr_db(float("inf")) == 0.0


@pytest.mark.parametrize("call, text", [
    (lambda: ChannelRealization(np.ones((1, 2)), 2, 1), "need N >= M >= 1, got N=1, M=2"),
    (lambda: ChannelRealization(np.ones((2, 2)), "2", 2),
     "channel dimension M must be an integer >= 1, got '2'"),
    (lambda: ChannelRealization(np.ones((2, 2)), 2.0, 2.0),
     "channel dimension M must be an integer >= 1, got 2.0"),
    (lambda: ChannelRealization(np.ones((2, 2)), 2, 2.0),
     "channel dimension N must be an integer >= 1, got 2.0"),
    (lambda: ChannelRealization(np.ones((1, 1)), True, 1),
     "channel dimension M must be an integer >= 1, got True"),
    (lambda: ChannelRealization(np.ones((1, 1)), 1, True),
     "channel dimension N must be an integer >= 1, got True"),
    (lambda: ChannelRealization(np.ones((2, 0)), 0, 2),
     "channel dimension M must be an integer >= 1, got 0"),
    (lambda: ChannelRealization(np.ones((3, 2)), 2, 2), "channel matrix shape (3, 2) != (2, 2)"),
    (lambda: ChannelRealization(np.array([[np.nan]]), 1, 1), "channel matrix contains NaN or Inf"),
    (lambda: ChannelRealization(np.array([[None]]), 1, 1),
     "channel matrix must hold real or complex numbers"),
    (lambda: ChannelRealization([[1.0]], 1, 1), "channel matrix must be a numpy array, got list"),
    (lambda: ChannelRealization(np.array([["1"]]), 1, 1),
     "channel matrix must hold real or complex numbers"),
    (lambda: ChannelRealization(np.array([["1"]], object), 1, 1),
     "channel matrix must hold real or complex numbers"),
    (lambda: ChannelRealization(np.array([[{}]]), 1, 1),
     "channel matrix must hold real or complex numbers"),
    (lambda: ChannelRealization(np.ones((1, 1), "m8[s]"), 1, 1),
     "channel matrix must hold real or complex numbers"),
    (lambda: random_frame(0, constellation("qpsk"), 1), "need at least one transmit symbol"),
    (lambda: transmit(random_frame(3, constellation("qpsk"), 1), draw_channel(2, 2, 1), 0.1, 1),
     "frame carries 3 symbols for an M=2 channel"),
])
def test_signal_model_input_checks_name_the_misuse(call, text):
    with pytest.raises(ContractViolationError) as info:
        call()
    assert str(info.value) == text


def test_channel_takes_numpy_integer_dimensions():
    ch = ChannelRealization(np.ones((2, 2)), np.int64(2), np.int64(2))
    assert (ch.m, ch.n) == (2, 2)


def test_channel_takes_numbers_of_any_numeric_dtype():
    """A channel of ints, bools, floats or an object array of numbers is taken as
    given, as the detectors take it; an object array's NaN still fails."""
    for h in (np.ones((2, 1), int), np.ones((2, 1), bool), np.ones((2, 1)),
              np.array([[1], [2.5j]], object)):
        assert ChannelRealization(h, 1, 2).h is h
    with pytest.raises(ContractViolationError, match="^channel matrix contains NaN or Inf$"):
        ChannelRealization(np.array([[1.0], [float("nan")]], object), 1, 2)


@pytest.mark.parametrize("seed, stream", [(0, 0), (1, 2), (2**64 - 1, 5), (-1, -3),
                                          (2**70 + 3, 9), ((7 << 32) | 5, 40)])
def test_make_rng_draws_the_keyed_philox_stream(seed, stream):
    """``make_rng`` builds its Philox without drawing OS entropy; its stream is
    still that of ``Philox(key=(seed, stream))``, both 64-bit words masked,
    and its generator still pickles."""
    mask = 0xFFFFFFFFFFFFFFFF
    want = np.random.Generator(np.random.Philox(key=np.array([seed & mask, stream & mask],
                                                               dtype=np.uint64)))
    got = make_rng(seed, stream)
    for draw in (lambda g: g.standard_normal(33), lambda g: g.integers(0, 2, 77, np.uint8),
                 lambda g: g.random(5)):
        assert draw(got).tobytes() == draw(want).tobytes()
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert pickle.loads(pickle.dumps(got)).random(4).tobytes() == want.random(4).tobytes()
