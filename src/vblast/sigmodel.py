"""Constellations, Rayleigh channels, AWGN and frame assembly.

Conventions:

* channel entries are i.i.d. circularly-symmetric complex Gaussian with unit
  variance (rich scattering, flat fading);
* ``sigma_n2`` is the total variance of each complex noise entry (real and
  imaginary parts carry ``sigma_n2 / 2`` each);
* the regularizer handed to the detectors is ``alpha = sigma_n2 / sigma_s2``
  and is read from the received frame only.

All randomness comes from counter-based Philox generators keyed on
``(seed, stream)`` so sweeps reproduce bit-exactly across platforms and
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError
from .kernels import _is_int, _numbers


class _PhiloxKey:
    """A seed sequence that hands Philox its key as it is, so that building a
    generator draws no OS entropy.  It is registered as numpy's
    ``ISeedSequence`` at the first draw, so that importing vblast does not
    load ``numpy.random``."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@lru_cache(maxsize=None)
def _register_philox_key() -> None:
    np.random.bit_generator.ISeedSequence.register(_PhiloxKey)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for an independent, reproducible stream: the stream of
    ``Philox(key=(seed, stream))``."""
    # as Python ints: a numpy integer's mask would overflow its own width
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    _register_philox_key()
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@dataclass(frozen=True)
class Constellation:
    """A unit-energy symbol alphabet plus its Gray bit labelling."""

    name: str
    points: np.ndarray
    symbol_energy: float
    bits_per_symbol: int
    # bit labels, one row of 0/1 per point
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.points)):
            raise ContractViolationError(f"constellation {self.name} has a non-finite point")
        energy = float(np.mean(np.abs(self.points) ** 2))
        if not abs(energy - self.symbol_energy) <= 1e-12:     # a NaN energy fails too
            raise ContractViolationError(
                f"constellation {self.name}: mean point energy {energy} "
                f"!= declared {self.symbol_energy}"
            )
        if len(set(self.points.tolist())) != len(self.points):
            raise ContractViolationError(f"constellation {self.name} has duplicate points")


def _qpsk() -> Constellation:
    # bit (b0, b1): b0 picks the real sign, b1 the imaginary sign (0 -> +)
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    return Constellation("qpsk", pts, 1.0, 2, labels)


def _qam16() -> Constellation:
    # Gray levels per axis: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
    levels = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}
    pts, labels = [], []
    for b0 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                for b3 in (0, 1):
                    pts.append(levels[(b0, b1)] + 1j * levels[(b2, b3)])
                    labels.append([b0, b1, b2, b3])
    pts = np.array(pts, dtype=np.complex128) / np.sqrt(10.0)
    return Constellation("qam16", pts, 1.0, 4, np.array(labels, dtype=np.uint8))


_CONSTELLATIONS = {"qpsk": _qpsk(), "qam16": _qam16()}


def constellation(name: str) -> Constellation:
    if not isinstance(name, str):
        raise ContractViolationError(f"constellation must be a name, got {name!r}")
    try:
        return _CONSTELLATIONS[name.lower()]
    except KeyError:
        raise ContractViolationError(
            f"unknown constellation {name!r}; choose from {sorted(_CONSTELLATIONS)}"
        ) from None


@dataclass(frozen=True)
class ChannelRealization:
    """A fixed N x M complex channel matrix (N receive, M transmit)."""

    h: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        for name, dim in (("M", self.m), ("N", self.n)):
            if not _is_int(dim, 1):
                raise ContractViolationError(
                    f"channel dimension {name} must be an integer >= 1, got {dim!r}")
        if self.n < self.m:
            raise ContractViolationError(f"need N >= M >= 1, got N={self.n}, M={self.m}")
        if not isinstance(self.h, np.ndarray):
            raise ContractViolationError(
                f"channel matrix must be a numpy array, got {type(self.h).__name__}")
        if self.h.shape != (self.n, self.m):
            raise ContractViolationError(
                f"channel matrix shape {self.h.shape} != ({self.n}, {self.m})"
            )
        if not np.isfinite(_numbers(self.h, "channel matrix")).all():     # the detectors' rule
            raise ContractViolationError("channel matrix contains NaN or Inf")


@dataclass(frozen=True)
class TxFrame:
    """Transmitted symbols, the bits they encode and their alphabet."""

    s: np.ndarray
    bits: np.ndarray
    constellation: Constellation


@dataclass(frozen=True)
class RxFrame:
    """Received vector plus the noise figure the detectors must use."""

    x: np.ndarray
    sigma_n2: float
    alpha: float


def draw_channel(m: int, n: int, rng_seed: int, stream: int = 0) -> ChannelRealization:
    """Draw an N x M Rayleigh channel, deterministic in (seed, stream)."""
    if not (n >= m >= 1):
        raise ContractViolationError(f"need N >= M >= 1, got N={n}, M={m}")
    rng = make_rng(rng_seed, stream)
    h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)
    return ChannelRealization(h, m, n)


def frame_from_bits(bits, c: Constellation) -> TxFrame:
    """Map a bit string to symbols (the inverse of :func:`demap`)."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.size == 0 or bits.size % c.bits_per_symbol != 0:
        raise ContractViolationError(
            f"bit length {bits.size} is not a positive multiple of {c.bits_per_symbol}"
        )
    groups = bits.reshape(-1, c.bits_per_symbol)
    # label rows are exactly the binary expansion of the point index
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    idx = groups @ weights
    return TxFrame(c.points[idx].copy(), bits.copy(), c)


def random_frame(m: int, c: Constellation, rng_seed: int, stream: int = 0) -> TxFrame:
    if m < 1:
        raise ContractViolationError("need at least one transmit symbol")
    rng = make_rng(rng_seed, stream)
    bits = rng.integers(0, 2, size=m * c.bits_per_symbol, dtype=np.uint8)
    return frame_from_bits(bits, c)


def transmit(
    frame: TxFrame,
    ch: ChannelRealization,
    sigma_n2: float,
    rng_seed: int,
    stream: int = 0,
    alpha: float | None = None,
) -> RxFrame:
    """Push a frame through the channel and add circular AWGN.

    ``alpha`` defaults to ``sigma_n2 / sigma_s2``; pass it explicitly to run
    noiseless frames (sigma_n2 = 0) through detectors that need alpha > 0.
    """
    if sigma_n2 < 0:
        raise ContractViolationError(f"negative noise variance {sigma_n2}")
    if frame.s.shape[0] != ch.m:
        raise ContractViolationError(
            f"frame carries {frame.s.shape[0]} symbols for an M={ch.m} channel"
        )
    x = ch.h @ frame.s
    if sigma_n2 > 0:
        rng = make_rng(rng_seed, stream)
        noise = (rng.standard_normal(ch.n) + 1j * rng.standard_normal(ch.n)) * np.sqrt(sigma_n2 / 2.0)
        x = x + noise
    if alpha is None:
        alpha = sigma_n2 / frame.constellation.symbol_energy
    return RxFrame(x, float(sigma_n2), float(alpha))


def quantize(est, c: Constellation):
    """Nearest constellation point; ties break to the lowest point index.

    ``est`` is one estimate, or an array of them (one per trial): then the
    result is the array of their points, of the same shape.
    """
    if not isinstance(est, np.ndarray):
        return complex(c.points[np.abs(c.points - est).argmin()])
    return c.points[np.abs(c.points - est[..., None]).argmin(axis=-1)]


def demap(symbols, c: Constellation) -> np.ndarray:
    """Recover the bit string from (hard) symbols by nearest-point lookup."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    idx = np.argmin(np.abs(symbols[:, None] - c.points[None, :]), axis=1)
    return c.labels[idx].reshape(-1).astype(np.uint8)


def sigma_n2_for_snr_db(snr_db: float, symbol_energy: float = 1.0) -> float:
    """Noise variance giving the requested per-symbol SNR."""
    return symbol_energy * 10.0 ** (-snr_db / 10.0)
