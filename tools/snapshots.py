"""Print one sha256 digest per detection routine over a fixed grid of inputs.

A change that claims to keep every routine's results bit for bit runs this
on its parent and on itself and compares the two printouts::

    PYTHONPATH=src python tools/snapshots.py

The first line names the code that ran the Hermitian rank-one updates and
matvecs: BLAS ``zher`` and ``zhemv`` from a named library for blocks of
``kernels.ZHER_MIN_K`` or more, or numpy for every block.  They run on dense
squares only; the packed pair packs the single buffer's grown square and
deflates on numpy.  Digests that cover blocks on the BLAS route depend on
the BLAS build.

Each routine's digest covers, for every input, its outputs (``s_hat``,
``order``, ``soft``), trace, ``q_steps``, ``aux`` (``proposed_2``), flop
ledger and memory ledger, or the type and text of the error it raises.
The grid: M in 1-5, 8, 16, 17, 32, 33 and 64 with N = M and N = M + 2;
qpsk and qam16; 0, 20 and 60 dB and noiseless; hard and soft cancellation;
each as a single call and as a batch of three.  M = 33 is the first size
past ``kernels.ZHER_MIN_K``, where the growth takes its first BLAS step.  The
single buffer's Gram covering is one product up to M = 16 (one block of
rows), and ends on a partial block at M = 17 and M = 33.
Every (M, N) and constellation also runs a batch of three at 20 dB whose
middle trial has one channel column scaled by 1e160, and that trial alone.
A batch is recorded as each of its trials plus its summed ledgers.  Only
numpy and the standard library are used besides vblast.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from vblast import (
    ALGORITHMS,
    ChannelRealization,
    ContractViolationError,
    SingularMatrixError,
    constellation,
    draw_channel,
    random_frame,
    sigma_n2_for_snr_db,
    transmit,
)
from vblast import kernels
from vblast.harness import NOISELESS_ALPHA

M_LIST = (1, 2, 3, 4, 5, 8, 16, 17, 32, 33, 64)
SNR_DB = (0.0, 20.0, 60.0, math.inf)
CONSTELLATIONS = ("qpsk", "qam16")
SEED = 2024


def trial(m, n, cname, snr_db, index, column_scale=1.0):
    """One trial's channel and received frame, deterministic in its arguments."""
    c = constellation(cname)
    stream = 1000 * (100 * m + n) + 4 * index
    ch = draw_channel(m, n, SEED, stream=stream)
    if column_scale != 1.0:
        h = ch.h.copy()
        h[:, min(2, m - 1)] *= column_scale
        ch = ChannelRealization(h, m, n)
    sigma = sigma_n2_for_snr_db(snr_db, c.symbol_energy)
    rx = transmit(random_frame(m, c, SEED, stream=stream + 1), ch, sigma, SEED,
                  stream=stream + 2, alpha=NOISELESS_ALPHA if sigma == 0 else None)
    return ch, rx


def _array(a) -> bytes:
    a = np.asarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _result(res) -> bytes:
    parts = [_array(res.s_hat), _array(res.order), _array(res.soft)]
    parts.append(repr([(t.m, t.l, float(t.q_min).hex(), float(t.q_gap).hex())
                       for t in res.trace]).encode())
    parts.extend(_array(q) for q in res.q_steps or ())
    for key in sorted(res.aux or ()):
        parts.append(key.encode())
        parts.extend(_array(v) for v in res.aux[key])
    parts.append(repr((res.ledger.as_tuple(), res.mem.peak_words, res.mem.buffers)).encode())
    return b"|".join(parts)


def snapshot(name, ch, rx, c, cancel_soft) -> bytes:
    """One call's record: its result (each trial's, for a batch) or its error."""
    kw = {"cancel_soft": cancel_soft, "collect_q": True}
    if name == "proposed_2":
        kw["collect_aux"] = True
    try:
        res = ALGORITHMS[name](ch, rx, c, **kw)
    except (SingularMatrixError, ContractViolationError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if not hasattr(res, "trials"):
        return _result(res)
    total = repr((res.ledger.as_tuple(), res.mem.peak_words)).encode()
    return b"#".join([_result(t) for t in res.trials] + [total])


def calls():
    """Every input of the grid: (label, channels, frames, constellation, cancel_soft)."""
    for m in M_LIST:
        for n in (m, m + 2):
            for cname in CONSTELLATIONS:
                c = constellation(cname)
                for snr_db in SNR_DB:
                    for soft in (False, True):
                        label = f"M={m} N={n} {cname} {snr_db} dB soft={soft}"
                        ch, rx = trial(m, n, cname, snr_db, 0)
                        yield label, ch, rx, c, soft
                        batch = [trial(m, n, cname, snr_db, t) for t in (1, 2, 3)]
                        yield (f"{label} batch", [b[0] for b in batch], [b[1] for b in batch],
                               c, soft)
                batch = [trial(m, n, cname, 20.0, t, column_scale=1e160 if t == 2 else 1.0)
                         for t in (1, 2, 3)]
                label = f"M={m} N={n} {cname} 20.0 dB, 1e160 column"
                yield label, *batch[1], c, False
                yield f"{label} batch", [b[0] for b in batch], [b[1] for b in batch], c, False


def route() -> str:
    """The first line: :func:`vblast.kernels.blas_route`, or numpy's for a vblast without it."""
    if hasattr(kernels, "blas_route"):
        return kernels.blas_route()
    return "Hermitian kernels: numpy for every k (this vblast has no BLAS route)"


def main():
    print(route())
    digests = {name: hashlib.sha256() for name in ALGORITHMS}
    count = 0
    for label, ch, rx, c, soft in calls():
        count += 1
        for name, digest in digests.items():
            digest.update(label.encode() + b"=" + snapshot(name, ch, rx, c, soft) + b"\n")
    for name, digest in digests.items():
        print(f"{name:22s} {digest.hexdigest()}")
    print(f"{count} inputs per routine, {count * len(digests)} snapshots")


if __name__ == "__main__":
    main()
