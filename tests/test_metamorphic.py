"""Metamorphic relations of the ten routines: what the oracle cannot referee.

The oracle shares the ordering rule, the swaps and the trace records with the
nine recursive routines, so a defect there that all of them share passes the
equivalence criterion.  Two relations hold for any input in exact arithmetic;
both run here on the snapshot grid's inputs (``tools/snapshots.py``) up to
M = 40, N = M and M + 2, qpsk at 0 dB and qam16 at 20 dB, each as a single
call and as a batch of three.  Cancellation is soft where exactly one of
N > M and 0 dB holds, else hard, so that each N and each SNR runs both.
M = 33 and 40 run their first steps on the BLAS route, where dense Q keeps
only its upper triangle.

- *Conjugation.*  (conj H, conj x) gives conj(soft) and conj(s_hat) bit for
  bit, the same order, trace and ledgers, and Q steps conjugated as values (a
  zero on the diagonal may change sign).  Negating an imaginary part
  commutes exactly with rounding, so every operation built from +, x, conj
  and data movement commutes with conjugation, a dropped conjugation
  included; the relation catches complex orderings, tie-breaks and
  imaginary-unit constants.
- *Transmit relabeling.*  Permuting H's columns maps the order and the
  decisions through the permutation on every trial whose ordering gaps all
  exceed ``GATE_GAP`` on both sides, and ``soft`` within 2 ``SOFT_TOL``.  A
  missing conjugation in a swap or a read of Q's upper triangle breaks it.
"""

import numpy as np
import pytest

from vblast import ALGORITHMS, ChannelRealization, RxFrame
from vblast.detectors import BatchResult
from vblast.errors import ContractViolationError, SingularMatrixError
from vblast.harness import GATE_GAP, SOFT_TOL
from vblast.sigmodel import (
    constellation,
    draw_channel,
    make_rng,
    random_frame,
    sigma_n2_for_snr_db,
    transmit,
)

SEED = 2024         # the snapshot grid's
CASES = [(m, n, snr_db, (n > m) != (snr_db == 0.0)) for m in (1, 2, 3, 5, 8, 17, 33, 40)
         for n in (m, m + 2) for snr_db in (0.0, 20.0)]


def grid_trial(m, n, c, snr_db, index):
    """The snapshot grid's trial ``index`` of (M, N) at ``snr_db``."""
    stream = 1000 * (100 * m + n) + 4 * index
    ch = draw_channel(m, n, SEED, stream=stream)
    rx = transmit(random_frame(m, c, SEED, stream=stream + 1), ch,
                  sigma_n2_for_snr_db(snr_db, c.symbol_energy), SEED, stream=stream + 2)
    return ch, rx


def grid_calls(m, n, snr_db):
    """The constellation, and each call's (channels, frames): one trial, then a batch of three."""
    c = constellation("qpsk" if snr_db == 0.0 else "qam16")
    trials = [grid_trial(m, n, c, snr_db, t) for t in range(4)]
    return c, [list(zip(*trials[:1])), list(zip(*trials[1:]))]


def mapped(chs, rxs, h_maps, x_map):
    """Each trial with its channel matrix and received vector mapped."""
    return ([ChannelRealization(f(ch.h), ch.m, ch.n) for ch, f in zip(chs, h_maps)],
            [RxFrame(x_map(rx.x), rx.sigma_n2, rx.alpha) for rx in rxs])


def outcome(name, chs, rxs, c, soft, collect_q=False):
    """Each trial's result, or the error the call raises; one trial runs unbatched."""
    if len(chs) == 1:
        chs, rxs = chs[0], rxs[0]
    try:
        res = ALGORITHMS[name](chs, rxs, c, cancel_soft=soft, collect_q=collect_q)
    except (SingularMatrixError, ContractViolationError) as exc:
        return exc
    return res.trials if isinstance(res, BatchResult) else [res]


def trace_bits(res):
    return [(t.m, t.l, float(t.q_min).hex(), float(t.q_gap).hex()) for t in res.trace]


def min_gap(res):
    return min((t.q_gap for t in res.trace if t.m >= 2), default=np.inf)


@pytest.mark.parametrize("m, n, snr_db, soft", CASES)
def test_conjugated_inputs_conjugate_every_output(m, n, snr_db, soft):
    c, calls = grid_calls(m, n, snr_db)
    for chs, rxs in calls:
        conj = mapped(chs, rxs, [np.conj] * len(chs), np.conj)
        for name in ALGORITHMS:
            want = outcome(name, chs, rxs, c, soft, collect_q=True)
            got = outcome(name, *conj, c, soft, collect_q=True)
            where = f"{name} soft={soft} trials={len(chs)}"
            if isinstance(want, Exception) or isinstance(got, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), where
                continue
            for g, w in zip(got, want, strict=True):
                assert g.soft.tobytes() == np.conj(w.soft).tobytes(), where
                assert g.s_hat.tobytes() == np.conj(w.s_hat).tobytes(), where
                assert g.order.tobytes() == w.order.tobytes(), where
                assert trace_bits(g) == trace_bits(w), where
                assert g.ledger == w.ledger and g.mem.buffers == w.mem.buffers, where
                assert len(g.q_steps) == len(w.q_steps), where
                for qg, qw in zip(g.q_steps, w.q_steps):
                    assert np.array_equal(qg, np.conj(qw)), where


@pytest.mark.parametrize("m, n, snr_db, soft", CASES)
def test_relabeled_transmit_antennas_map_order_and_decisions(m, n, snr_db, soft):
    c, calls = grid_calls(m, n, snr_db)
    rng = make_rng(91, 1000 * (100 * m + n) + int(snr_db))
    for chs, rxs in calls:
        perms = [rng.permutation(m) for _ in chs]
        relabeled = mapped(chs, rxs, [lambda h, p=p: h[:, p] for p in perms], np.asarray)
        for name in ALGORITHMS:
            want = outcome(name, chs, rxs, c, soft)
            got = outcome(name, *relabeled, c, soft)
            where = f"{name} soft={soft} trials={len(chs)}"
            assert isinstance(got, Exception) == isinstance(want, Exception), (where, got, want)
            if isinstance(want, Exception):
                continue
            for g, w, p in zip(got, want, perms, strict=True):
                if min(min_gap(g), min_gap(w)) <= GATE_GAP:
                    continue
                assert np.array_equal(p[g.order], w.order), where
                assert np.array_equal(g.s_hat, w.s_hat[p]), where
                assert np.abs(g.soft - w.soft[p]).max() <= 2 * SOFT_TOL, where
