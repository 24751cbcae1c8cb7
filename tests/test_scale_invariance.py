"""Scale invariance: whether a detector returns does not depend on units.

Scaling (H, x, alpha) by (2^k, 2^k, 4^k) is exact in floating point while
nothing under- or overflows, and it scales Q by exactly 4^-k, so every
routine must return the same decisions, order, soft estimates and ledgers,
its trace and every step's Q scaled by exactly 4^-k, or else raise the same
type of error as on the unscaled trial.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from vblast.detectors import ALGORITHMS  # noqa: E402
from vblast.errors import ContractViolationError, SingularMatrixError  # noqa: E402
from vblast.harness import _trial_frame  # noqa: E402
from vblast.sigmodel import ChannelRealization, RxFrame  # noqa: E402


def outcome(name, ch, rx, c, soft):
    try:
        return ALGORITHMS[name](ch, rx, c, cancel_soft=soft, collect_q=True)
    except (SingularMatrixError, ContractViolationError) as exc:
        return exc


def parts(a, factor=1.0):
    """Real and imaginary parts, each times ``factor``: exact for a power of
    two, and unlike a complex product it keeps the sign of every zero."""
    return np.stack([a.real * factor, a.imag * factor]).tobytes()


@given(k=st.integers(1, 60).flatmap(lambda k: st.sampled_from([k, -k])),
       seed=st.integers(0, 2**16), m=st.integers(1, 8), extra=st.integers(0, 2),
       cname=st.sampled_from(["qpsk", "qam16"]), soft=st.booleans())
@example(k=60, seed=3, m=8, extra=1, cname="qam16", soft=False)
@example(k=-60, seed=3, m=8, extra=1, cname="qam16", soft=True)
def test_scaled_inputs_scale_every_routine_exactly(k, seed, m, extra, cname, soft):
    c, ch, _, rx = _trial_frame(m, m + extra, 20.0, seed, 0, cname)
    up = 2.0**k
    big = (ChannelRealization(ch.h * up, ch.m, ch.n),
           RxFrame(rx.x * up, rx.sigma_n2 * up * up, rx.alpha * up * up))
    down = 4.0**-k
    for name in ALGORITHMS:
        want, got = outcome(name, ch, rx, c, soft), outcome(name, *big, c, soft)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert type(got) is type(want), (name, want, got)
            continue
        for field in ("s_hat", "order", "soft"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (name, field)
        assert got.ledger == want.ledger, name
        assert (got.mem.peak_words, got.mem.buffers) == (want.mem.peak_words, want.mem.buffers)
        assert got.trace == [t._replace(q_min=t.q_min * down, q_gap=t.q_gap * down)
                             for t in want.trace], name
        assert [parts(q) for q in got.q_steps] == [parts(q, down) for q in want.q_steps], name
