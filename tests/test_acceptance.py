"""Acceptance suite: one test per release criterion, with printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import time

import numpy as np
import pytest

from vblast.detectors import (
    ALGORITHMS,
    DETECTOR_NAMES,
    detect_mem_saving,
    detect_proposed_2,
    detect_proposed_2_noperm,
    detect_proposed_2_tri,
    detect_proposed_2_tri_noperm,
)
from vblast.harness import (
    GATE_GAP,
    SweepConfig,
    detector_ledger,
    inversion_step_ledger,
    run_equiv,
)
from vblast.kernels import (
    FlopLedger,
    block_inv_step_i,
    block_inv_step_v,
    gauss_jordan_inverse,
)
from vblast.metering import MODEL_FOR_ALGORITHM, TABLE_MODELS, compare, speedup
from vblast.sigmodel import (
    constellation,
    demap,
    draw_channel,
    make_rng,
    random_frame,
    transmit,
)

QPSK = constellation("qpsk")


def report(num, text):
    print(f"[criterion {num}] PASS  {text}")


def test_criterion_1_oracle_equivalence():
    """All nine detectors agree with the brute-force oracle on a 10^4 grid."""
    t0 = time.time()
    cfg = SweepConfig(m_list=[2, 4, 8], n_list=None,
                      snr_db_list=[0.0, 10.0, 20.0], trials=1112, seed=1)
    rows, failures = run_equiv(cfg)
    elapsed = time.time() - t0
    assert failures == [], failures[:3]
    trials = len(rows) // len(DETECTOR_NAMES)
    assert trials >= 10_000
    gated = [r for r in rows if r[6] > GATE_GAP]
    assert len(gated) > 0.9 * len(rows)      # the gate must not be vacuous
    worst_soft = max(r[7] for r in gated)
    assert elapsed < 120.0
    report(1, f"oracle equivalence: {trials} trials, "
              f"{len(rows) - len(gated)} of {len(rows)} rows gap-gated out, "
              f"max gated soft err {worst_soft:.2e}, {elapsed:.1f}s")


def test_criterion_2_inversion_step_speedup():
    """Partitioned-inverse initialization: 1.67x fewer operations."""
    t0 = time.time()
    m = n = 64
    led_i = inversion_step_ledger(m, n, "i")
    led_v = inversion_step_ledger(m, n, "v")
    ratio = speedup(led_i, led_v)
    assert ratio == pytest.approx(1.67, abs=0.10)
    for led, target in ((led_i, 5 / 6 * m**3), (led_v, m**3 / 2)):
        assert abs(led.cmul - target) / target <= 0.10
        assert abs(led.cadd - target) / target <= 0.10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, f"inversion-step speedup {ratio:.4f} (target 1.67 +/- 0.10); "
              f"cmul {led_i.cmul} vs {5 / 6 * m**3:.0f}, {led_v.cmul} vs {m**3 / 2:.0f}")


def test_criterion_3_whole_algorithm_speedups():
    """Headline whole-algorithm flop ratios at M = N = 64."""
    t0 = time.time()
    ledgers = {name: detector_ledger(name, 64, 64)
               for name in ("speed_adv", "mem_saving", "fastest_known", "proposed_2")}
    r1 = speedup(ledgers["speed_adv"], ledgers["proposed_2"])
    r2 = speedup(ledgers["mem_saving"], ledgers["proposed_2"])
    r3 = speedup(ledgers["fastest_known"], ledgers["speed_adv"])
    assert r1 == pytest.approx(1.30, abs=0.08)
    assert r2 == pytest.approx(1.86, abs=0.12)
    assert r3 == pytest.approx(1.22, abs=0.08)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, f"speedups at M=N=64: speed_adv/proposed={r1:.4f} (1.30+/-0.08), "
              f"mem_saving/proposed={r2:.4f} (1.86+/-0.12), "
              f"fastest_known/speed_adv={r3:.4f} (1.22+/-0.08)")


def test_criterion_4_table_coefficient_regression():
    """Measured multiply counts track the dominant-complexity table."""
    t0 = time.time()
    checked = []
    for name in ("original", "mem_saving", "fastest_known", "speed_adv",
                 "proposed_1", "proposed_2"):
        model = TABLE_MODELS[MODEL_FOR_ALGORITHM[name]]
        rep64 = compare(detector_ledger(name, 64, 64), model, 64, 64)
        rep8 = compare(detector_ledger(name, 8, 8), model, 8, 8)
        assert rep64.relative_gap <= 0.10, (name, rep64)
        assert rep64.relative_gap < rep8.relative_gap, (name, rep8, rep64)
        checked.append(f"{name}={rep64.relative_gap:.1%}")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, "cmul gaps at M=N=64 (all <= 10%, all shrinking from M=8): "
              + ", ".join(checked))


def test_criterion_5_memory_claim():
    """Single-buffer algorithm uses at most 0.55x the memory-saving peak."""
    t0 = time.time()
    ch = draw_channel(16, 16, 1)
    frame = random_frame(16, QPSK, 1, stream=1)
    rx = transmit(frame, ch, 0.01, 1, stream=2)
    lean = detect_proposed_2(ch, rx, QPSK).mem.peak_words
    base = detect_mem_saving(ch, rx, QPSK).mem.peak_words
    assert lean <= 0.55 * base
    assert time.time() - t0 < 1.0
    report(5, f"peak words at M=N=16: proposed_2={lean}, mem_saving={base}, "
              f"ratio {lean / base:.4f} <= 0.55")


def test_criterion_6_division_claim():
    """Single-division initializer: M divisions total, under half the other's."""
    t0 = time.time()
    m = 64
    led_v = inversion_step_ledger(m, m, "v")
    led_i = inversion_step_ledger(m, m, "i")
    assert led_v.cdiv == m
    assert led_i.cdiv >= 2 * m - 1          # 3 per growth step as documented
    ratio = led_v.cdiv / led_i.cdiv
    assert ratio <= 0.51
    assert time.time() - t0 < 1.0
    report(6, f"division counts at M=64: single-div init {led_v.cdiv}, "
              f"three-div init {led_i.cdiv}, measured ratio {ratio:.4f} <= 0.51")


def test_criterion_7_partition_identity_suite():
    """Grown partitioned inverses equal the brute-force inverse, 10^3 seeds."""
    t0 = time.time()
    worst = 0.0
    for trial in range(1000):
        rng = make_rng(2024, trial)
        m = 2 + trial % 15
        h = (rng.standard_normal((m + 2, m)) + 1j * rng.standard_normal((m + 2, m))) / np.sqrt(2)
        r = h.conj().T @ h + 0.3 * np.eye(m)
        q_prev = gauss_jordan_inverse(r[: m - 1, : m - 1])
        want = gauss_jordan_inverse(r)
        for step in (block_inv_step_i, block_inv_step_v):
            out = step(q_prev, r[: m - 1, m - 1], r[m - 1, m - 1].real, FlopLedger())
            got = np.empty((m, m), complex)
            got[: m - 1, : m - 1] = out[0]
            got[: m - 1, m - 1] = out[1]
            got[m - 1, : m - 1] = np.conj(out[1])
            got[m - 1, m - 1] = out[2]
            err = np.abs(got - want).max()
            worst = max(worst, err)
            assert err <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(7, f"partitioned-inverse identity on 1000 seeds (m<=16): "
              f"worst entrywise error {worst:.2e} <= 1e-10, {elapsed:.1f}s")


def test_criterion_8_variant_fidelity():
    """Unpermuted and packed variants reproduce the single-buffer algorithm."""
    t0 = time.time()
    worst_soft = 0.0
    variants = (detect_proposed_2_noperm, detect_proposed_2_tri,
                detect_proposed_2_tri_noperm)
    for trial in range(1000):
        m = 1 + trial % 16
        n = m + trial % 3
        ch = draw_channel(m, n, 77, stream=4 * trial)
        frame = random_frame(m, QPSK, 77, stream=4 * trial + 1)
        rx = transmit(frame, ch, 0.05, 77, stream=4 * trial + 2)
        base = detect_proposed_2(ch, rx, QPSK)
        for fn in variants:
            res = fn(ch, rx, QPSK)
            assert np.array_equal(res.s_hat, base.s_hat)
            assert np.array_equal(res.order, base.order)
            err = np.abs(res.soft - base.soft).max()
            worst_soft = max(worst_soft, err)
            assert err <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(8, "variant fidelity on 1000 seeds (M<=16): hard/order identical, "
              f"max soft diff {worst_soft:.2e} <= 1e-10, {elapsed:.1f}s. "
              "d convention: swapped and index-addressed forms keep the "
              "cancellation vector with one sign, the published '+' form's "
              "negation (d_paper = -d).")


def test_criterion_9_noiseless_recovery():
    """Zero noise, well-conditioned channels: every detector is exact."""
    t0 = time.time()
    recovered = 0
    for m in range(1, 9):
        stream = 0
        for rep in range(3):
            while True:
                ch = draw_channel(m, m, 4242, stream=stream)
                stream += 1
                if np.linalg.cond(ch.h) < 1e3:
                    break
            frame = random_frame(m, QPSK, 4242, stream=1000 + stream)
            rx = transmit(frame, ch, 0.0, 0, alpha=1e-6)
            for name in ALGORITHMS:
                res = ALGORITHMS[name](ch, rx, QPSK)
                assert np.array_equal(res.s_hat, frame.s), (name, m)
                assert np.array_equal(demap(res.s_hat, QPSK), frame.bits)
                recovered += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(9, f"noiseless recovery: {recovered} detector runs exact, BER=0, "
              f"{elapsed:.1f}s")
