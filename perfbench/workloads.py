"""The three benchmark workloads.

Each workload drives vblast through its public entry points only
(``harness.run_equiv`` / ``run_ber`` / ``write_csv`` and
``detectors.ALGORITHMS[name]``).  One *unit* is the workload's timed step.
``keep`` reduces a unit's output, after its time is taken, to what ``verify``
checks once the timed window has closed; what is kept per unit stays small,
so peak memory does not grow with the number of units a run completes.  Every input derives from the seed:
unit ``u`` of seed ``s`` uses the Philox key ``unit_seed(s, u)``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from vblast import harness, sigmodel
from vblast.detectors import ALGORITHMS, DETECTOR_NAMES
from vblast.harness import SweepConfig


def unit_seed(seed: int, unit: int) -> int:
    """Distinct harness seed per (run seed, unit index)."""
    return ((seed & 0xFFFFFFFF) << 32) | (unit & 0xFFFFFFFF)


def _channel(m, snr_db, cname, seed, trial):
    """The harness's per-trial draw (same Philox streams), from public calls.

    It mirrors the private ``harness._trial_frame`` so that the benchmark
    does not break when harness internals are refactored.  Every SNR used
    here is finite, so the noise variance is positive and the harness's
    noiseless-regularizer branch never applies.
    """
    c = sigmodel.constellation(cname)
    ch = sigmodel.draw_channel(m, m, seed, stream=4 * trial)
    frame = sigmodel.random_frame(m, c, seed, stream=4 * trial + 1)
    sigma = sigmodel.sigma_n2_for_snr_db(snr_db, c.symbol_energy)
    assert sigma > 0, "a finite SNR gives a positive noise variance"
    rx = sigmodel.transmit(frame, ch, sigma, seed, stream=4 * trial + 2)
    return c, ch, frame, rx


def _expected_counts(dims, cname="qpsk"):
    """Per-unit (mul+add, div, peak words) of the nine detectors, from the harness."""
    muladd = cdiv = peak = 0
    for m, reps in dims:
        for name in DETECTOR_NAMES:
            led = harness.detector_ledger(name, m, m, cname=cname)
            muladd += reps * led.total_mul_add()
            cdiv += reps * led.cdiv
            peak += reps * harness.detector_mem(name, m, m, cname=cname).peak_words
    return muladd, cdiv, peak


def _warm_up(names, m, cname, seed):
    c, ch, _frame, rx = _channel(m, 20.0, cname, seed, 0)
    for name in names:
        ALGORITHMS[name](ch, rx, c, collect_q=True)


class EquivGrid:
    """`vblast equiv` in miniature: M in {2,4,8} x SNR in {0,10,20} dB, QPSK,
    TRIALS trials per point, then one CSV written as the CLI does."""

    name = "equiv_grid"
    M_LIST = [2, 4, 8]
    SNR_DB = [0.0, 10.0, 20.0]
    TRIALS = 3          # per (M, SNR) point; 130 to 250 units in a 30 s run
    trials_per_unit = len(M_LIST) * len(SNR_DB) * TRIALS

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.csv_path = out_dir / "equiv_grid.csv"

    def setup(self):
        pass        # every channel is drawn by the harness inside the unit

    def warm_up(self):
        _warm_up(list(ALGORITHMS), max(self.M_LIST), "qpsk", self.seed)

    def run_unit(self, u):
        cfg = SweepConfig(m_list=self.M_LIST, snr_db_list=self.SNR_DB, trials=self.TRIALS,
                          seed=unit_seed(self.seed, u))
        rows, failures = harness.run_equiv(cfg)
        harness.write_csv(self.csv_path, harness.EQUIV_HEADER, rows)
        return len(rows), failures

    def keep(self, u, out):
        return out

    def verify(self, outputs):
        """Harness gates (GATE_GAP, SOFT_TOL, COV_RTOL), as reported by run_equiv."""
        want_rows = self.trials_per_unit * len(DETECTOR_NAMES)
        bad = []
        for u, (n_rows, failures) in outputs:
            bad.extend((u, f) for f in failures)
            if n_rows != want_rows:
                bad.append((u, f"equiv_grid: {n_rows} csv rows, expected {want_rows}"))
        return bad, f"all {len(outputs)} units through the harness gates"

    def expected_counts(self):
        return _expected_counts([(m, len(self.SNR_DB) * self.TRIALS) for m in self.M_LIST])


class BerSweep:
    """`vblast ber` in miniature: M=N=16, qam16, SNR in {0,5,10,15,20} dB,
    TRIALS trials per point, then one CSV written as the CLI does."""

    name = "ber_sweep"
    M = 16
    SNR_DB = [0.0, 5.0, 10.0, 15.0, 20.0]
    CONSTELLATION = "qam16"
    TRIALS = 2          # per SNR point; 150 to 300 units in a 30 s run
    REPLAY_STRIDE = 8   # every 8th unit is replayed through the oracle
    trials_per_unit = len(SNR_DB) * TRIALS

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.csv_path = out_dir / "ber_sweep.csv"

    def setup(self):
        pass        # every channel is drawn by the harness inside the unit

    def warm_up(self):
        _warm_up(DETECTOR_NAMES, self.M, self.CONSTELLATION, self.seed)

    def run_unit(self, u):
        cfg = SweepConfig(m_list=[self.M], snr_db_list=self.SNR_DB, trials=self.TRIALS,
                          seed=unit_seed(self.seed, u), constellation=self.CONSTELLATION)
        rows = harness.run_ber(cfg)
        harness.write_csv(self.csv_path, harness.BER_HEADER, rows)
        return rows

    def _bits(self):
        return self.TRIALS * self.M * sigmodel.constellation(self.CONSTELLATION).bits_per_symbol

    def keep(self, u, rows):
        """Every unit's shape problem (None if well formed); a sampled unit's rows in full."""
        want = sorted((snr, name) for snr in self.SNR_DB for name in DETECTOR_NAMES)
        shape = None
        if sorted((r[2], r[3]) for r in rows) != want or any(r[5] != self._bits() for r in rows):
            shape = f"ber_sweep: malformed rows {rows!r}"
        return shape, None if u % self.REPLAY_STRIDE else rows

    def verify(self, outputs):
        """Every unit's rows for shape; every REPLAY_STRIDE-th unit replayed.

        A replayed unit runs each of its trials through ``harness.equiv_trial``.
        At an SNR whose trials are all gated, every detector's bit errors
        must also equal those of the oracle's hard decisions.
        """
        bad, replayed = [], 0
        for u, (shape, rows) in outputs:
            if shape is not None:
                bad.append((u, shape))
            elif rows is not None:
                replayed += 1
                bad.extend((u, f) for f in self._replay(u, rows))
        return bad, (f"all {len(outputs)} units for shape, {replayed} sampled units "
                     f"(every {self.REPLAY_STRIDE}th) replayed against the oracle")

    def _replay(self, u, rows):
        seed = unit_seed(self.seed, u)
        out = []
        for snr in self.SNR_DB:
            want, all_gated = 0, True
            for t in range(self.TRIALS):
                eq_rows = harness.equiv_trial(
                    (self.M, self.M, snr, seed, t, False, DETECTOR_NAMES, self.CONSTELLATION))
                out.extend(
                    f"ber_sweep: {r['algorithm']} diverged from oracle at snr={snr} "
                    f"trial={t} unit={u} ("
                    + (r["error"] or f"soft={r['max_soft_err']:.3g}, cov={r['max_cov_err']:.3g}")
                    + ")"
                    for r in eq_rows if not r["ok"]
                )
                all_gated = all_gated and eq_rows[0]["gated"]
                c, ch, frame, rx = _channel(self.M, snr, self.CONSTELLATION, seed, t)
                oracle = ALGORITHMS["oracle"](ch, rx, c)
                want += int(np.count_nonzero(sigmodel.demap(oracle.s_hat, c) != frame.bits))
            if all_gated:
                out.extend(
                    f"ber_sweep: {r[3]} counted {r[4]} bit errors, oracle {want}, "
                    f"at snr={snr} unit={u}"
                    for r in rows if r[2] == snr and r[4] != want
                )
        return out

    def expected_counts(self):
        return _expected_counts([(self.M, len(self.SNR_DB) * self.TRIALS)],
                                cname=self.CONSTELLATION)


class DetectM64:
    """The paper's headline size: one M=N=64 QPSK channel at 20 dB per unit."""

    name = "detect_m64"
    M = 64
    SNR_DB = 20.0
    POOL = 16           # pre-generated channels, used round-robin
    trials_per_unit = 1

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.pool = []
        self.first = {}     # channel -> (unit, digest, outputs) of its first unit

    def setup(self):
        self.pool = [_channel(self.M, self.SNR_DB, "qpsk", self.seed, i) for i in range(self.POOL)]

    def warm_up(self):
        c, ch, _frame, rx = self.pool[0]
        for name in DETECTOR_NAMES:
            ALGORITHMS[name](ch, rx, c)

    def run_unit(self, u):
        i = u % self.POOL
        c, ch, _frame, rx = self.pool[i]
        return i, [(name, ALGORITHMS[name](ch, rx, c)) for name in DETECTOR_NAMES]

    def keep(self, u, out):
        """Outputs of a channel's first unit in full, a digest for the rest."""
        i, results = out
        h = hashlib.blake2b(digest_size=16)
        for _name, res in results:
            for arr in (res.s_hat, res.order, res.soft):
                h.update(arr.tobytes())
        digest = h.digest()
        if i not in self.first:
            self.first[i] = (u, digest, [(name, res.s_hat, res.order, res.soft)
                                         for name, res in results])
        return i, digest

    def verify(self, outputs):
        """Each channel's first outputs against ``detect_oracle`` under the
        harness gates; every later unit on it must repeat them bit for bit."""
        bad = []
        ungated = 0
        for i, (first_u, _digest, first) in sorted(self.first.items()):
            c, ch, _frame, rx = self.pool[i]
            oracle = ALGORITHMS["oracle"](ch, rx, c)
            if min(t.q_gap for t in oracle.trace if t.m >= 2) <= harness.GATE_GAP:
                ungated += 1
                continue
            for name, s_hat, order, soft in first:
                hard = np.array_equal(s_hat, oracle.s_hat) and np.array_equal(order, oracle.order)
                err = float(np.max(np.abs(soft - oracle.soft)))
                if not hard or err > harness.SOFT_TOL:
                    bad.append((first_u, f"detect_m64: {name} diverged from oracle on "
                                         f"channel {i} (hard_match={hard}, soft={err:.3g})"))
        for u, (i, digest) in outputs:
            if digest != self.first[i][1]:
                bad.append((u, f"detect_m64: outputs on channel {i} differ from its first unit"))
        return bad, (f"{len(self.first)} channels against the oracle ({ungated} ungated), "
                     f"all {len(outputs)} units against their channel's first outputs")

    def expected_counts(self):
        return _expected_counts([(self.M, 1)])


WORKLOADS = {w.name: w for w in (EquivGrid, BerSweep, DetectM64)}
