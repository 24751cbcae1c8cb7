"""Sweep engines behind the CLI: equivalence, flops, memory and BER runs.

Every engine is deterministic for a fixed :class:`SweepConfig`: trials fan
out over a bounded process pool (``VBLAST_WORKERS``, default 1) keyed by
trial index, and results are merged in trial order, so the emitted CSV bytes
never depend on the worker count.

CSV files are RFC-4180 with LF line endings; floats carry 12 significant
digits; rows are sorted by (M, snr_db, algorithm).
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detectors import ALGORITHMS, DETECTOR_NAMES, BatchResult, get_detector
from .errors import ContractViolationError, SingularMatrixError
from .kernels import FlopLedger, _is_int, init_gram, init_q_recursive
from .metering import MODEL_FOR_ALGORITHM, TABLE_MODELS, compare, speedup
from .sigmodel import (
    constellation,
    demap,
    draw_channel,
    random_frame,
    sigma_n2_for_snr_db,
    transmit,
)

# gates used by the equivalence engine
GATE_GAP = 1e-9          # ordering gap below which hard equality is not asserted
COV_RTOL = 1e-9          # per-step covariance, relative to the oracle's
SOFT_TOL = 1e-9          # soft estimate agreement on gated trials

MEM_RATIO_BOUND = 0.55   # single-buffer peak vs. mem_saving peak at M = N >= 16

# regularizer handed to the detectors when a sweep runs noiseless frames
NOISELESS_ALPHA = 1e-6

# A sweep runs the trials of one (M, N) through each detector in batches of
# at most BATCH_TRIALS, and of at most BATCH_WORDS complex words of M*M*N
# per batch, which bounds a batch's memory at large M; the equivalence sweep
# stacks the detectors' Q steps for comparison in groups of at most
# BATCH_WORDS words too (one trial's steps at least).
BATCH_TRIALS = 64
BATCH_WORDS = 1 << 20


@dataclass
class SweepConfig:
    algorithms: list[str] = field(default_factory=lambda: list(DETECTOR_NAMES))
    m_list: list[int] = field(default_factory=lambda: [4])
    n_list: list[int] | None = None          # None means N = M
    snr_db_list: list[float] = field(default_factory=lambda: [20.0])
    trials: int = 100
    seed: int = 1
    cancel_soft: bool = False
    constellation: str = "qpsk"

    def __post_init__(self):
        """Misuse names the field: every field's type and range come first."""
        text = lambda x: isinstance(x, str)
        size = lambda x: _is_int(x, 1)
        real = lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool)
        for name, ok, want in (
                ("algorithms", _each(self.algorithms, text), "a list of names"),
                ("m_list", self.m_list and _each(self.m_list, size), "a list of integers >= 1"),
                ("n_list", self.n_list is None or _each(self.n_list, size), "None or such a list"),
                ("snr_db_list", _each(self.snr_db_list, real), "a list of real numbers"),
                ("trials", _is_int(self.trials, 1), "an integer >= 1"),
                ("seed", _is_int(self.seed, -math.inf), "an integer"),
                ("cancel_soft", isinstance(self.cancel_soft, bool), "True or False")):
            if not ok:
                raise ContractViolationError(f"{name} must be {want}, got {getattr(self, name)!r}")
        if self.n_list is not None and len(self.n_list) != len(self.m_list):
            raise ContractViolationError("n_list must match m_list in length")
        for m, n in self.dims():
            if n < m:
                raise ContractViolationError(f"need N >= M, got N={n} for M={m}")
        for snr_db in self.snr_db_list:
            if not snr_db > -math.inf:          # NaN or -inf: no noise variance
                raise ContractViolationError(
                    f"SNR must be a number of dB or inf (noiseless), got {snr_db}")
        for at, name in enumerate(self.algorithms):
            get_detector(name)
            if name in self.algorithms[:at]:
                raise ContractViolationError(f"algorithm {name!r} is listed twice")
        constellation(self.constellation)

    def dims(self) -> list[tuple[int, int]]:
        if self.n_list is None:
            return [(m, m) for m in self.m_list]
        return list(zip(self.m_list, self.n_list))


def _each(items, ok) -> bool:
    """Whether ``items`` is a list or tuple whose every item passes ``ok``."""
    return isinstance(items, (list, tuple)) and all(map(ok, items))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _line_format(types) -> str:
    """The printf format of a CSV line whose fields have these types."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types) + "\n"


def write_csv(path, header, rows) -> None:
    """Write a header and rows: each row through one printf format per tuple of
    field types, or through the csv writer if its line would need quoting (a
    comma, quote or line break in a field, or one empty field); the same bytes."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            formats = {}
            for row in rows:
                row = tuple(row)
                types = tuple(map(type, row))
                fmt = formats.get(types)
                if fmt is None:
                    fmt = formats[types] = _line_format(types)
                line = fmt % row
                if (line.count(",") != len(row) - 1 or '"' in line or "\r" in line
                        or line.count("\n") != 1 or line == "\n"):
                    writer.writerow([_fmt(v) for v in row])
                else:
                    fh.write(line)
    except OSError as exc:
        raise cannot_write(path, exc) from None


def cannot_write(path: Path, exc: OSError) -> ContractViolationError:
    """The misuse error for an output path: a directory, a path under a file, no permission."""
    culprit = "" if exc.filename in (None, str(path)) else f"{exc.filename}: "
    return ContractViolationError(f"cannot write {path}: {culprit}{exc.strerror or exc}")


def worker_count() -> int:
    """Trial worker processes: ``VBLAST_WORKERS`` (default 1), at most the CPU count."""
    raw = os.environ.get("VBLAST_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ContractViolationError(f"VBLAST_WORKERS must be a positive integer, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


# one BLAS thread per worker process, so that the workers share the cores
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _map_ordered(fn, args_list):
    """``[fn(a) for a in args_list]`` over ``worker_count()`` spawned processes, which
    read ``_WORKER_ENV`` as they import numpy (the parent's is loaded already) and
    import the main module: a script running a pooled sweep needs a ``__main__`` guard.
    The pool modules are imported here, so a one-process run never loads them."""
    workers = worker_count()
    if workers == 1 or len(args_list) < 2:
        return [fn(a) for a in args_list]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(args_list) // (workers * 8))
    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, args_list, chunksize=chunk))
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def _recursive_names(cfg, command):
    """The selected detectors except the oracle; an oracle-only run is misuse."""
    names = [n for n in cfg.algorithms if n != "oracle"]
    if not names:
        raise ContractViolationError(
            f"{command} needs at least one recursive detector besides the oracle")
    return names


def _trial_frame(m, n, snr_db, seed, trial, cname):
    """Channel/frame/rx for one trial; streams are disjoint per trial."""
    c = constellation(cname)
    ch = draw_channel(m, n, seed, stream=4 * trial)
    frame = random_frame(m, c, seed, stream=4 * trial + 1)
    sigma = sigma_n2_for_snr_db(snr_db, c.symbol_energy)
    alpha = NOISELESS_ALPHA if sigma == 0 else None
    rx = transmit(frame, ch, sigma, seed, stream=4 * trial + 2, alpha=alpha)
    return c, ch, frame, rx


# ---------------------------------------------------------------------------
# trial batches


def _batches(cfg, names):
    """The sweep's work as batches: per (M, N), its (SNR, trial) points in
    sweep order, cut into runs of at most :func:`_batch_size` trials.

    Each point is ``(group, snr_db, trial)``, ``group`` being the indices
    of its (M, N) and SNR in the configuration.  The cut depends on the
    configuration only, never on the worker count.
    """
    out = []
    for d, (m, n) in enumerate(cfg.dims()):
        points = [((d, i), snr, t) for i, snr in enumerate(cfg.snr_db_list)
                  for t in range(cfg.trials)]
        size = _batch_size(m, n)
        for k in range(0, len(points), size):
            out.append((m, n, points[k : k + size], cfg.seed, cfg.cancel_soft, names,
                        cfg.constellation))
    return out


def _batch_size(m, n):
    """Trials per batch: BATCH_TRIALS, fewer for large channels (BATCH_WORDS)."""
    return max(1, min(BATCH_TRIALS, BATCH_WORDS // (m * m * n)))


def _outcome(name, ch, rx, c, **kw):
    """One detector on one trial: its result, or the error it raises."""
    try:
        return ALGORITHMS[name](ch, rx, c, **kw)
    except (SingularMatrixError, ContractViolationError) as exc:
        return exc


def _run_batch(name, chs, rxs, c, **kw):
    """One detector over a batch: ``(done, out, errors)``, the indices of the
    trials that returned, their outputs stacked in a :class:`BatchResult`
    (None if none returned), and the error each other trial raised, by index.

    When the batch raises, its trials re-run one at a time, so each gets
    exactly the result or the error of a call on it alone, and the results
    are stacked as the batch would have returned them.
    """
    try:
        return list(range(len(chs))), ALGORITHMS[name](chs, rxs, c, **kw), {}
    except (SingularMatrixError, ContractViolationError):
        outcomes = [_outcome(name, ch, rx, c, **kw) for ch, rx in zip(chs, rxs)]
    done = [i for i, res in enumerate(outcomes) if not isinstance(res, Exception)]
    errors = {i: res for i, res in enumerate(outcomes) if isinstance(res, Exception)}
    return done, BatchResult.of([outcomes[i] for i in done]) if done else None, errors


def _frames(m, n, points, seed, cname):
    """Constellation, channels, frames and received vectors of a batch's points."""
    trials = [_trial_frame(m, n, snr, seed, t, cname) for _, snr, t in points]
    return (trials[0][0], [t[1] for t in trials], [t[2] for t in trials],
            [t[3] for t in trials])


# ---------------------------------------------------------------------------
# equivalence


def _row(m, n, point, name, **kw):
    """One comparison row of a batch point; the defaults are a failed row's."""
    _, snr_db, trial = point
    base = {
        "m": m, "n": n, "snr_db": snr_db, "trial": trial, "algorithm": name,
        "hard_match": False, "min_q_gap": float("nan"),
        "max_soft_err": float("inf"), "max_cov_err": float("inf"),
        "gated": True, "ok": False, "error": "",
    }
    base.update(kw)
    return base


def _flat_steps(steps):
    """Stacked Q steps, ``(T, m, m)`` each, as one row of every step per trial."""
    return np.concatenate([q.reshape(len(q), -1) for q in steps], axis=1)


def _stacked_steps(outs, lo, hi):
    """Rows lo..hi-1 of the flattened Q steps of ``outs`` taken one after another."""
    parts, at = [], 0
    for out in outs:
        t = len(out.s_hat)
        a, b = max(lo - at, 0), min(hi - at, t)
        if a < b:
            parts.append(_flat_steps([q[a:b] for q in out.q_steps]))
        at += t
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _step_errors(diff, ks, q_or, starts, scale):
    """Each row's largest Q step error against its oracle's trial ``ks``, each
    step's error relative to the oracle's largest entry at that step.  ``diff``
    holds the flattened steps, and is overwritten."""
    diff -= q_or[ks]
    err = np.maximum.reduceat(np.abs(diff), starts, axis=1)
    sc = scale[ks]
    with np.errstate(all="ignore"):     # as a Python float division: no warning
        err = np.where(sc != 0, err / sc, 0.0)
    return np.maximum.reduce(err, axis=1, initial=0.0)


def _equiv_rows(m, n, points, names, oracle, runs):
    """Comparison rows of each point of a batch: its oracle outcome (or error)
    against each detector's in ``runs[name]``, which ran the points whose
    oracle returned, in order; every outcome is :func:`_run_batch`'s.

    The returning trials of all detectors are compared in one pass: their
    hard decisions and soft estimates concatenated at once, their Q steps in
    groups of as many trials as fit in BATCH_WORDS words (one at least).
    Only the oracle's per-trial results are read, for their traces.
    """
    live, ors, oracle_errors = oracle
    rows = [[_row(m, n, pt, name, error=f"oracle: {oracle_errors[i]}") for name in names]
            if i in oracle_errors else [None] * len(names) for i, pt in enumerate(points)]
    if not live:
        return rows
    min_gap = [min([t.q_gap for t in o.trace if t.m >= 2], default=float("inf"))
               for o in ors.trials]
    gated = [gap > GATE_GAP for gap in min_gap]
    js, ks, outs = [], [], []     # detector and live trial of every trial that returned
    for j, name in enumerate(names):
        done, out, errors = runs[name]
        for k, exc in errors.items():
            rows[live[k]][j] = _row(m, n, points[live[k]], name, min_q_gap=min_gap[k],
                                    gated=gated[k], error=str(exc))
        if done:
            js += [j] * len(done)
            ks += done
            outs.append(out)
    if not outs:
        return rows

    def joined(field):
        return np.concatenate([getattr(out, field) for out in outs])

    hard = ((joined("s_hat") == ors.s_hat[ks]).all(axis=-1)
            & (joined("order") == ors.order[ks]).all(axis=-1))
    soft = np.abs(joined("soft") - ors.soft[ks]).max(axis=-1)
    q_or = _flat_steps(ors.q_steps)
    starts = np.cumsum([0] + [q[0].size for q in ors.q_steps[:-1]])   # each step's first entry
    scale = np.maximum.reduceat(np.abs(q_or), starts, axis=1)
    size = max(1, BATCH_WORDS // q_or.shape[1])
    cov = np.concatenate([_step_errors(_stacked_steps(outs, g, g + size), ks[g : g + size],
                                       q_or, starts, scale)
                          for g in range(0, len(ks), size)])
    # a NaN step error is no near-tie in the ordering: it fails the row, gated or not
    ok = ((~np.array(gated)[ks] | (hard & (soft <= SOFT_TOL) & (cov <= COV_RTOL)))
          & ~np.isnan(cov))
    for j, k, h, se, ce, good in zip(js, ks, hard.tolist(), soft.tolist(), cov.tolist(),
                                     ok.tolist()):
        _, snr_db, trial = points[live[k]]
        rows[live[k]][j] = {        # _row's fields, in its order
            "m": m, "n": n, "snr_db": snr_db, "trial": trial, "algorithm": names[j],
            "hard_match": h, "min_q_gap": min_gap[k], "max_soft_err": se, "max_cov_err": ce,
            "gated": gated[k], "ok": good, "error": "",
        }
    return rows


def _equiv_batch(args):
    """Rows of each point of a batch: the oracle over the batch, each detector
    over the trials whose oracle ran, as one batch."""
    m, n, points, seed, cancel_soft, names, cname = args
    c, chs, frames, rxs = _frames(m, n, points, seed, cname)
    kw = dict(cancel_soft=cancel_soft, collect_q=True)
    oracle = _run_batch("oracle", chs, rxs, c, **kw)
    live = oracle[0]
    runs = {}
    if live:
        for name in names:
            runs[name] = _run_batch(name, [chs[i] for i in live], [rxs[i] for i in live], c, **kw)
    return _equiv_rows(m, n, points, names, oracle, runs)


def equiv_trial(args):
    """Run the oracle plus the requested detectors on one trial.

    Returns per-detector comparison rows, each with the trial's gate status.
    A kernel singularity is recorded as a failed row, never raised.
    """
    m, n, snr_db, seed, trial, cancel_soft, names, cname = args
    return _equiv_batch((m, n, [(None, snr_db, trial)], seed, cancel_soft, names, cname))[0]


def run_equiv(cfg: SweepConfig):
    """Equivalence sweep; returns (csv_rows, failures)."""
    names = _recursive_names(cfg, "equiv")
    results = _map_ordered(_equiv_batch, _batches(cfg, names))
    flat = [row for batch in results for rows in batch for row in rows]
    flat.sort(key=lambda r: (r["m"], r["snr_db"], r["algorithm"], r["trial"]))
    failures = [
        f"equiv: {r['algorithm']} diverged from oracle at "
        f"M={r['m']} N={r['n']} snr={r['snr_db']} trial={r['trial']} "
        + (f"({r['error']})" if r["error"] else
           f"(soft={r['max_soft_err']:.3g}, cov={r['max_cov_err']:.3g}, gap={r['min_q_gap']:.3g})")
        for r in flat
        if not r["ok"]
    ]
    csv_rows = [
        (r["m"], r["n"], r["snr_db"], r["trial"], r["algorithm"],
         int(r["hard_match"]), r["min_q_gap"], r["max_soft_err"])
        for r in flat
    ]
    return csv_rows, failures


EQUIV_HEADER = ["M", "N", "snr_db", "trial", "algorithm", "hard_match", "min_q_gap", "max_soft_err"]


# ---------------------------------------------------------------------------
# flops


def _detector_run(name, m, n, seed, snr_db, cname):
    """One detector on trial 0 of the given point."""
    c, ch, frame, rx = _trial_frame(m, n, snr_db, seed, 0, cname)
    return get_detector(name)(ch, rx, c)


def detector_ledger(name, m, n, seed=1, snr_db=20.0, cname="qpsk") -> FlopLedger:
    """Ledger of one detector run; counts depend only on (M, N)."""
    return _detector_run(name, m, n, seed, snr_db, cname).ledger


def inversion_step_ledger(m, n, variant, seed=1) -> FlopLedger:
    """Ledger of the Gram-to-inverse step alone (R itself is not charged)."""
    ch = draw_channel(m, n, seed, stream=0)
    scratch = FlopLedger()
    r = init_gram(ch.h, 0.1, scratch)
    led = FlopLedger()
    init_q_recursive(r, led, variant=variant)
    return led


FLOPS_HEADER = ["M", "N", "algorithm", "cmul", "cadd", "cdiv", "predicted_mul", "gap"]
RATIOS_HEADER = ["M", "N", "ratio", "value"]


def run_flops(cfg: SweepConfig):
    """Flop sweep; returns (csv_rows, ratio_rows)."""
    names = _recursive_names(cfg, "flops")
    rows = []
    ratio_rows = []
    for m, n in cfg.dims():
        ledgers = {}
        for name in names:
            led = detector_ledger(name, m, n, seed=cfg.seed, cname=cfg.constellation)
            ledgers[name] = led
            rep = compare(led, TABLE_MODELS[MODEL_FOR_ALGORITHM[name]], m, n)
            rows.append((m, n, name, led.cmul, led.cadd, led.cdiv, rep.predicted, rep.relative_gap))
        pairs = [
            ("speed_adv/proposed_2", "speed_adv", "proposed_2"),
            ("mem_saving/proposed_2", "mem_saving", "proposed_2"),
            ("fastest_known/speed_adv", "fastest_known", "speed_adv"),
        ]
        for label, a, b in pairs:
            if a in ledgers and b in ledgers:
                ratio_rows.append((m, n, label, speedup(ledgers[a], ledgers[b])))
        led_i = inversion_step_ledger(m, n, "i", seed=cfg.seed)
        led_v = inversion_step_ledger(m, n, "v", seed=cfg.seed)
        if led_i.total_mul_add() and led_v.total_mul_add():   # degenerate at M=1
            ratio_rows.append((m, n, "init_i/init_v", speedup(led_i, led_v)))
            ratio_rows.append((m, n, "init_v_div/init_i_div", led_v.cdiv / led_i.cdiv))
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows, ratio_rows


# ---------------------------------------------------------------------------
# memory


MEM_HEADER = ["M", "N", "algorithm", "peak_words", "buffers"]


def detector_mem(name, m, n, seed=1, snr_db=20.0, cname="qpsk"):
    return _detector_run(name, m, n, seed, snr_db, cname).mem


def run_mem(cfg: SweepConfig):
    """Memory sweep; returns (csv_rows, failures)."""
    rows = []
    failures = []
    for m, n in cfg.dims():
        peaks = {}
        for name in cfg.algorithms:
            mem = detector_mem(name, m, n, seed=cfg.seed, cname=cfg.constellation)
            peaks[name] = mem.peak_words
            buf = ";".join(f"{bn}={bw}" for bn, bw in mem.buffers)
            rows.append((m, n, name, mem.peak_words, buf))
        if "proposed_2" in peaks and "mem_saving" in peaks and m == n and m >= 16:
            ratio = peaks["proposed_2"] / peaks["mem_saving"]
            if ratio > MEM_RATIO_BOUND:
                failures.append(
                    f"mem: proposed_2/mem_saving = {ratio:.4f} > {MEM_RATIO_BOUND} at M=N={m}"
                )
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows, failures


# ---------------------------------------------------------------------------
# bit error rate


def _ber_batch(args):
    """Per point of a batch: each detector's bit errors, or the error that trial raised.

    A detector's returning trials are demapped and counted at once, one row each."""
    m, n, points, seed, cancel_soft, names, cname = args
    c, chs, frames, rxs = _frames(m, n, points, seed, cname)
    sent = np.array([frame.bits for frame in frames])
    errors = [{} for _ in points]
    for name in names:
        done, out, raised = _run_batch(name, chs, rxs, c, cancel_soft=cancel_soft)
        if done:
            want = sent[done]
            got = demap(out.s_hat, c).reshape(want.shape)
            for i, count in zip(done, np.count_nonzero(got != want, axis=1).tolist()):
                errors[i][name] = count
        for i, exc in raised.items():
            errors[i][name] = exc
    return errors


def _raise_first(m, n, snr_db, trial, names, outcomes):
    """Raise the first detector error of a trial, naming where it happened."""
    for name in names:
        exc = outcomes[name]
        if isinstance(exc, ContractViolationError):
            raise exc
        if isinstance(exc, SingularMatrixError):
            raise SingularMatrixError(
                f"ber: {name} at M={m} N={n} snr={snr_db} trial={trial}: {exc}") from exc


BER_HEADER = ["M", "N", "snr_db", "algorithm", "bit_errors", "bits", "ber"]


def run_ber(cfg: SweepConfig):
    """BER sweep; returns csv rows aggregated over trials.

    A detector that fails on a trial raises that trial's first failure, in
    sweep order, as a ``SingularMatrixError`` naming the detector and trial
    (a ``ContractViolationError`` is raised as it is).
    """
    names = _recursive_names(cfg, "ber")
    batches = _batches(cfg, names)
    bits = constellation(cfg.constellation).bits_per_symbol
    totals = {}
    for (m, n, points, *_), results in zip(batches, _map_ordered(_ber_batch, batches)):
        for (group, snr, trial), errors in zip(points, results):
            _raise_first(m, n, snr, trial, names, errors)
            point = totals.setdefault(group, dict.fromkeys(names, 0))
            for name in names:
                point[name] += errors[name]
    rows = []
    for d, (m, n) in enumerate(cfg.dims()):
        for i, snr in enumerate(cfg.snr_db_list):
            total_bits = cfg.trials * m * bits
            for name in names:
                errs = totals[(d, i)][name]
                rows.append((m, n, snr, name, errs, total_bits, errs / total_bits))
    rows.sort(key=lambda r: (r[0], r[2], r[3]))
    return rows
