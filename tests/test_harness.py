"""Harness and CLI behavior: determinism, schemas, gates, exit codes."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vblast import harness
from vblast.cli import main
from vblast.detectors import ALGORITHMS, DETECTOR_NAMES
from vblast.errors import ContractViolationError, SingularMatrixError
from vblast.harness import (
    BATCH_TRIALS,
    BER_HEADER,
    COV_RTOL,
    EQUIV_HEADER,
    FLOPS_HEADER,
    GATE_GAP,
    MEM_HEADER,
    SOFT_TOL,
    SweepConfig,
    equiv_trial,
    run_ber,
    run_equiv,
    run_flops,
    run_mem,
    _batches,
    _ber_batch,
    _equiv_batch,
    _map_ordered,
    _run_batch,
    _trial_frame,
    worker_count,
    write_csv,
)
from vblast.sigmodel import (
    ChannelRealization,
    constellation,
    demap,
    draw_channel,
    random_frame,
    sigma_n2_for_snr_db,
    transmit,
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_sweepconfig_validation():
    with pytest.raises(ContractViolationError):
        SweepConfig(trials=0)
    with pytest.raises(ContractViolationError):
        SweepConfig(m_list=[0])
    with pytest.raises(ContractViolationError):
        SweepConfig(algorithms=["nope"])
    with pytest.raises(ContractViolationError):
        SweepConfig(m_list=[2, 4], n_list=[4])
    with pytest.raises(ContractViolationError):
        SweepConfig(m_list=[2, 4], n_list=[2, 3])


@pytest.mark.parametrize("name, value", [
    ("trials", "3"), ("trials", 2.5), ("trials", True), ("trials", None),
    ("snr_db_list", ["10"]), ("snr_db_list", 10.0), ("snr_db_list", [True]),
    ("constellation", None), ("constellation", 16),
    ("algorithms", "proposed_2"), ("algorithms", [None]),
    ("m_list", [2.5]), ("m_list", [True]), ("m_list", 4), ("m_list", []),
    ("n_list", [3.0]), ("n_list", "4"),
    ("seed", "1"), ("seed", 1.0),
    ("cancel_soft", "yes"), ("cancel_soft", 1), ("cancel_soft", None),
])
def test_sweepconfig_mistyped_field_is_misuse_naming_it(name, value):
    """A field of the wrong type is a typed error that names it, raised when the
    config is built, never a raw TypeError or AttributeError, a string read as its
    letters, or a config that fails later in a sweep."""
    with pytest.raises(ContractViolationError, match=f"^{name} must be"):
        SweepConfig(**{name: value})


def test_sweepconfig_takes_tuples_and_numpy_numbers():
    cfg = SweepConfig(algorithms=("speed_adv", "proposed_2"), m_list=(np.int64(2),),
                      n_list=[np.int32(3)], snr_db_list=(np.float64(10.0), 20), trials=np.int64(2),
                      seed=np.int64(-1), cancel_soft=True)
    rows = run_ber(cfg)
    assert [row[:2] for row in rows] == [(2, 3)] * 4


def test_equiv_small_grid_passes():
    cfg = SweepConfig(m_list=[2], snr_db_list=[20.0], trials=100, seed=1)
    rows, failures = run_equiv(cfg)
    assert failures == []
    assert len(rows) == 100 * 9
    # rows sorted by (M, snr, algorithm, trial); columns per schema
    assert len(rows[0]) == len(EQUIV_HEADER)
    # equiv_trial, which the benchmark replays, gives the sweep's rows for its
    # point (trials 0 and 57 ran in the sweep's first batch, 99 in its second)
    for trial in (0, 57, 99):
        got = [(r["m"], r["n"], r["snr_db"], r["trial"], r["algorithm"], int(r["hard_match"]),
                r["min_q_gap"], r["max_soft_err"])
               for r in equiv_trial((2, 2, 20.0, 1, trial, False, DETECTOR_NAMES, "qpsk"))]
        assert sorted(got, key=lambda r: r[4]) == [r for r in rows if r[3] == trial]


def test_equiv_row_fails_on_nan_q_steps(monkeypatch):
    """A detector whose every Q step is NaN fails its row instead of passing
    with a zero Q error."""
    import vblast.detectors as det

    speed_adv = det.ALGORITHMS["speed_adv"]

    def nan_steps(*args, **kw):
        out = speed_adv(*args, **kw)
        for res in getattr(out, "trials", [out]):
            res.q_steps = [q * np.nan for q in res.q_steps]
        return out

    monkeypatch.setitem(det.ALGORITHMS, "speed_adv", nan_steps)
    rows = equiv_trial((4, 4, 20.0, 1, 0, False, ["speed_adv", "proposed_2"], "qpsk"))
    bad, good = rows
    assert bad["algorithm"] == "speed_adv" and bad["gated"] and bad["hard_match"]
    assert np.isnan(bad["max_cov_err"])
    assert not bad["ok"]
    assert good["ok"] and good["max_cov_err"] <= 1e-9


def test_equiv_degenerate_single_stream():
    cfg = SweepConfig(m_list=[1], snr_db_list=[10.0], trials=20, seed=1)
    rows, failures = run_equiv(cfg)
    assert failures == []
    assert all(r[5] == 1 for r in rows)      # hard_match column


def test_equiv_csv_deterministic(tmp_path):
    cfg = SweepConfig(m_list=[2], snr_db_list=[10.0], trials=25, seed=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows1, _ = run_equiv(cfg)
    rows2, _ = run_equiv(cfg)
    write_csv(p1, EQUIV_HEADER, rows1)
    write_csv(p2, EQUIV_HEADER, rows2)
    assert read_bytes(p1) == read_bytes(p2)
    assert b"\r\n" not in read_bytes(p1)


def test_equiv_bytes_identical_with_worker_pool(tmp_path, monkeypatch):
    # the second configuration's trials span two batches per (M, N)
    assert 3 * 25 > BATCH_TRIALS
    for cfg in (SweepConfig(m_list=[2], snr_db_list=[10.0], trials=12, seed=5),
                SweepConfig(m_list=[2, 3], snr_db_list=[0.0, 10.0, 20.0], trials=25, seed=6)):
        monkeypatch.delenv("VBLAST_WORKERS", raising=False)
        rows_serial, _ = run_equiv(cfg)
        monkeypatch.setenv("VBLAST_WORKERS", "3")
        rows_pooled, _ = run_equiv(cfg)
        assert rows_serial == rows_pooled


def test_flops_rows_and_ratios():
    cfg = SweepConfig(m_list=[8], trials=1, seed=1)
    rows, ratios = run_flops(cfg)
    assert len(rows) == 9
    assert len(rows[0]) == len(FLOPS_HEADER)
    labels = {r[2] for r in ratios}
    assert {"speed_adv/proposed_2", "mem_saving/proposed_2",
            "fastest_known/speed_adv", "init_i/init_v"} <= labels


def test_flops_tiny_at_single_stream():
    cfg = SweepConfig(m_list=[1], trials=1)
    rows, _ = run_flops(cfg)
    for row in rows:
        assert row[3] <= 10 and row[5] <= 3    # cmul, cdiv all tiny


def test_flops_gap_non_increasing_endpoints():
    cfg = SweepConfig(algorithms=["proposed_2", "speed_adv"], m_list=[8, 16, 32, 64], trials=1)
    rows, _ = run_flops(cfg)
    for algo in ("proposed_2", "speed_adv"):
        gaps = [r[7] for r in rows if r[2] == algo]
        assert gaps[-1] < gaps[0]


def test_mem_rows_and_gate():
    cfg = SweepConfig(m_list=[16], trials=1)
    rows, failures = run_mem(cfg)
    assert failures == []
    assert len(rows[0]) == len(MEM_HEADER)
    peaks = {r[2]: r[3] for r in rows}
    assert peaks["proposed_2"] < peaks["speed_adv"]
    assert peaks["proposed_2"] <= 0.55 * peaks["mem_saving"]


MEM_PINS = {
    (4, 4): {
        "fastest_known": (36, "z=4;gram=16;inv=16"),
        "mem_saving": (40, "h_copy=16;x=4;inv=16;workvec=4"),
        "oracle": (84, "h_copy=16;x=4;gram=16;inv=16;gj_workspace=32"),
        "original": (56, "h_copy=16;x=4;gram=16;inv=16;workvec=4"),
        "proposed_1": (36, "z=4;gram=16;inv=16"),
        "proposed_2": (24, "ht=16;z=4;d=4"),
        "proposed_2_noperm": (24, "ht=16;z=4;d=4"),
        "proposed_2_tri": (34, "ht=16;z=4;d=4;q_packed=10"),
        "proposed_2_tri_noperm": (34, "ht=16;z=4;d=4;q_packed=10"),
        "speed_adv": (36, "z=4;gram=16;inv=16"),
    },
    (4, 6): {
        "fastest_known": (36, "z=4;gram=16;inv=16"),
        "mem_saving": (50, "h_copy=24;x=6;inv=16;workvec=4"),
        "oracle": (94, "h_copy=24;x=6;gram=16;inv=16;gj_workspace=32"),
        "original": (66, "h_copy=24;x=6;gram=16;inv=16;workvec=4"),
        "proposed_1": (36, "z=4;gram=16;inv=16"),
        "proposed_2": (32, "ht=24;z=4;d=4"),
        "proposed_2_noperm": (32, "ht=24;z=4;d=4"),
        "proposed_2_tri": (42, "ht=24;z=4;d=4;q_packed=10"),
        "proposed_2_tri_noperm": (42, "ht=24;z=4;d=4;q_packed=10"),
        "speed_adv": (36, "z=4;gram=16;inv=16"),
    },
}


@pytest.mark.parametrize("m, n", sorted(MEM_PINS))
def test_mem_rows_pin_every_ledger(m, n):
    """Exact peak and named buffers, in allocation order, for all ten algorithms."""
    rows, failures = run_mem(SweepConfig(algorithms=list(ALGORITHMS), m_list=[m],
                                         n_list=[n], trials=1))
    assert failures == []
    assert {r[2]: (r[3], r[4]) for r in rows} == MEM_PINS[(m, n)]


def test_mem_single_stream_no_assertion():
    cfg = SweepConfig(m_list=[1], trials=1)
    rows, failures = run_mem(cfg)
    assert failures == []


def test_ber_noiseless_is_zero():
    cfg = SweepConfig(algorithms=["proposed_2", "original"], m_list=[4],
                      snr_db_list=[float("inf")], trials=50, seed=2)
    rows = run_ber(cfg)
    assert all(r[4] == 0 and r[6] == 0.0 for r in rows)


def test_ber_identical_across_algorithms_on_gated_trials():
    """The batches ``vblast ber`` runs count the same bit errors for every
    detector on each trial the equivalence sweep gates."""
    names = ["speed_adv", "proposed_2", "mem_saving"]
    cfg = SweepConfig(algorithms=names, m_list=[4], snr_db_list=[8.0], trials=40, seed=9)
    errors = [e for args in _batches(cfg, names) for e in _ber_batch(args)]
    assert len(errors) == 40
    checked = 0
    for trial, errs in enumerate(errors):
        if equiv_trial((4, 4, 8.0, 9, trial, False, names, "qpsk"))[0]["gated"]:
            assert len(set(errs.values())) == 1
            checked += 1
    assert checked > 30


def test_ber_batch_counts_each_trial_and_keeps_each_error(monkeypatch):
    """A batch's bit errors are each trial's own count against its frame; a
    trial that raised keeps its error, and the other trials keep their counts."""
    names = ["proposed_2", "speed_adv"]
    cfg = SweepConfig(algorithms=names, m_list=[4], snr_db_list=[0.0], trials=5, seed=7,
                      constellation="qam16")
    (args,) = _batches(cfg, names)
    trials = [_trial_frame(4, 4, 0.0, 7, t, "qam16") for t in range(5)]
    counts = [{name: int(np.count_nonzero(demap(ALGORITHMS[name](ch, rx, c).s_hat, c)
                                          != frame.bits)) for name in names}
              for c, ch, frame, rx in trials]
    assert _ber_batch(args) == counts
    assert all(sum(errs.values()) > 0 for errs in counts)

    bad = trials[2][1].h
    speed_adv = ALGORITHMS["speed_adv"]

    def flaky(chs, rxs, c, **kw):
        if isinstance(chs, list) or np.array_equal(chs.h, bad):
            raise SingularMatrixError("flaky")
        return speed_adv(chs, rxs, c, **kw)

    monkeypatch.setitem(ALGORITHMS, "speed_adv", flaky)
    errors = _ber_batch(args)
    assert isinstance(errors[2]["speed_adv"], SingularMatrixError)
    errors[2]["speed_adv"] = counts[2]["speed_adv"]
    assert errors == counts


COLD_START = """
import sys

import vblast
from vblast import harness

c = vblast.constellation("qpsk")
ch = vblast.draw_channel(2, 2, 1)
rx = vblast.transmit(vblast.random_frame(2, c, 1, stream=1), ch, 0.1, 1, stream=2)
vblast.detect_proposed_2(ch, rx, c)
cfg = harness.SweepConfig(m_list=[2], snr_db_list=[10.0], trials=3)
harness.run_ber(cfg)
rows, _ = harness.run_equiv(cfg)
harness.write_csv(sys.argv[1], harness.EQUIV_HEADER, rows)
print(" ".join(m for m in ("numpy.ma", "multiprocessing", "concurrent.futures")
               if m in sys.modules))
"""


def test_one_process_run_loads_no_pool_modules(tmp_path):
    """A fresh interpreter running one detector, a BER and an equivalence sweep
    in one process loads neither the worker-pool modules nor numpy.ma."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, VBLAST_WORKERS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "equiv.csv"
    child = subprocess.run([sys.executable, "-c", COLD_START, str(out)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []
    assert out.read_text().startswith(",".join(EQUIV_HEADER))


def test_ber_monotone_in_snr():
    cfg = SweepConfig(algorithms=["proposed_2"], m_list=[4],
                      snr_db_list=[10.0, 25.0], trials=10_000, seed=4)
    rows = run_ber(cfg)
    ber = {r[2]: r[6] for r in rows}
    assert ber[25.0] < ber[10.0]
    assert rows[0][5] == 10_000 * 4 * 2       # bits column


def test_cli_equiv_roundtrip(tmp_path, capsys):
    out = tmp_path / "equiv.csv"
    code = main(["equiv", "--m", "2", "--snr-db", "20", "--trials", "20",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(EQUIV_HEADER)
    assert len(text.splitlines()) == 1 + 20 * 9


def test_cli_flops_ratio_file_carries_headline_values(tmp_path):
    out = tmp_path / "flops.csv"
    code = main(["flops", "--m", "64", "--algo", "speed_adv,proposed_2,mem_saving,fastest_known",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    lines = (tmp_path / "flops.ratios.csv").read_text().splitlines()[1:]
    ratios = {row.split(",")[2]: float(row.split(",")[3]) for row in lines}
    assert ratios["speed_adv/proposed_2"] == pytest.approx(1.30, abs=0.08)
    assert ratios["mem_saving/proposed_2"] == pytest.approx(1.86, abs=0.12)
    assert ratios["fastest_known/speed_adv"] == pytest.approx(1.22, abs=0.08)
    assert ratios["init_i/init_v"] == pytest.approx(1.67, abs=0.10)


def test_cli_mem_and_ber(tmp_path):
    assert main(["mem", "--m", "16", "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["mem", "--m", "2", "--algo", "all", "--out", str(tmp_path / "a.csv")]) == 0
    algos = [row.split(",")[2] for row in (tmp_path / "a.csv").read_text().splitlines()[1:]]
    assert algos == sorted(DETECTOR_NAMES)      # 'all': the nine recursive detectors
    assert main(["ber", "--m", "2", "--algo", "proposed_2", "--trials", "10",
                 "--snr-db", "15", "--out", str(tmp_path / "b.csv")]) == 0
    header = (tmp_path / "b.csv").read_text().splitlines()[0]
    assert header == ",".join(BER_HEADER)


def test_cli_ber_constellation_qam16(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["ber", "--constellation", "qam16", "--m", "4", "--trials", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    bits = lines[0].split(",").index("bits")
    assert len(lines) > 1
    assert all(int(line.split(",")[bits]) == 3 * 4 * 4 for line in lines[1:])


@pytest.mark.parametrize("command", ["equiv", "flops", "mem", "ber"])
def test_cli_rejects_unknown_constellation(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    code = main([command, "--constellation", "bpsk", "--m", "2", "--trials", "1",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown constellation 'bpsk'")
    assert not out.exists()


def test_cli_rejects_zero_trials(tmp_path):
    code = main(["equiv", "--m", "2", "--trials", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_rejects_fewer_receive_than_transmit_antennas(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["equiv", "--m", "4", "--n", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: need N >= M")
    assert not out.exists()


@pytest.mark.parametrize("snr", ["nan", "-inf"])
@pytest.mark.parametrize("command", ["equiv", "ber"])
def test_cli_rejects_snr_without_noise_variance(tmp_path, capsys, command, snr):
    """A NaN or -inf SNR is misuse, not a detector diverging: error and exit 2."""
    out = tmp_path / "x.csv"
    code = main([command, "--m", "2", "--trials", "2", f"--snr-db=20,{snr}", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: SNR must be a number of dB or inf (noiseless), got {snr}\n")
    assert not out.exists()
    assert main([command, "--m", "2", "--trials", "2", "--snr-db=20,inf", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["equiv", "flops", "mem", "ber"])
def test_cli_rejects_an_algorithm_named_twice(tmp_path, capsys, command):
    """A repeated name would count its trials twice in ``ber`` and repeat rows elsewhere."""
    out = tmp_path / "x.csv"
    code = main([command, "--algo", "speed_adv,proposed_2,speed_adv", "--m", "2",
                 "--trials", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: algorithm 'speed_adv' is listed twice\n"
    assert not out.exists()


def test_cli_types_an_output_path_it_cannot_write(tmp_path, capsys):
    """A directory, or a path under a file, is misuse: ``error:`` and exit 2."""
    (tmp_path / "afile").write_text("")
    for out, reason in [(tmp_path, "Is a directory"), (Path("/"), "Is a directory"),
                        (tmp_path / "afile" / "x.csv", f"{tmp_path / 'afile'}: File exists")]:
        assert main(["flops", "--m", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def test_cli_tries_the_output_path_before_the_sweep(tmp_path, capsys, monkeypatch):
    """An unwritable ``--out`` (or ``flops``' ratios path) ends the run with
    ``error:`` and exit 2 before any sweep runs, and leaves no new file."""
    def never(*args, **kw):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("vblast.cli.run_ber", never)
    monkeypatch.setattr("vblast.cli.run_flops", never)
    code = main(["ber", "--m", "16", "--snr-db", "0,10,20", "--trials", "200",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
    out = tmp_path / "new" / "f.csv"
    (tmp_path / "new" / "f.ratios.csv").mkdir(parents=True)
    assert main(["flops", "--m", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out.with_suffix('.ratios.csv')}: Is a directory\n")
    assert not out.exists()


def test_cli_failing_run_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    """A run that ends in ``FAIL:`` removes the file and directories the path
    check made, and keeps an existing file's bytes."""
    def failing(cfg):
        assert out.exists()             # made by the check, before the sweep
        raise SingularMatrixError("injected singular pivot")

    monkeypatch.setattr("vblast.cli.run_ber", failing)
    for out, made in [(tmp_path / "a" / "b" / "x.csv", []), (tmp_path / "old.csv", ["old.csv"])]:
        if made:
            out.write_text("kept\n")
        assert main(["ber", "--m", "2", "--trials", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "FAIL: injected singular pivot\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == made
    assert out.read_text() == "kept\n"


def test_cli_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A sweep too large for memory ends with one ``error:`` line naming the
    request, exit 2 and no traceback, and leaves no new file.  The allocation
    is made to fail; no test asks for the memory."""
    def no_memory(m, n, *args, **kw):
        raise MemoryError(f"Unable to allocate 74.5 GiB for an array with shape ({n}, {m})")

    monkeypatch.setattr("vblast.harness.draw_channel", no_memory)
    out = tmp_path / "new" / "ber.csv"
    assert main(["ber", "--m", "100000", "--trials", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: out of memory for vblast ber at M=100000, N=M, 1 trials per point: "
        "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["ber", "equiv", "flops"])
def test_cli_rejects_oracle_only(tmp_path, capsys, command):
    out = tmp_path / "b.csv"
    code = main([command, "--m", "2", "--algo", "oracle", "--trials", "1", "--out", str(out)])
    assert code == 2
    assert "recursive detector" in capsys.readouterr().err
    assert not out.exists()
    run = {"ber": run_ber, "equiv": run_equiv, "flops": run_flops}[command]
    with pytest.raises(ContractViolationError):
        run(SweepConfig(algorithms=["oracle"], m_list=[2], trials=1))


@pytest.mark.parametrize("raw", ["", "two", "1.5", "0", "-3"])
def test_worker_count_rejects_junk(monkeypatch, raw):
    monkeypatch.setenv("VBLAST_WORKERS", raw)
    with pytest.raises(ContractViolationError, match="VBLAST_WORKERS"):
        worker_count()


def test_worker_count_default_and_clamp(monkeypatch):
    monkeypatch.delenv("VBLAST_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setenv("VBLAST_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("VBLAST_WORKERS", "64")
    assert worker_count() == 4
    monkeypatch.setattr("os.cpu_count", lambda: None)   # count unknown
    assert worker_count() == 1


def test_pool_workers_run_with_one_blas_thread(monkeypatch):
    """Pooled workers see one BLAS thread; the parent's environment is as it was."""
    monkeypatch.setenv("VBLAST_WORKERS", "2")
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert _map_ordered(os.getenv, ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]) == ["1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "OMP_NUM_THREADS" not in os.environ


def test_cli_rejects_junk_worker_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VBLAST_WORKERS", "many")
    code = main(["equiv", "--m", "2", "--trials", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "VBLAST_WORKERS" in capsys.readouterr().err


def test_cli_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(SystemExit):
        main(["flops", "--algo", "bogus", "--m", "2", "--out", str(tmp_path / "x.csv")])


def test_float_formatting_12_digits(tmp_path):
    p = tmp_path / "f.csv"
    write_csv(p, ["v"], [(0.1234567890123456789,)])
    assert p.read_text().splitlines()[1] == "0.123456789012"


def test_write_csv_under_a_regular_file_is_misuse(tmp_path):
    (tmp_path / "f").write_text("")
    target = tmp_path / "f" / "out.csv"
    with pytest.raises(ContractViolationError) as info:
        write_csv(target, ["v"], [(1,)])
    assert str(info.value) == f"cannot write {target}: {target.parent}: File exists"


def test_mem_gate_reports_its_ratio(monkeypatch):
    """At M=N=16 proposed_2 peaks at 288 words against mem_saving's 544; a
    gate below that ratio reports it."""
    monkeypatch.setattr(harness, "MEM_RATIO_BOUND", 0.5)
    rows, failures = run_mem(SweepConfig(algorithms=["proposed_2", "mem_saving"], m_list=[16],
                                         trials=1))
    assert {r[2]: r[3] for r in rows} == {"proposed_2": 288, "mem_saving": 544}
    assert failures == ["mem: proposed_2/mem_saving = 0.5294 > 0.5 at M=N=16"]


def test_equiv_reports_a_soft_divergence(monkeypatch):
    """A detector whose soft estimates are off by 1e-6 fails every row with
    its soft, Q and gap figures."""
    import vblast.detectors as det

    speed_adv = det.ALGORITHMS["speed_adv"]

    def perturbed(*args, **kw):
        out = speed_adv(*args, **kw)
        for res in getattr(out, "trials", [out]):
            res.soft = res.soft + 1e-6
        return out

    monkeypatch.setenv("VBLAST_WORKERS", "1")       # the patch reaches no worker
    monkeypatch.setitem(det.ALGORITHMS, "speed_adv", perturbed)
    rows, failures = run_equiv(SweepConfig(algorithms=["speed_adv", "proposed_2"], m_list=[2],
                                           snr_db_list=[20.0], trials=2, seed=1))
    assert len(rows) == 4 and len(failures) == 2
    for trial, text in enumerate(failures):
        assert re.fullmatch(
            rf"equiv: speed_adv diverged from oracle at M=2 N=2 snr=20.0 trial={trial} "
            r"\(soft=1e-06, cov=\S+, gap=\S+\)", text), text


def test_ber_reraises_a_contract_violation_unchanged(monkeypatch):
    """A detector's misuse error ends ``run_ber`` as the error itself, not
    wrapped in a numerical failure naming the trial."""
    import vblast.detectors as det

    err = ContractViolationError("injected misuse")

    def misuse(*args, **kw):
        raise err

    monkeypatch.setenv("VBLAST_WORKERS", "1")
    monkeypatch.setitem(det.ALGORITHMS, "proposed_1", misuse)
    with pytest.raises(ContractViolationError) as info:
        run_ber(SweepConfig(algorithms=["speed_adv", "proposed_1"], m_list=[2], trials=2))
    assert info.value is err


def test_singularity_recorded_not_raised(monkeypatch, tmp_path, capsys):
    import vblast.detectors as det
    from vblast.errors import SingularMatrixError

    def boom(*a, **kw):
        raise SingularMatrixError("injected singular pivot")

    monkeypatch.delenv("VBLAST_WORKERS", raising=False)     # the patch reaches no worker
    monkeypatch.setitem(det.ALGORITHMS, "speed_adv", boom)
    cfg = SweepConfig(algorithms=["speed_adv", "proposed_2"], m_list=[2],
                      snr_db_list=[15.0], trials=3, seed=1)
    rows, failures = run_equiv(cfg)
    assert len(rows) == 6                     # a row per detector per trial
    assert any("injected singular pivot" in f for f in failures)
    assert all("proposed_2" not in f for f in failures)
    # the CLI reports the first gate failure and counts the rest
    code = main(["equiv", "--m", "2", "--snr-db", "15", "--trials", "3", "--seed", "1",
                 "--algo", "speed_adv,proposed_2", "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL: equiv: speed_adv diverged from oracle at M=2 N=2 snr=15.0 trial=0 "
        "(injected singular pivot)",
        "(2 further failures)",
    ]
    # an oracle failure fails every detector's row of the trial
    monkeypatch.setitem(det.ALGORITHMS, "oracle", boom)
    rows = equiv_trial((2, 2, 15.0, 1, 0, False, ["speed_adv", "proposed_2"], "qpsk"))
    assert [(r["algorithm"], r["ok"], r["error"]) for r in rows] == [
        (name, False, "oracle: injected singular pivot") for name in ("speed_adv", "proposed_2")]


def test_cli_ber_numerical_failure_is_reported(tmp_path, capsys):
    """A detector failing on a trial ends ``ber`` with FAIL and exit 1, no traceback."""
    code = main(["ber", "--m", "8", "--snr-db", "160", "--trials", "5", "--seed", "1",
                 "--algo", "mem_saving,speed_adv,proposed_2", "--out", str(tmp_path / "b.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("FAIL: ber: ")
    assert "at M=8 N=8 snr=160.0 trial=" in err
    assert "Traceback" not in err


def test_batch_with_one_failing_trial():
    """A trial that fails (one column scaled by 1e160, so that its Gram matrix
    overflows) makes its batch raise exactly its own error; run one by one,
    the other trials' outputs equal their own calls."""
    c = constellation("qpsk")

    def trial(seed, t, snr_db, column_scale=1.0):
        ch = draw_channel(16, 16, seed, stream=4 * t)
        frame = random_frame(16, c, seed, stream=4 * t + 1)
        rx = transmit(frame, ch, sigma_n2_for_snr_db(snr_db), seed, stream=4 * t + 2)
        h = ch.h.copy()
        h[:, 2] *= column_scale
        return ChannelRealization(h, 16, 16), rx

    trials = [trial(11, 0, 20.0), trial(1684, 1, 20.0, column_scale=1e160), trial(12, 0, 20.0)]
    chs, rxs = [t[0] for t in trials], [t[1] for t in trials]
    raised = 0
    for name in DETECTOR_NAMES:
        singles = []
        for ch, rx in zip(chs, rxs):
            try:
                singles.append(ALGORITHMS[name](ch, rx, c))
            except (SingularMatrixError, ContractViolationError) as exc:
                singles.append(exc)
        assert not isinstance(singles[0], Exception) and not isinstance(singles[2], Exception)
        got = _run_batch(name, chs, rxs, c)
        if isinstance(singles[1], Exception):
            raised += 1
            with pytest.raises(type(singles[1])) as info:
                ALGORITHMS[name](chs, rxs, c)
            assert str(info.value) == str(singles[1])
            assert (type(got[1]), str(got[1])) == (type(singles[1]), str(singles[1]))
        for i in (0, 2):
            for field in ("s_hat", "order", "soft"):
                assert getattr(got[i], field).tobytes() == getattr(singles[i], field).tobytes()
            assert got[i].trace == singles[i].trace
            assert got[i].ledger == singles[i].ledger
    assert raised == 9


def test_overflow_batch_types_every_trial_without_warnings():
    """A batch whose middle trial's Gram matrix overflows gives every trial
    its own call's outcome, with no floating-point warning escaping any
    routine, and all ten routines, the oracle too, type the overflow as
    numerical."""
    frames = [_trial_frame(8, 9, 20.0, 4, t, "qpsk") for t in range(3)]
    c, chs, rxs = frames[0][0], [f[1] for f in frames], [f[3] for f in frames]
    h = chs[1].h.copy()
    h[:, 2] *= 1e160
    chs[1] = ChannelRealization(h, 8, 9)
    for name in ALGORITHMS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _run_batch(name, chs, rxs, c)
            for ch, rx, res in zip(chs, rxs, got):
                try:
                    want = ALGORITHMS[name](ch, rx, c)
                except (SingularMatrixError, ContractViolationError) as exc:
                    assert (type(res), str(res)) == (type(exc), str(exc)), name
                    continue
                for field in ("s_hat", "order", "soft"):
                    assert getattr(res, field).tobytes() == getattr(want, field).tobytes()
                assert res.trace == want.trace
        assert isinstance(got[1], SingularMatrixError), (name, got[1])


def test_equiv_batch_mixed_outcomes_match_per_point(monkeypatch):
    """In one batch, one trial's oracle raises and another trial's detector
    raises; each point's rows equal those ``equiv_trial`` gives it alone."""
    import vblast.detectors as det

    m, seed, names = 3, 5, ["speed_adv", "proposed_2"]
    points = [((0, 0), 15.0, t) for t in range(4)]
    bad = {"oracle": draw_channel(m, m, seed, stream=4 * 1).h,
           "speed_adv": draw_channel(m, m, seed, stream=4 * 2).h}

    def failing(name):
        run = det.ALGORITHMS[name]

        def wrapped(ch, rx, c, **kw):
            if any(np.array_equal(one.h, bad[name])
                   for one in ([ch] if isinstance(ch, ChannelRealization) else ch)):
                raise SingularMatrixError(f"injected {name} failure")
            return run(ch, rx, c, **kw)
        return wrapped

    monkeypatch.delenv("VBLAST_WORKERS", raising=False)
    for name in bad:
        monkeypatch.setitem(det.ALGORITHMS, name, failing(name))
    got = _equiv_batch((m, m, points, seed, False, names, "qpsk"))
    want = [equiv_trial((m, m, snr, seed, t, False, names, "qpsk")) for _, snr, t in points]
    assert _as_text(got) == _as_text(want)
    errors = {(r["trial"], r["algorithm"]): r["error"]
              for point in got for r in point if r["error"]}
    assert errors == {(1, "speed_adv"): "oracle: injected oracle failure",
                      (1, "proposed_2"): "oracle: injected oracle failure",
                      (2, "speed_adv"): "injected speed_adv failure"}
    assert sum(not r["ok"] for point in got for r in point) == 3


@pytest.mark.parametrize("argv", [
    ["equiv", "--m", "2,,4"],
    ["equiv", "--snr-db", "10,"],
    ["equiv", "--m", ","],
    ["equiv", "--m", "2", "--n", ""],
    ["equiv", "--m", "2", "--n", "2,"],
    ["equiv", "--m", "2", "--n"],
    ["ber", "--algo", "speed_adv,,proposed_2"],
    ["equiv", "--snr", "10"],          # not an abbreviation of --snr-db
    ["ber", "--tri", "3"],             # nor of --trials
])
def test_cli_empty_list_items_and_abbreviated_options_are_misuse(tmp_path, capsys, argv):
    """An empty item in a comma list is misuse, not skipped, and an option is
    taken only by its full name: exit code 2, an ``error:`` line and no file."""
    out = tmp_path / "runs" / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def _reference_row(m, n, point, name, oracle, res):
    """One detector's comparison row on one trial, written out on its own."""
    _, snr_db, trial = point
    gap = min([t.q_gap for t in oracle.trace if t.m >= 2], default=math.inf)
    row = {"m": m, "n": n, "snr_db": snr_db, "trial": trial, "algorithm": name,
           "hard_match": False, "min_q_gap": gap, "max_soft_err": math.inf,
           "max_cov_err": math.inf, "gated": gap > GATE_GAP, "ok": False, "error": ""}
    if isinstance(res, Exception):
        return dict(row, error=str(res))
    hard = (np.array_equal(res.s_hat, oracle.s_hat)
            and np.array_equal(res.order, oracle.order))
    soft = float(np.abs(res.soft - oracle.soft).max())
    steps = [0.0]
    for got, want in zip(res.q_steps, oracle.q_steps, strict=True):
        scale = np.abs(want).max()
        with np.errstate(all="ignore"):
            steps.append(np.abs(got - want).max() / scale if scale != 0 else 0.0)
    cov = float(np.max(steps))      # a NaN step error stays NaN
    ok = ((not row["gated"] or (hard and soft <= SOFT_TOL and cov <= COV_RTOL))
          and not math.isnan(cov))
    return dict(row, hard_match=hard, max_soft_err=soft, max_cov_err=cov, ok=ok)


def _as_text(rows):
    """Rows with every field as its repr: NaN compares equal, and so must the types."""
    return [[{k: repr(v) for k, v in row.items()} for row in point] for point in rows]


def test_one_pass_comparison_matches_one_comparison_per_detector(monkeypatch):
    """A batch's rows, from one comparison over every detector's returning
    trials, equal each detector compared with the oracle on each trial alone,
    in every field: with one trial's oracle raising, one detector raising on
    one trial (its batch re-runs trial by trial), another's ``soft``
    perturbed on one trial, and one trial ungated (its oracle's ordering
    gaps set to 0), where that soft error does not fail the row."""
    import vblast.detectors as det

    m, seed, names = 4, 8, ["speed_adv", "proposed_2", "mem_saving"]
    points = [((0, 0), 10.0, t) for t in range(5)]
    frames = [_trial_frame(m, m, 10.0, seed, t, "qpsk") for t in range(5)]
    bad = {"oracle": frames[1][1].h, "speed_adv": frames[2][1].h}
    nudged, close = frames[3][1].h, frames[4][1].h

    def failing(name):
        run = det.ALGORITHMS[name]

        def wrapped(ch, rx, c, **kw):
            if any(np.array_equal(one.h, bad[name])
                   for one in ([ch] if isinstance(ch, ChannelRealization) else ch)):
                raise SingularMatrixError(f"injected {name} failure")
            return run(ch, rx, c, **kw)
        return wrapped

    def altered(name, h, change):
        run = det.ALGORITHMS[name]

        def wrapped(ch, rx, c, **kw):
            out = run(ch, rx, c, **kw)
            chs = [ch] if isinstance(ch, ChannelRealization) else ch
            for one, res in zip(chs, getattr(out, "trials", [out])):
                if np.array_equal(one.h, h):
                    change(res)
            return out
        return wrapped

    def nudge(res):
        res.soft = res.soft + 1e-6

    def tie(res):
        res.trace = [t._replace(q_gap=0.0) for t in res.trace]

    monkeypatch.delenv("VBLAST_WORKERS", raising=False)
    for name in bad:
        monkeypatch.setitem(det.ALGORITHMS, name, failing(name))
    monkeypatch.setitem(det.ALGORITHMS, "proposed_2", altered("proposed_2", nudged, nudge))
    monkeypatch.setitem(det.ALGORITHMS, "oracle", altered("oracle", close, tie))
    monkeypatch.setitem(det.ALGORITHMS, "mem_saving", altered("mem_saving", close, nudge))
    got = _equiv_batch((m, m, points, seed, False, names, "qpsk"))

    want = []
    kw = dict(cancel_soft=False, collect_q=True)
    for point, (c, ch, _frame, rx) in zip(points, frames):
        try:
            oracle = det.ALGORITHMS["oracle"](ch, rx, c, **kw)
        except SingularMatrixError as exc:
            want.append([harness._row(m, m, point, name, error=f"oracle: {exc}")
                         for name in names])
            continue
        outcomes = []
        for name in names:
            try:
                outcomes.append(det.ALGORITHMS[name](ch, rx, c, **kw))
            except SingularMatrixError as exc:
                outcomes.append(exc)
        want.append([_reference_row(m, m, point, name, oracle, res)
                     for name, res in zip(names, outcomes)])
    assert _as_text(got) == _as_text(want)
    failed = {(r["trial"], r["algorithm"]) for point in got for r in point if not r["ok"]}
    assert failed == {(1, "speed_adv"), (1, "proposed_2"), (1, "mem_saving"),
                      (2, "speed_adv"), (3, "proposed_2")}
    assert [[r["gated"] for r in point] for point in got] == [[True] * 3] * 4 + [[False] * 3]
    assert math.isclose(got[3][1]["max_soft_err"], 1e-6, rel_tol=1e-6)
    assert math.isclose(got[4][2]["max_soft_err"], 1e-6, rel_tol=1e-6)


@pytest.mark.parametrize("words", [45, 100, 250])
def test_equiv_comparison_groups_stay_within_batch_words(monkeypatch, words):
    """With ``BATCH_WORDS`` small, the comparison stacks the detectors' Q
    steps in groups of at most that many words (one trial's 30 at M=4), some
    cutting a detector's trials, and every row stays as it was."""
    args = (4, 4, [((0, 0), 15.0, t) for t in range(6)], 2, False, DETECTOR_NAMES, "qpsk")
    cfg = SweepConfig(m_list=[3, 4], snr_db_list=[0.0, 15.0], trials=5, seed=2)
    monkeypatch.delenv("VBLAST_WORKERS", raising=False)
    want_rows, want_sweep = _equiv_batch(args), run_equiv(cfg)
    groups = []
    step_errors = harness._step_errors

    def spy(got, *rest):
        groups.append(sum(q.size for res in got for q in res.q_steps))
        return step_errors(got, *rest)

    monkeypatch.setattr(harness, "BATCH_WORDS", words)
    monkeypatch.setattr(harness, "_step_errors", spy)
    assert _as_text(_equiv_batch(args)) == _as_text(want_rows)
    assert len(groups) == -(-54 // (words // 30))      # 6 trials x 9 detectors
    assert run_equiv(cfg) == want_sweep
    assert max(groups) <= words


def test_write_csv_bytes_are_the_csv_writers(tmp_path):
    """Rows written through one format per tuple of field types give the csv
    writer's bytes, floats to 12 significant digits and anything else as
    ``str``; a field that needs quoting takes the csv writer's own path."""
    header = ["a", "b,c"]
    rows = [(1, "plain", 0.1234567890123456), ("a,b", 2), ("",), (), ("x\ny", 2),
            ('q"q', -0.0), ("\r",), [1.0, 2], (None, True, np.float64(1 / 3), np.int64(7),
                                                math.nan, -math.inf, math.inf),
            ("a b ", 1e300, 1e-300, 123456789012345.0, -5), ("", "")]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row])
    path = tmp_path / "rows.csv"
    write_csv(path, header, rows)
    assert read_bytes(path) == want.getvalue().encode()
