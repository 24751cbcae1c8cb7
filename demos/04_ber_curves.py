"""Bit error rate over SNR: all routines give identical link performance.

Because the recursive routines are exact rewrites of the same detector, they
produce the same bit decisions frame by frame (up to ordering near-ties), so
their BER curves coincide.  The script sweeps a 4x4 QPSK link and prints the
per-algorithm BER; a CSV with the same numbers lands next to this file.
"""

from pathlib import Path

from vblast import SweepConfig
from vblast.harness import BER_HEADER, run_ber, write_csv


def main():
    cfg = SweepConfig(
        algorithms=["original", "mem_saving", "speed_adv", "proposed_2"],
        m_list=[4],
        snr_db_list=[0.0, 5.0, 10.0, 15.0, 20.0],
        trials=2000,
        seed=7,
    )
    rows = run_ber(cfg)

    out = Path(__file__).with_suffix(".csv")
    write_csv(out, BER_HEADER, rows)
    print(f"wrote {out}\n")

    print(f"{'snr_db':>7s} {'algorithm':>12s} {'bit_errors':>11s} {'bits':>8s} {'ber':>10s}")
    for m, n, snr, algo, errs, bits, ber in rows:
        print(f"{snr:7.1f} {algo:>12s} {errs:11d} {bits:8d} {ber:10.3e}")

    print("\nper-SNR spread across algorithms (should be zero or binomial noise):")
    for snr in cfg.snr_db_list:
        errs = [r[4] for r in rows if r[2] == snr]
        print(f"  {snr:5.1f} dB: min={min(errs)} max={max(errs)}")


if __name__ == "__main__":      # pooled workers (VBLAST_WORKERS > 1) import this file
    main()
