"""Command line front end.

Subcommands
-----------
``equiv``  run all detectors against the brute-force oracle and record
           agreement per trial; nonzero exit if any gated assertion fails.
``flops``  per-algorithm operation counts vs. the dominant-complexity
           models, plus a ratios file with the headline speedups.
``mem``    peak working-set words per algorithm; asserts the single-buffer
           algorithm stays within 0.55x of ``mem_saving`` at M = N >= 16.
``ber``    Monte-Carlo bit error rates per algorithm; a detector failing
           numerically on a trial ends the run with ``FAIL:`` and exit 1.

Misuse, and a request too large for the machine's memory, end with one
``error:`` line and exit 2; a run that fails leaves no new file behind.

``VBLAST_WORKERS`` bounds the trial worker pool; it changes speed only,
never output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .detectors import ALGORITHMS, DETECTOR_NAMES
from .errors import ContractViolationError, SingularMatrixError
from .harness import (
    BER_HEADER,
    EQUIV_HEADER,
    FLOPS_HEADER,
    MEM_HEADER,
    RATIOS_HEADER,
    SweepConfig,
    cannot_write,
    run_ber,
    run_equiv,
    run_flops,
    run_mem,
    write_csv,
)


def _items(text: str) -> list[str]:
    """The items of a comma-separated list; an empty one (``2,,4``, ``10,``, or
    an empty list) is misuse, not skipped."""
    items = text.split(",")
    if "" in items:
        raise argparse.ArgumentTypeError(f"empty item in the list {text!r}")
    return items


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in _items(text)]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in _items(text)]


def _algo_list(text: str) -> list[str]:
    names = _items(text)
    if names == ["all"]:
        return list(DETECTOR_NAMES)
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)} or 'all'"
            )
    return names


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--algo", type=_algo_list, default=list(DETECTOR_NAMES),
                     help="comma-separated algorithm names, or 'all' (default: all)")
    sub.add_argument("--m", type=_int_list, default=[4],
                     help="comma-separated transmit antenna counts (default: 4)")
    sub.add_argument("--n", type=_int_list, default=None,
                     help="receive antenna counts; default N=M")
    sub.add_argument("--snr-db", type=_float_list, default=[20.0],
                     help="comma-separated SNR points in dB (default: 20)")
    sub.add_argument("--trials", type=int, default=100,
                     help="Monte-Carlo trials per grid point (default: 100)")
    sub.add_argument("--seed", type=int, default=1, help="RNG seed (default: 1)")
    sub.add_argument("--constellation", default="qpsk",
                     help="symbol alphabet, qpsk or qam16 (default: qpsk)")
    sub.add_argument("--cancel-soft", action="store_true",
                     help="cancel with the soft estimate instead of the sliced symbol")
    sub.add_argument("--out", type=Path, required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a mistyped option (--snr for --snr-db) is misuse, not a guess
    parser = argparse.ArgumentParser(prog="vblast", allow_abbrev=False,
                                     description="Instrumented recursive V-BLAST detector harness")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("equiv", "cross-check all detectors against the brute-force oracle"),
        ("flops", "operation counts and speedup ratios"),
        ("mem", "peak working-set comparison"),
        ("ber", "bit error rate simulation"),
    ]:
        _add_common(subs.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


def _config(args) -> SweepConfig:
    return SweepConfig(
        algorithms=args.algo,
        m_list=args.m,
        n_list=args.n,
        snr_db_list=args.snr_db,
        trials=args.trials,
        seed=args.seed,
        cancel_soft=args.cancel_soft,
        constellation=args.constellation,
    )


def _request(args) -> str:
    """The sweep a command line asks for, in words."""
    n = ",".join(map(str, args.n)) if args.n else "M"
    return (f"vblast {args.command} at M={','.join(map(str, args.m))}, N={n}, "
            f"{args.trials} trials per point")


def _run(command: str, cfg: SweepConfig, out: Path) -> list[str]:
    """Try the output paths, run one subcommand, write its CSVs; return its gate failures."""
    paths = [out, out.parent / f"{out.stem}.ratios.csv"] if command == "flops" else [out]
    made = [p for p in (*out.parents[::-1], *paths) if not p.exists()]
    failures: list[str] = []
    try:
        for path in paths:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                open(path, "a").close()     # an existing file keeps its bytes
            except OSError as exc:
                raise cannot_write(path, exc) from None
        if command == "equiv":
            rows, failures = run_equiv(cfg)
            write_csv(out, EQUIV_HEADER, rows)
        elif command == "flops":
            rows, ratio_rows = run_flops(cfg)
            write_csv(out, FLOPS_HEADER, rows)
            write_csv(paths[1], RATIOS_HEADER, ratio_rows)
            print(f"wrote {out} and {paths[1]}")
        elif command == "mem":
            rows, failures = run_mem(cfg)
            write_csv(out, MEM_HEADER, rows)
        elif command == "ber":
            rows = run_ber(cfg)
            write_csv(out, BER_HEADER, rows)
    except BaseException:       # a run without results leaves no new file or directory
        for path in reversed(made):
            with contextlib.suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink()
        raise
    return failures


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        failures = _run(args.command, _config(args), args.out)
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularMatrixError as exc:     # a detector failed numerically on a trial
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # a request too large for this machine, not a crash
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory for {_request(args)}{detail}", file=sys.stderr)
        return 2
    if failures:
        print(f"FAIL: {failures[0]}", file=sys.stderr)
        if len(failures) > 1:
            print(f"({len(failures) - 1} further failures)", file=sys.stderr)
        return 1
    print(f"ok: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
