"""How each declared metric is computed from a run's records.

The metric names and units are read from ``BENCHMARK.json`` and nowhere
else; the functions below derive a value for every declared name, and a name
they cannot derive stops the run with a ``KeyError``.
"""

from __future__ import annotations

import json
import math
from statistics import median

import bootstrap
import reference

_DECLARED = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
# (name, unit) in declaration order
END_TO_END = tuple((m["name"], m["unit"]) for m in _DECLARED["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _DECLARED["per_layer"])

# metering.<kind>.<a>_over_<b>: a detector ratio, except the init ratio,
# whose variant i runs inside these detectors and variant v inside proposed_1
INIT_RATIO = "init_i_over_init_v"
INIT_I_OWNERS = ("fastest_known", "speed_adv")
INIT_V_OWNER = "proposed_1"


def quantile(values, q):
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ratio(a, b):
    return a / b if b else 0.0


def timings(plain, trials_per_unit, setup_samples, slices):
    """Timing metrics at reference speed under their end-to-end names, the
    same in wall time under ``bench.wall.*``, and the host's speed."""
    out = {"bench.host_speed": reference.host_speed(slices)}
    for prefix, field, which in (("", "scaled_s", 1), ("bench.wall.", "latency_s", 0)):
        lat_ms = [getattr(r, field) * 1e3 for r in plain]
        out[prefix + "trials_per_s"] = len(plain) * trials_per_unit * 1e3 / sum(lat_ms)
        out[prefix + "latency_p50_ms"] = median(lat_ms)
        out[prefix + "latency_p90_ms"] = quantile(lat_ms, 0.9)
        out[prefix + "setup_s"] = median(sample[which] for sample in setup_samples)
    return out


def end_to_end(plain, timings, rss_mib):
    return {
        **timings,
        "counted_muladd_per_unit": median(r.counted[0] for r in plain),
        "counted_div_per_unit": median(r.counted[1] for r in plain),
        "counted_peak_words_per_unit": median(r.counted[2] for r in plain),
        "peak_rss_mib": rss_mib,
    }


def _span_key(name):
    """Key of the per-unit span totals that a per-layer metric is the median of."""
    if name == "harness.csv_bytes":
        return "harness.write_csv.extra"
    if name.endswith(".peak_words"):
        return name[: -len("peak_words")] + "extra"
    return name


def per_layer(plain, traced, bench):
    """Per-layer medians per unit: span totals from ``traced``, detector
    wall time and counted work from the untraced ``plain`` records;
    ``bench`` holds the ``bench.*`` values measured elsewhere."""
    layers = [r.detail["layers"] for r in traced]

    def med(key):
        return median(d.get(key, 0.0) for d in layers)

    def total(key):
        return sum(d.get(key, 0.0) for d in layers)

    def det_med(field, det):
        return median(r.detail[field].get(det, 0) for r in plain)

    def metering(kind, suffix):
        if suffix == INIT_RATIO:
            field = "muladd" if kind == "flop_ratio" else "ms"
            init_i = sum(med(f"init_q_recursive@detectors.{d}.{field}") for d in INIT_I_OWNERS)
            init_v = med(f"init_q_recursive@detectors.{INIT_V_OWNER}.{field}")
            return _ratio(init_i / len(INIT_I_OWNERS), init_v)
        a, b = suffix.split("_over_")
        field = "det_muladd" if kind == "flop_ratio" else "det_s"
        return _ratio(det_med(field, a), det_med(field, b))

    plain_s = median(r.scaled_s for r in plain)
    traced_s = median(r.scaled_s for r in traced)
    bench = {**bench, "bench.trace_overhead_pct": (_ratio(traced_s, plain_s) - 1.0) * 100.0}
    out = {}
    for name, _unit in PER_LAYER:
        if name.startswith("bench."):
            out[name] = bench[name]
        elif name.startswith("metering."):
            _, kind, suffix = name.split(".")
            out[name] = metering(kind, suffix)
        elif name.endswith(".mflops"):
            span = name[: -len(".mflops")]
            out[name] = _ratio(total(f"{span}.muladd"), total(f"{span}.ms")) / 1e3
        else:
            out[name] = med(_span_key(name))
    return out
