"""Counting and tracing installed from outside the library.

:class:`Meter` wraps each ``detectors.ALGORITHMS`` entry to sum the counted
work of the calls a unit makes and to time each detector call.  It is
installed in every run, traced or not, so both pay the same two clock reads
per detector call.

:class:`Tracer` replaces module attributes of ``vblast.harness``,
``vblast.detectors`` and ``vblast.kernels`` with span-recording wrappers.  A
span is ``(name, start, end, parent, unit, muladd, cdiv, extra)``; spans stay
in memory until the unit ends, when :meth:`Tracer.close_unit` folds them into
per-unit totals (inclusive time, self time = span minus its direct children,
calls, counted work) and drops them.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from vblast import detectors, harness, kernels
from vblast.kernels import FlopLedger

DETECTOR_LAYER = "detectors"


class Meter:
    """Per-unit counted work and per-detector wall time of the detector calls.

    The oracle is flop-exempt: its calls are timed but add no counted work
    and no peak words.
    """

    def __init__(self):
        self._originals = {}
        self.reset()

    def reset(self):
        self.muladd = 0
        self.cdiv = 0
        self.peak_words = 0
        self.det_s = defaultdict(float)
        self.det_muladd = defaultdict(int)

    def _wrap(self, name, fn):
        counted = name != "oracle"

        def metered(*args, **kwargs):
            t0 = perf_counter()
            res = fn(*args, **kwargs)
            self.det_s[name] += perf_counter() - t0
            if counted:
                work = res.ledger.total_mul_add()
                self.muladd += work
                self.cdiv += res.ledger.cdiv
                self.peak_words += res.mem.peak_words
                self.det_muladd[name] += work
            return res

        return metered

    def __enter__(self):
        self._originals = dict(detectors.ALGORITHMS)
        for name, fn in self._originals.items():
            detectors.ALGORITHMS[name] = self._wrap(name, fn)
        return self

    def __exit__(self, *exc):
        detectors.ALGORITHMS.update(self._originals)
        return False


# attribute -> span name.  The detectors import the kernels by name, so each
# kernel is replaced in both the kernels and the detectors namespace.
_KERNEL_SPANS = {
    "rank1_update_herm": "kernels.rank1_update_herm",
    "matvec": "kernels.matvec",
    "conj_matvec": "kernels.matvec",
    "vdot_c": "kernels.matvec",
    "init_gram": "kernels.init_gram",
    "init_q_recursive": "kernels.init_q_recursive",
    "init_q_sherman_morrison": "kernels.init_q_sherman_morrison",
    "gauss_jordan_inverse": "kernels.gauss_jordan_inverse",
}
_HARNESS_SPANS = {
    "run_equiv": "harness.sweep",
    "run_ber": "harness.sweep",
    "equiv_trial": "harness.equiv_trial",
    "ber_trial": "harness.ber_trial",
    "write_csv": "harness.write_csv",
    "draw_channel": "sigmodel.trial_frame",
    "random_frame": "sigmodel.trial_frame",
    "transmit": "sigmodel.trial_frame",
    "demap": "sigmodel.demap",
}


def _ledger_in(args):
    for a in args:
        if isinstance(a, FlopLedger):
            return a
    return None


class Tracer:
    """Span recorder; use as a context manager around the traced units."""

    def __init__(self):
        self.unit = -1
        self.spans = []
        self.ticks = 0
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, kind):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            led = _ledger_in(args) if kind == "ledger" else None
            if led is not None:
                w0, d0 = led.cmul + led.cadd, led.cdiv
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (name, t0, perf_counter(), parent, self.unit, 0, 0, 0)
                raise
            t1 = perf_counter()
            stack.pop()
            work = div = extra = 0
            if led is not None:
                work, div = led.cmul + led.cadd - w0, led.cdiv - d0
            elif kind == "detector":
                work, div, extra = res.ledger.total_mul_add(), res.ledger.cdiv, res.mem.peak_words
            elif kind == "csv":
                extra = os.path.getsize(args[0])
            spans[idx] = (name, t0, t1, parent, self.unit, work, div, extra)
            return res

        return traced

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        # an attribute the library no longer has is skipped; its metrics then read 0
        for attr, name in _HARNESS_SPANS.items():
            if hasattr(harness, attr):
                kind = "csv" if attr == "write_csv" else "plain"
                self._patch(harness, attr, self._span(name, getattr(harness, attr), kind))
        if hasattr(detectors, "quantize"):
            self._patch(detectors, "quantize",
                        self._span("sigmodel.quantize", detectors.quantize, "plain"))
        for attr, name in _KERNEL_SPANS.items():
            kind = "plain" if attr == "gauss_jordan_inverse" else "ledger"
            for module in (kernels, detectors):
                if hasattr(module, attr):
                    self._patch(module, attr, self._span(name, getattr(module, attr), kind))
        algorithms = detectors.ALGORITHMS
        self._restore.append((algorithms, None, dict(algorithms)))
        for det, fn in list(algorithms.items()):
            algorithms[det] = self._span(f"{DETECTOR_LAYER}.{det}", fn, "detector")
        tick = FlopLedger.tick

        def counted_tick(led, cmul=0, cadd=0, cdiv=0):
            self.ticks += 1
            tick(led, cmul, cadd, cdiv)

        self._patch(FlopLedger, "tick", counted_tick)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)
        return False

    # -- per-unit folding -------------------------------------------------

    def close_unit(self):
        """Fold the unit's spans into totals keyed ``<span>.<field>``; drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        tot = defaultdict(float)
        for i, (name, t0, t1, parent, _unit, work, div, extra) in enumerate(spans):
            dur = t1 - t0
            tot[f"{name}.ms"] += dur * 1e3
            tot[f"{name}.self_ms"] += (dur - child[i]) * 1e3
            tot[f"{name}.calls"] += 1
            tot[f"{name}.muladd"] += work
            tot[f"{name}.cdiv"] += div
            tot[f"{name}.extra"] += extra
            if name == "kernels.init_q_recursive" and parent >= 0:
                owner = spans[parent][0]
                tot[f"init_q_recursive@{owner}.ms"] += dur * 1e3
                tot[f"init_q_recursive@{owner}.muladd"] += work
        tot["kernels.ledger.ticks"] = self.ticks
        spans.clear()
        self.ticks = 0
        return dict(tot)
