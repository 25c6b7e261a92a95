"""Outside-in tracing of irsmas: wrap each layer's functions where their
caller looks them up, record spans in memory, and derive per-layer metrics.

Wrappers only observe: they pass arguments through, and return the callee's
result object unchanged.  A span is (name, start, end, parent, trial); a
layer's self time is its span's duration minus the durations of its child
spans.  Spans stay in flat arrays until ``save`` writes them once.
"""

import importlib
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# span name -> the (module, attribute) pairs where callers look the function up
SPANS = {
    "harness.run_trial": [("irsmas.harness", "run_trial")],
    "channel.trial_rng": [("irsmas.harness", "trial_rng")],
    "channel.sample_channel": [("irsmas.harness", "sample_channel")],
    "channel.propagate": [("irsmas.harness", "propagate")],
    "transmitter.encode": [("irsmas.harness", "encode")],
    "transmitter.reflector_phases": [
        ("irsmas.transmitter", "reflector_phases"),
        ("irsmas.detection", "reflector_phases"),
        ("irsmas.baselines", "reflector_phases"),
        ("irsmas.channel", "reflector_phases"),
    ],
    "detection.ml_detect": [("irsmas.harness", "ml_detect")],
    "detection.ssd_detect": [("irsmas.harness", "ssd_detect")],
    "detection.rac_candidates": [("irsmas.detection", "rac_candidates")],
    "detection.ssd_candidate_decode": [("irsmas.detection", "ssd_candidate_decode")],
    "detection.quantize": [("irsmas.detection", "quantize")],
    "rac.rac_find": [("irsmas.detection", "rac_find")],
    "baselines.sas_encode": [("irsmas.harness", "sas_encode")],
    "baselines.sas_detect": [("irsmas.harness", "sas_detect")],
}

# per-layer metric -> span whose self time per trial it reports
SELF_US = {
    "channel.trial_rng_us": "channel.trial_rng",
    "channel.sample_channel_us": "channel.sample_channel",
    "channel.propagate_us": "channel.propagate",
    "transmitter.encode_us": "transmitter.encode",
    "transmitter.reflector_phases_us": "transmitter.reflector_phases",
    "detection.ssd_detect_us": "detection.ssd_detect",
    "detection.ssd_candidate_decode_us": "detection.ssd_candidate_decode",
    "detection.rac_candidates_us": "detection.rac_candidates",
    "detection.quantize_us": "detection.quantize",
    "detection.ml_detect_us": "detection.ml_detect",
    "rac.rac_find_us": "rac.rac_find",
    "baselines.sas_encode_us": "baselines.sas_encode",
    "baselines.sas_detect_us": "baselines.sas_detect",
    "harness.run_trial_self_us": "harness.run_trial",
}
CALLS = {
    "transmitter.reflector_phases_calls": "transmitter.reflector_phases",
    "rac.rac_find_calls": "rac.rac_find",
}
POOL = "harness.pool"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder for one traced sweep, plus the receiver-stage counts."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial = array("i")
        self.stack = []
        self.current_trial = -1
        self.counts = Counter()
        self.pools = []           # (span index, worker processes) per pool
        self._true_row = None     # antenna tuple the transmitter selected
        self._decoded = []        # rows ssd_candidate_decode was asked to decode

    # -- recording -----------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trial.append(self.current_trial)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        observe = getattr(self, "_observe_" + fn.__name__, None)
        before = getattr(self, "_before_" + fn.__name__, None)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _pool_factory(self, real_pool):
        tracer = self
        nid = self._name_id(POOL)

        class TracedPool:
            """Context manager around a real pool; ``with`` yields the real pool."""

            def __init__(self, processes=None, *args, **kwargs):
                self._idx = tracer._open(nid)
                try:
                    self._pool = real_pool(processes, *args, **kwargs)
                except BaseException:
                    tracer._close(self._idx)
                    raise
                tracer.pools.append((self._idx, processes or os.cpu_count()))

            def __enter__(self):
                return self._pool.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._pool.__exit__(*exc)
                finally:
                    tracer._close(self._idx)

        return TracedPool

    @contextmanager
    def installed(self, layers=True):
        """Patch the lookup attributes for the duration of the block.

        With ``layers`` false only ``harness.Pool`` is wrapped (the layers then
        run in worker processes whose spans this process cannot see).
        Attributes that do not exist are skipped: their metrics read as not
        called.
        """
        undo = []
        try:
            harness = importlib.import_module("irsmas.harness")
            if hasattr(harness, "Pool"):
                undo.append((harness, "Pool", harness.Pool))
                harness.Pool = self._pool_factory(harness.Pool)
            for name, sites in SPANS.items() if layers else ():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if callable(fn):
                        undo.append((module, attr, fn))
                        setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(undo):
                setattr(module, attr, fn)

    # -- observers: read arguments and results, never change them ------------

    def _before_run_trial(self, args, kwargs):
        self.current_trial = _arg(args, kwargs, 3, "trial_index")
        self._true_row = None
        self._decoded = []

    def _observe_encode(self, args, kwargs, tx):
        self._true_row = tuple(int(a) for a in tx.sel)

    def _observe_rac_candidates(self, args, kwargs, cands):
        self.counts["ssd_candidates_ranked"] += len(cands.rows)

    def _observe_ssd_candidate_decode(self, args, kwargs, result):
        self._decoded.append(_arg(args, kwargs, 2, "p_hat"))

    def _observe_ssd_detect(self, args, kwargs, result):
        table = _arg(args, kwargs, 3, "table")
        rows = {tuple(int(a) for a in table.rows[p]) for p in self._decoded}
        self.counts["ssd_detects"] += 1
        self.counts["ssd_decodes"] += len(self._decoded)
        self.counts["ssd_shortlist_hits"] += self._true_row in rows
        self._observe_detect(table, result)

    def _observe_ml_detect(self, args, kwargs, result):
        self._observe_detect(_arg(args, kwargs, 3, "table"), result)

    def _observe_detect(self, table, result):
        detected = tuple(int(a) for a in table.rows[result.rac_index])
        self.counts["detects"] += 1
        self.counts["rows_correct"] += detected == self._true_row
        self.counts["macs"] += result.mac_count

    # -- results ---------------------------------------------------------------

    def totals(self):
        """name -> (calls, total ns, self ns)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        names = np.frombuffer(self.name_id, dtype=np.int32)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def layer_metrics(self, trials: int, points: int, children_cpu_s: float):
        """Per-layer metrics of the traced sweep, with the names of layers
        that were never called (their metrics read 0)."""
        t = self.totals()
        c = self.counts
        none = (0, 0.0, 0.0)
        metrics, not_called = {}, []
        for metric, span in SELF_US.items():
            calls, _, own = t.get(span, none)
            metrics[metric] = (own / 1e3 / trials if calls else 0.0, "us")
            if not calls:
                not_called.append(span)
        for metric, span in CALLS.items():
            metrics[metric] = (t.get(span, none)[0] / trials, "calls/trial")
        detect_ns = t.get("detection.ml_detect", none)[1] + t.get("detection.ssd_detect", none)[1]
        ssd = c["ssd_detects"]
        metrics.update({
            "detection.ns_per_mac": (detect_ns / c["macs"] if c["macs"] else 0.0, "ns/MAC"),
            "detection.ssd_candidates_ranked": (c["ssd_candidates_ranked"] / ssd if ssd else 0.0, "count"),
            "detection.ssd_decodes": (c["ssd_decodes"] / ssd if ssd else 0.0, "count"),
            "detection.ssd_shortlist_hit_ratio": (c["ssd_shortlist_hits"] / ssd if ssd else 0.0, "ratio"),
            "detection.row_correct_ratio": (c["rows_correct"] / c["detects"] if c["detects"] else 0.0, "ratio"),
        })
        pool_calls, pool_ns, _ = t.get(POOL, none)
        worker_ns = sum((self.end[i] - self.start[i]) * n for i, n in self.pools)
        metrics["harness.pool_ms_per_point"] = (pool_ns / 1e6 / points if pool_calls else 0.0, "ms")
        metrics["harness.worker_busy_frac"] = (
            children_cpu_s * 1e9 / worker_ns if worker_ns else 0.0, "ratio")
        if not pool_calls:
            not_called.append(POOL)
        return metrics, not_called

    def save(self, path):
        """Write every span once, as compressed arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trial=np.frombuffer(self.trial, dtype=np.int32),
        )
