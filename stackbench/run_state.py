"""One benchmark run: its clocks, its checks and the metrics it reports."""

from __future__ import annotations

import numpy as np

from common import ProcessAccounting, Samples, now

# Every per-layer metric, with its unit.  A workload that does not exercise
# a layer reports 0 for it; the README says which workload moves which.
PER_LAYER = {
    "workloads.generate_s": "s",
    "builder.build_s": "s",
    "transport.spawn_s": "s",
    "processor.stage1_ms_p50": "ms",
    "processor.stage2_ms_p50": "ms",
    "processor.groups_refined_mean": "count",
    "processor.refine_us_per_group": "us",
    "processor.deadline_stops": "count",
    "processor.imax_stops": "count",
    "search.finalize_ms_p50": "ms",
    "search.merge_ms_p50": "ms",
    "backends.wait_ms_p99": "ms",
    "backends.batch_size_mean": "count",
    "router.shard_calls": "count",
    "router.hedges_issued": "count",
    "router.hedge_wins": "count",
    "router.hedge_win_ratio": "ratio",
    "admission.queue_ms_p99": "ms",
    "admission.queue_depth_max": "count",
    "admission.p99_ms_accuracy_critical": "ms",
    "admission.p99_ms_latency_critical": "ms",
    "admission.p99_ms_best_effort": "ms",
    "transport.kb_per_req": "KB",
    "transport.task_ms_p50": "ms",
    "updater.update_ms_p50": "ms",
    "updater.update_ms_p99": "ms",
    "updater.reaggregated_mean": "count",
    "state.publishes": "count",
    "state.full_n": "count",
    "state.cdc_n": "count",
    "state.semantic_n": "count",
    "state.kb_per_publish": "KB",
    "telemetry.spans_per_req": "count",
    "loadgen.late_ms_p99": "ms",
}

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "served_rps": "1/s",
    "accuracy_loss_pct": "%",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(RuntimeError):
    pass


class Check:
    """Collects failed expectations of one workload's output checks."""

    def __init__(self, name: str):
        self.name = name
        self.failures: list[str] = []
        self.n = 0

    def expect(self, ok: bool, what: str) -> None:
        self.n += 1
        if not ok:
            self.failures.append(what)

    def done(self) -> None:
        if self.failures:
            shown = "; ".join(self.failures[:5])
            raise CheckFailed(f"{self.name}: {len(self.failures)} of {self.n} "
                              f"checks failed: {shown}")


class Run:
    """State of one run, shared by ``run.py`` and the workload module."""

    def __init__(self, seed: int, seconds: float, trace: bool, t_start: float,
                 worker_cpu: int):
        self.seed = seed
        self.worker_cpu = worker_cpu
        self.seconds = seconds
        self.trace = trace
        self._t_start = t_start
        self._acct = ProcessAccounting()
        self.latencies: list[float] = []      # ms, one per served request
        self.attempted = 0
        self.failed = 0
        self.layers: dict[str, float] = {k: 0.0 for k in PER_LAYER}
        self.metrics: dict[str, float] = {}
        self._setup_s = None
        self._window = None

    # -- phases --------------------------------------------------------

    def setup_done(self) -> None:
        """The first measured request may now be sent."""
        self._setup_s = now() - self._t_start

    def start_window(self) -> float:
        """Start measuring; returns the perf-counter time the window ends."""
        self._acct.start()
        self._t0 = now()
        return self._t0 + self.seconds

    def finish_window(self) -> None:
        """Stop measuring; call before any worker process is shut down."""
        self._window = (now() - self._t0, self._acct.stop(),
                        self._acct.peak_rss_mb())

    # -- metrics -------------------------------------------------------

    @staticmethod
    def p50(values) -> float:
        return float(np.quantile(values, 0.5)) if len(values) else 0.0

    @staticmethod
    def p99(values) -> float:
        return float(np.quantile(values, 0.99)) if len(values) else 0.0

    def layer(self, name: str, value: float, unit: str) -> None:
        if PER_LAYER.get(name) != unit:
            raise KeyError(f"unknown per-layer metric {name} [{unit}]")
        self.layers[name] = float(value)

    def end_to_end(self, latencies, accuracy_loss_pct: float) -> None:
        seconds, cpu_s, rss_mb = self._window
        n = len(latencies)
        if n == 0:
            raise CheckFailed("no request was served")
        self.metrics = {
            "setup_s": self._setup_s,
            "p50_ms": self.p50(latencies),
            "p99_ms": self.p99(latencies),
            "served_rps": n / seconds,
            "accuracy_loss_pct": float(accuracy_loss_pct),
            "cpu_ms_per_req": cpu_s * 1e3 / n,
            "peak_rss_mb": rss_mb,
        }

    def processor_layers(self, reports, samples: Samples) -> None:
        """Algorithm 1 counts from ``ProcessingReport`` fields; timings from
        the :class:`~layers.TimingAdapter` when the run is traced."""
        groups = [rep.groups_processed for rep in reports]
        self.layer("processor.groups_refined_mean",
                   float(np.mean(groups)) if groups else 0.0, "count")
        self.layer("processor.deadline_stops",
                   sum(rep.hit_deadline for rep in reports), "count")
        self.layer("processor.imax_stops",
                   sum(rep.hit_imax for rep in reports), "count")
        self.layer("processor.stage1_ms_p50",
                   self.p50(samples.get("stage1_ms")), "ms")
        self.layer("processor.stage2_ms_p50",
                   self.p50(samples.get("stage2_ms")), "ms")
        calls = samples.counts.get("refine_calls", 0)
        self.layer("processor.refine_us_per_group",
                   samples.counts.get("refine_s", 0.0) * 1e6 / calls
                   if calls else 0.0, "us")
        self.layer("backends.wait_ms_p99", self.p99(samples.get("wait_ms")),
                   "ms")

    def router_layers(self, hedges: dict) -> None:
        self.layer("router.shard_calls", hedges["shard_calls"], "count")
        self.layer("router.hedges_issued", hedges["hedges_issued"], "count")
        self.layer("router.hedge_wins", hedges["hedge_wins"], "count")
        self.layer("router.hedge_win_ratio",
                   hedges["hedge_wins"] / hedges["hedges_issued"]
                   if hedges["hedges_issued"] else 0.0, "ratio")
