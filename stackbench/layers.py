"""Benchmark-side adapter wrappers.

The program's adapters are the seam every layer calls into, so wrapping
one is how the benchmark times the Algorithm 1 kernel from outside:

:class:`TimingAdapter` (traced runs only) times stage 1, every refinement
step and ``finalize``, and measures how long a request waited between
dispatch and its first stage-1 call.  It delegates everything else
unchanged, including the vectorized ``initial_result_batch``, so answers
are the same as without it.
"""

from __future__ import annotations

import threading

from repro.core.adapters import ServiceAdapter

from common import Samples, now


class Delegating(ServiceAdapter):
    """A :class:`ServiceAdapter` that forwards every call to ``inner``.

    Exposes the wrapped adapter as ``inner``, which is how the program's
    ``unwrap_adapter`` finds the service type behind a wrapper.
    """

    def __init__(self, inner: ServiceAdapter):
        self.inner = inner

    def record_ids(self, partition):
        return self.inner.record_ids(partition)

    def svd_triples(self, partition, record_ids=None):
        return self.inner.svd_triples(partition, record_ids)

    def postprocess_reduced(self, factors):
        return self.inner.postprocess_reduced(factors)

    def aggregate_group(self, partition, member_ids):
        return self.inner.aggregate_group(partition, member_ids)

    def assemble_payload(self, partition, group_vectors):
        return self.inner.assemble_payload(partition, group_vectors)

    def payload_group_vector(self, payload, group_id):
        return self.inner.payload_group_vector(payload, group_id)

    def initial_result(self, synopsis, request):
        return self.inner.initial_result(synopsis, request)

    def initial_result_batch(self, synopsis, requests):
        return self.inner.initial_result_batch(synopsis, requests)

    def refine(self, partition, synopsis, group_id, request, state):
        return self.inner.refine(partition, synopsis, group_id, request,
                                 state)

    def finalize(self, state, request):
        return self.inner.finalize(state, request)

    def exact(self, partition, request):
        return self.inner.exact(partition, request)

    def synopsis_work(self, synopsis):
        return self.inner.synopsis_work(synopsis)

    def group_work(self, synopsis, group_id):
        return self.inner.group_work(synopsis, group_id)

    def full_work(self, partition):
        return self.inner.full_work(partition)


class TimingAdapter(Delegating):
    """Times the kernel's calls into the adapter (traced runs only).

    Records into ``samples``:

    - ``stage1_ms``: one value per request per component; a batched call
      contributes its duration divided by the batch size to each request;
    - ``wait_ms``: from the request's dispatch (``dispatched[id(payload)]``,
      set by the load generator) until a stage-1 call for it starts;
    - ``stage2_ms``: summed refinement time of one execution, recorded at
      its ``finalize``;
    - ``refine_s`` / ``refine_calls``: totals for the per-group cost;
    - ``finalize_ms``: one value per execution.
    """

    def __init__(self, inner, samples: Samples, dispatched: dict):
        super().__init__(inner)
        self.samples = samples
        self.dispatched = dispatched
        self._refine: dict[int, float] = {}
        self._lock = threading.Lock()

    def _waited(self, request, t0: float) -> None:
        sent = self.dispatched.get(id(request))
        if sent is not None:
            self.samples.add("wait_ms", (t0 - sent) * 1e3)

    def initial_result(self, synopsis, request):
        t0 = now()
        self._waited(request, t0)
        out = self.inner.initial_result(synopsis, request)
        self.samples.add("stage1_ms", (now() - t0) * 1e3)
        return out

    def initial_result_batch(self, synopsis, requests):
        t0 = now()
        for r in requests:
            self._waited(r, t0)
        out = self.inner.initial_result_batch(synopsis, requests)
        share = (now() - t0) * 1e3 / max(1, len(requests))
        for _ in requests:
            self.samples.add("stage1_ms", share)
        return out

    def refine(self, partition, synopsis, group_id, request, state):
        t0 = now()
        out = self.inner.refine(partition, synopsis, group_id, request,
                                state)
        dt = now() - t0
        with self._lock:
            self._refine[id(out)] = self._refine.get(id(out), 0.0) + dt
        self.samples.count("refine_s", dt)
        self.samples.count("refine_calls")
        return out

    def finalize(self, state, request):
        with self._lock:
            spent = self._refine.pop(id(state), 0.0)
        self.samples.add("stage2_ms", spent * 1e3)
        t0 = now()
        out = self.inner.finalize(state, request)
        self.samples.add("finalize_ms", (now() - t0) * 1e3)
        return out
