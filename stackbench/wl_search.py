"""``search-closed``: two closed-loop clients on a sharded, hedged search.

Two client threads call the synchronous ``ShardedService.serve`` back to
back.  The service has 2 shards x 2 replicas, one 1500-page partition per
shard, budgeted hedged re-issue (no injected stragglers) and a thread
backend behind a 2 ms ``batch_window``, which coalesces the two clients'
calls to one shard.  The deadline is loose (1 s on wall clocks), so every
component stops at the paper's top-40% ``i_max``: the run is bound by the
search kernels and does a fixed amount of work per call however calls are
batched.  It never touches the wire, the state plane or admission.

The clients send whole rounds of the 800-query pool (one seeded permutation
per round) and stop at the first round boundary after ``--seconds``, so
every query is served equally often in every run.

Page identity.  The program reports partition-local page ids, so a merged
hit is traced back to its page through the per-shard hit lists the router
merged (a wrapper around ``merge`` keeps them, in every run).  A request
fails when the program's merge of page ids loses a page: its answer is not
the top-k of its own shards' hits taken as distinct pages, or ``exact()``
for its query is not the oracle's top-k.  Both happen only where two pages
with the same local id meet in one top-k; any other disagreement fails
the run.
"""

from __future__ import annotations

import threading

from repro.core import (AccuracyTraderService, SearchAdapter, SearchQuery,
                        SimulatedClock, SynopsisConfig, WallClock)
from repro.core.processor import process_component
from repro.serving import ReplicaGroup, ServingRequest, ShardedService, \
    ThreadPoolBackend
from repro.strategies.reissue import ReissueStrategy
from repro.workloads import split_corpus

import inputs
import oracle
from common import Samples, now
from layers import TimingAdapter
from run_state import Check, Run

DEADLINE_S = 1.0
I_MAX_FRACTION = 0.4          # the paper's search setting: top 40% groups
CONFIG = SynopsisConfig(n_iters=25, target_ratio=25.0, seed=11)
CLIENTS = 2
HEDGE_BUDGET = 0.05
BATCH_WINDOW_S = 0.002
SAMPLE_EVERY = 40             # every 40th request: full-refinement check


def run(r: Run) -> None:
    t0 = now()
    data = inputs.search_inputs(r.seed)
    r.layer("workloads.generate_s", now() - t0, "s")

    t0 = now()
    dispatched: dict[int, float] = {}
    samples = Samples()

    def adapter():
        base = SearchAdapter()
        return TimingAdapter(base, samples, dispatched) if r.trace else base

    parts = split_corpus(data.corpus_partition, inputs.N_PARTS)
    shards = [ReplicaGroup([
        _service(adapter(), parts[s]) for _ in range(2)])
        for s in range(inputs.N_PARTS)]
    pool = ThreadPoolBackend(max_workers=4)
    svc = ShardedService(
        shards, backend=pool,
        hedge=ReissueStrategy(100.0, initial_expected_latency=0.05),
        hedge_budget=HEDGE_BUDGET, batch_window=BATCH_WINDOW_S)
    r.layer("builder.build_s", now() - t0, "s")
    merged = _record_merge(svc, r.trace)

    try:
        _serve(svc, data.queries[0])          # warm-up: pool threads start
        merged.inputs.clear()
        r.setup_done()
        hedges0 = svc.hedge_counters()
        batches0 = svc.backend.batch_stats()
        served = _closed_loop(r, svc, data, dispatched, samples, merged)
        r.finish_window()
        hedges = svc.hedge_counters()
        hedges = {k: hedges[k] - hedges0[k] for k in hedges}
        batches = svc.backend.batch_stats()
        merged.timed = False
    finally:
        svc.close()
        pool.close()

    check = Check("search-closed")
    ref = oracle.SearchOracle(data.part_tokens)
    truth = {}
    bad: set[int] = set()
    for q, terms in enumerate(data.queries):
        truth[q] = ref.ranking(terms)
        _check_exact(check, bad, svc, merged, q, terms, truth[q])
    loss = []
    for i, (q, answer, shard_hits, _) in enumerate(served):
        pages = _check_answer(check, bad, i, q, answer, _hits(shard_hits),
                              truth[q])
        want = {p for p, _ in truth[q][:inputs.TOP_K]}
        got = {p for p, _ in pages}
        loss.append(100.0 * (1.0 - len(want & got) / len(want))
                    if want else 0.0)
        if i % SAMPLE_EVERY == 0:
            _check_full_refinement(check, i, shards, data.queries[q], ref)
    check.expect(hedges["hedges_issued"]
                 <= HEDGE_BUDGET * hedges["shard_calls"],
                 f"hedge budget exceeded: {hedges}")
    check.done()

    r.end_to_end(latencies=r.latencies, accuracy_loss_pct=sum(loss) / len(loss))
    r.attempted = len(served)
    r.failed = sum(q in bad for q, _, _, _ in served)
    reports = [rep for _, _, _, reps in served for rep in reps]
    r.processor_layers(reports, samples)
    r.layer("search.finalize_ms_p50", r.p50(samples.get("finalize_ms")), "ms")
    r.layer("search.merge_ms_p50", r.p50(merged.ms), "ms")
    r.router_layers(hedges)
    r.layer("backends.batch_size_mean",
            (batches["tasks_coalesced"] - batches0["tasks_coalesced"])
            / max(1, batches["batches_submitted"]
                  - batches0["batches_submitted"]), "count")
    r.layer("loadgen.late_ms_p99", r.p99(samples.get("think_ms")), "ms")


def _service(adapter, partition):
    return AccuracyTraderService(adapter, [partition], config=CONFIG,
                                 i_max_fraction=I_MAX_FRACTION)


def _serve(svc, terms):
    env = ServingRequest(SearchQuery(terms=terms, k=inputs.TOP_K),
                         deadline=DEADLINE_S)
    return svc.serve(env, clocks=[WallClock() for _ in range(svc.n_components)])


class _MergeRecord:
    """What the router merged, per request payload, and (traced) how long."""

    def __init__(self):
        self.inputs: dict[int, list] = {}
        self.ms: list[float] = []
        self.timed = False


def _record_merge(svc, timed: bool) -> _MergeRecord:
    """Wrap the router's merge to keep its per-shard hit lists."""
    record = _MergeRecord()
    record.timed = timed
    inner = svc.merge

    def merge(results, request):
        record.inputs[id(request)] = results
        if not record.timed:
            return inner(results, request)
        m0 = now()
        out = inner(results, request)
        record.ms.append((now() - m0) * 1e3)
        return out

    svc.merge = merge
    return record


def _closed_loop(r: Run, svc, data, dispatched, samples, merged) -> list:
    """Both clients send their next query as soon as the last one returns,
    until the first round boundary after the window's nominal end."""
    lock = threading.Lock()
    next_i = [0]
    stop = [False]
    served: list = []
    pool = len(data.queries)
    end = r.start_window()

    def client() -> None:
        last_done = None
        while True:
            with lock:
                i = next_i[0]
                if stop[0] or (i % pool == 0 and i and now() >= end):
                    stop[0] = True
                    return
                next_i[0] += 1
                q = data.order(i)
            env = ServingRequest(SearchQuery(terms=data.queries[q],
                                             k=inputs.TOP_K),
                                 deadline=DEADLINE_S)
            sent = now()
            if last_done is not None:
                samples.add("think_ms", (sent - last_done) * 1e3)
            dispatched[id(env.payload)] = sent
            resp = svc.serve(env, clocks=[WallClock()
                                          for _ in range(svc.n_components)])
            last_done = now()
            dispatched.pop(id(env.payload), None)
            r.latencies.append((last_done - sent) * 1e3)
            served.append((q, [(h.doc_id, h.score) for h in resp.answer],
                           merged.inputs.pop(id(env.payload)), resp.reports))

    threads = [threading.Thread(target=client, name=f"client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return served


def _hits(results) -> list:
    """Per-shard ``SearchHit`` lists as ``[(id, score), ...]`` lists."""
    return [[(h.doc_id, h.score) for h in hits] for hits in results]


def _pages(merged, shard_hits):
    """Each merged ``(id, score)`` as ``((shard, id), score)``; a hit no
    shard returned maps to shard -1."""
    out = []
    for d, s in merged:
        shard = next((p for p, hits in enumerate(shard_hits)
                      if (d, s) in hits), -1)
        out.append(((shard, d), s))
    return out


def _ids_collide(pages) -> bool:
    """Two different pages with the same local id."""
    ids = [d for (_, d), _ in pages]
    return len(set(ids)) != len(ids)


def _check_exact(check: Check, bad: set, svc, merged, q, terms,
                 truth) -> None:
    """exact() for pool query ``q`` against the oracle, page by page."""
    query = SearchQuery(terms=terms, k=inputs.TOP_K)
    exact = [(h.doc_id, h.score) for h in svc.exact(query)]
    pages = _pages(exact, _hits(merged.inputs.pop(id(query))))
    problem = oracle.same_topk(pages, truth, inputs.TOP_K)
    if problem is not None and _ids_collide(truth[:inputs.TOP_K]):
        bad.add(q)
    else:
        check.expect(problem is None, f"query {q}: exact() vs oracle: "
                                      f"{problem}")


def _check_answer(check: Check, bad: set, i, q, answer, shard_hits,
                  truth) -> list:
    """Shape of one served answer and its merge; returns its pages."""
    pages = _pages(answer, shard_hits)
    scores = [s for _, s in answer]
    need = min(inputs.TOP_K, len(truth))
    check.expect(need <= len(answer) <= inputs.TOP_K,
                 f"request {i}: {len(answer)} hits, {len(truth)} pages match")
    check.expect(len({d for d, _ in answer}) == len(answer),
                 f"request {i}: duplicate ids")
    check.expect(all(p >= 0 for (p, _), _ in pages),
                 f"request {i}: a hit no shard returned")
    check.expect(all(a >= b for a, b in zip(scores, scores[1:])),
                 f"request {i}: scores not in non-increasing order")
    every = sorted({((p, d), s) for p, hits in enumerate(shard_hits)
                    for d, s in hits}, key=lambda kv: (-kv[1], kv[0]))
    problem = oracle.same_topk(pages, every, inputs.TOP_K)
    if problem is not None and _ids_collide(every[:inputs.TOP_K]):
        bad.add(q)
    else:
        check.expect(problem is None,
                     f"request {i}: answer is not the top-k of its shards' "
                     f"hits: {problem}")
    return pages


def _check_full_refinement(check: Check, i, shards, terms, ref) -> None:
    """Refining every group of a component gives the oracle's partition
    top-k."""
    query = SearchQuery(terms=terms, k=inputs.TOP_K)
    for p, group in enumerate(shards):
        state = group.replicas[0].component_state(0)
        result, report = process_component(
            SearchAdapter(), state.partition, state.synopsis, query,
            deadline=1e9, clock=SimulatedClock(speed=1e12))
        check.expect(report.exhausted,
                     f"request {i}: unbounded refinement stopped early")
        problem = oracle.same_topk([(h.doc_id, h.score) for h in result],
                                   ref.partition_ranking(p, terms),
                                   inputs.TOP_K)
        check.expect(problem is None,
                     f"request {i}: full refinement of shard {p} vs oracle: "
                     f"{problem}")
