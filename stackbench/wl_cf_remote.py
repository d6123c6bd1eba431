"""``cf-remote-updates``: open-loop CF reads through admission and a
socket worker while the data changes underneath them.

One event loop sends a Poisson stream of CF requests, one third each
accuracy-critical, latency-critical and best-effort.  Each passes the
program's ``AdmissionController`` (``PriorityShedPolicy``, priority
dequeue, sized so that nothing is shed), then
``AccuracyTraderService.aserve`` on a ``RemoteBackend`` with one worker
process (one socket).  A second thread applies a seeded
stream of ``add_points`` / ``change_points`` updates, alternating
components, so requests keep crossing epoch transitions and the backend
keeps shipping full snapshots, CDC byte deltas or semantic group deltas to
the worker.  The per-component deadline is tight (5 ms on wall clocks) and
CF has no ``i_max``, so refinement stops on the deadline: how fast the
worker refines shows in ``accuracy_loss_pct``.  The search kernels are
never called.

A run is whole rounds over the 300 test users (one seeded permutation per
round) with one update per 50 requests, so every user is served equally
often in every run.  A request fails when the program's exact prediction
for its user on the initial data misses the oracle by more than 1e-9 (the
one-pass Pearson sums, see the README) or when admission sheds it; any
other disagreement fails the run.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

from repro.core import (AccuracyTraderService, CFAdapter, CFRequest,
                        SimulatedClock, SynopsisConfig, WallClock)
from repro.core.processor import process_component, refine_to_depth
from repro.core.state import StaleEpochError
from repro.recommender.matrix import RatingMatrix
from repro.serving import (AdmissionController, PriorityShedPolicy,
                           RemoteBackend, RequestClass, ServingRequest)
from repro.workloads import split_ratings

import inputs
import oracle
from common import Samples, now, pin_descendants
from run_state import Check, Run

RATE = 45.0                   # requests per second, Poisson
DEADLINE_S = 0.005            # per component, on the worker's wall clock
REQUESTS_PER_UPDATE = 50      # ~1.1 s apart; components alternate
UPDATE_USERS = 2              # users added or changed per update
CONFIG = SynopsisConfig(n_iters=25, target_ratio=8.0, seed=11)
MAX_INFLIGHT = 16             # above the usual backlog: rarely queues
MAX_PENDING = 4096            # best-effort sheds at half of this: never here
CLASSES = (RequestClass.ACCURACY_CRITICAL, RequestClass.LATENCY_CRITICAL,
           RequestClass.BEST_EFFORT)
SAMPLE_EVERY = 60             # every 60th request gets the epoch checks
PEARSON_CANCELLATION = 1e-6   # largest miss the one-pass sums explain


def run(r: Run) -> None:
    t0 = now()
    data = inputs.cf_inputs()
    pool = len(data.tests)
    n = pool * (int(RATE * r.seconds) // pool + 1)
    arrivals = inputs.poisson_schedule(r.seed, RATE, n)
    rounds = inputs.Rounds(r.seed, pool)
    order = [rounds(i) for i in range(n)]
    payloads = [_payload(data.tests[t]) for t in order]
    rng = inputs.rng_for(r.seed, "classes")
    classes = [CLASSES[c] for c in rng.permutation(np.arange(n) % 3)]
    plan = _update_plan(r.seed, n // REQUESTS_PER_UPDATE, data)
    r.layer("workloads.generate_s", now() - t0, "s")

    t0 = now()
    base = RatingMatrix(data.users, data.items, data.vals,
                        n_users=inputs.N_USERS, n_items=inputs.N_ITEMS)
    parts = split_ratings(base, inputs.N_PARTS)
    backend = RemoteBackend(n_workers=1)
    svc = AccuracyTraderService(CFAdapter(), parts, config=CONFIG,
                                backend=backend)
    admission = AdmissionController(max_pending=MAX_PENDING,
                                    max_inflight=MAX_INFLIGHT,
                                    policies=[PriorityShedPolicy()])
    r.layer("builder.build_s", now() - t0, "s")
    samples = Samples()
    try:
        t0 = now()
        _serve_sync(svc, payloads[0])     # spawns the worker, ships state
        r.layer("transport.spawn_s", now() - t0, "s")
        pin_descendants(r.worker_cpu)
        r.setup_done()
        if r.trace:
            _time_submissions(backend, samples)
        served, shed, applied, captured = _drive(
            r, svc, backend, admission, parts, payloads, classes, arrivals,
            plan, samples)
    finally:
        backend.close()
        svc.close()

    check = Check("cf-remote-updates")
    stats = admission.stats()
    check.expect(len(served) + shed == stats.offered
                 and stats.admitted == len(served) and stats.shed == shed,
                 f"benchmark counted {len(served)} served + {shed} shed, "
                 f"admission reports {stats}")
    bad = _check_initial_exact(check, svc, data, parts)
    _check_and_score(r, check, svc, data, order, payloads, served, applied,
                     captured, bad)
    check.done()
    r.attempted = n + len(applied)
    r.failed = shed + sum(order[i] in bad for i in served)


def _payload(test) -> CFRequest:
    return CFRequest(active_items=test.active_items,
                     active_vals=test.active_vals,
                     target_items=test.targets.tolist())


def _serve_sync(svc, payload):
    env = ServingRequest(payload, deadline=DEADLINE_S)
    return svc.serve(env, clocks=[WallClock(), WallClock()])


def _update_plan(seed: int, n: int, data) -> list:
    """``(component, kind, rows)`` per update, kinds add/change 50/50.

    An add appends the next reserve users; a change re-rates existing
    users' items with seeded noise.  Changed users are picked later,
    against the partition's size at that point, so only the random draws
    are fixed here.
    """
    rng = inputs.rng_for(seed, "updates")
    plan, next_reserve = [], 0
    for k in range(n):
        comp = k % inputs.N_PARTS
        if rng.random() < 0.5:
            rows = data.reserve[next_reserve:next_reserve + UPDATE_USERS]
            next_reserve += UPDATE_USERS
            plan.append((comp, "add", rows))
        else:
            plan.append((comp, "change", (
                rng.random(UPDATE_USERS),
                rng.normal(0.0, 0.75, (UPDATE_USERS, inputs.N_ITEMS)))))
    return plan


def _apply(svc, part, comp, kind, rows):
    """Build the next partition, update the service; returns the oracle's
    view of the change as ``(users, items, vals, n_users)``."""
    if kind == "add":
        users = np.concatenate([np.full(ids.size, k, dtype=np.int64)
                                for k, (ids, _) in enumerate(rows)])
        items = np.concatenate([ids for ids, _ in rows])
        vals = np.concatenate([v for _, v in rows])
        new = part.with_rows_appended(users, items, vals)
        ids = list(range(part.n_users, new.n_users))
        t0 = now()
        report = svc.add_points(comp, new, ids)
        return new, now() - t0, report, (users + part.n_users, items, vals,
                                         new.n_users)
    picks, noise = rows
    users = sorted({int(p * part.n_users) for p in picks})
    replaced, o_users, o_items, o_vals = {}, [], [], []
    for k, u in enumerate(users):
        ids, vals = part.user_ratings(u)
        vals = np.clip(vals + noise[k, :ids.size], 1.0, 5.0)
        replaced[u] = (ids.copy(), vals)
        o_users.append(np.full(ids.size, u, dtype=np.int64))
        o_items.append(ids.copy())
        o_vals.append(vals)
    new = part.with_users_replaced(replaced)
    t0 = now()
    report = svc.change_points(comp, new, users)
    return new, now() - t0, report, (np.concatenate(o_users),
                                     np.concatenate(o_items),
                                     np.concatenate(o_vals), None)


def _drive(r: Run, svc, backend, admission, parts, payloads, classes,
           arrivals, plan, samples):
    """The measured window: the open-loop reads and the update thread."""
    served: dict[int, tuple] = {}
    captured: dict[int, list] = {}
    applied: list = []
    shed = [0]
    parts = list(parts)
    wire0 = backend.transport_counters()
    pay0 = backend.payload_counters()
    r.start_window()
    t_start = now()

    def updater() -> None:
        for k, (comp, kind, rows) in enumerate(plan):
            due = arrivals[k * REQUESTS_PER_UPDATE + REQUESTS_PER_UPDATE // 2]
            wait = t_start + float(due) - now()
            if wait > 0:
                threading.Event().wait(wait)
            parts[comp], seconds, report, change = _apply(
                svc, parts[comp], comp, kind, rows)
            applied.append((comp, svc.component_epoch(comp), change))
            samples.add("update_ms", seconds * 1e3)
            samples.add("reaggregated", report.n_groups_reaggregated)

    async def one(i: int, due: float) -> None:
        env = ServingRequest(payloads[i], deadline=DEADLINE_S,
                             request_class=classes[i])
        q0 = now()
        if await admission.acquire(request=env) is not None:
            shed[0] += 1
            return
        try:
            samples.add("queue_ms", (now() - q0) * 1e3)
            resp = await svc.aserve(env, clocks=[WallClock(), WallClock()])
        finally:
            admission.release()
        latency = (now() - due) * 1e3
        r.latencies.append(latency)
        samples.add(f"latency_{classes[i].value}", latency)
        served[i] = (resp.answer, resp.reports)
        if i % SAMPLE_EVERY == 0:
            captured[i] = _capture(svc, resp.reports)

    async def generator() -> None:
        admission.reset_watermarks()
        tasks = []
        for i, offset in enumerate(arrivals):
            due = t_start + float(offset)
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            samples.add("late_ms", (now() - due) * 1e3)
            tasks.append(asyncio.ensure_future(one(i, due)))
        await asyncio.gather(*tasks)

    thread = threading.Thread(target=updater, name="updater")
    thread.start()
    try:
        asyncio.run(generator())
    finally:
        thread.join()
    r.finish_window()
    wire = backend.transport_counters()
    pay = backend.payload_counters()
    n = max(1, len(served))
    moved = (wire["bytes_sent"] - wire0["bytes_sent"]
             + wire["bytes_received"] - wire0["bytes_received"])
    publishes = pay["state_publishes"] - pay0["state_publishes"]
    r.layer("transport.kb_per_req", moved / 1024.0 / n, "KB")
    r.layer("admission.queue_ms_p99", r.p99(samples.get("queue_ms")), "ms")
    r.layer("admission.queue_depth_max", admission.stats().queue_depth_max,
            "count")
    for cls in CLASSES:
        r.layer(f"admission.p99_ms_{cls.value}",
                r.p99(samples.get(f"latency_{cls.value}")), "ms")
    r.layer("state.publishes", publishes, "count")
    for name, key in (("state.full_n", "state_full_publishes"),
                      ("state.cdc_n", "state_delta_publishes"),
                      ("state.semantic_n", "state_semantic_publishes")):
        r.layer(name, wire[key] - wire0[key], "count")
    r.layer("state.kb_per_publish",
            (pay["state_bytes"] - pay0["state_bytes"]) / 1024.0
            / max(1, publishes), "KB")
    r.layer("updater.update_ms_p50", r.p50(samples.get("update_ms")), "ms")
    r.layer("updater.update_ms_p99", r.p99(samples.get("update_ms")), "ms")
    r.layer("updater.reaggregated_mean",
            float(np.mean(samples.get("reaggregated") or [0])), "count")
    r.layer("transport.task_ms_p50", r.p50(samples.get("task_ms")), "ms")
    r.layer("loadgen.late_ms_p99", r.p99(samples.get("late_ms")), "ms")
    reports = [rep for _, reps in served.values() for rep in reps]
    for rep in reports:
        # The worker runs the kernel out of the benchmark's reach, so stage
        # timings come from the report: synopsis_elapsed is stage 1, the
        # rest of total_elapsed is the refinement loop.
        samples.add("stage1_ms", rep.synopsis_elapsed * 1e3)
        samples.add("stage2_ms", (rep.total_elapsed - rep.synopsis_elapsed)
                    * 1e3)
    samples.count("refine_s", sum(rep.total_elapsed - rep.synopsis_elapsed
                                  for rep in reports))
    samples.count("refine_calls", sum(rep.groups_processed for rep in reports))
    r.processor_layers(reports, samples)
    return served, shed[0], applied, captured


def _capture(svc, reports) -> list:
    """The snapshots the response ran on, fetched while still retained."""
    states = []
    for c, rep in enumerate(reports):
        try:
            states.append(svc.store.get(c, rep.state_epoch))
        except StaleEpochError:
            states.append(None)
    return states


def _time_submissions(backend, samples) -> None:
    """Time submit -> resolve of every wire task (traced runs only)."""
    submit = backend.submit_task

    def timed(task):
        t0 = now()
        future = submit(task)
        future.add_done_callback(
            lambda _f: samples.add("task_ms", (now() - t0) * 1e3))
        return future

    backend.submit_task = timed


def _oracle_parts(data) -> list:
    """The oracle's view of the initial partitions."""
    split = inputs.split_triples(data.users, data.items, data.vals)
    n_rows = [int(np.ceil((inputs.N_USERS - p) / inputs.N_PARTS))
              for p in range(inputs.N_PARTS)]
    return [oracle.CFPartitionOracle(u, i, v, n_rows[p], inputs.N_ITEMS)
            for p, (u, i, v) in enumerate(split)]


def _check_initial_exact(check, svc, data, parts) -> set:
    """The program's exact prediction for every test user on the initial
    data against the oracle; returns the users it misses within
    :data:`PEARSON_CANCELLATION` (any larger miss fails the run)."""
    ref = _oracle_parts(data)
    bad = set()
    for t, test in enumerate(data.tests):
        p = _payload(test)
        exact = svc.merge([svc.adapter.exact(part, p) for part in parts], p)
        got = np.array([exact.predict(x) for x in p.target_items])
        want = oracle.cf_predict(ref, p.active_items, p.active_vals,
                                 p.target_items)
        miss = float(np.max(np.abs(got - want)))
        if miss <= 1e-9:
            continue
        check.expect(miss <= PEARSON_CANCELLATION,
                     f"test user {t}: initial exact {got} != oracle {want}")
        bad.add(t)
    return bad


def _check_and_score(r, check, svc, data, order, payloads, served, applied,
                     captured, bad) -> None:
    """Epoch-consistent answers, oracle agreement, and the RMSE loss.

    Oracle comparisons for the users in ``bad`` are skipped: their
    requests are already counted as failed."""
    parts = _oracle_parts(data)
    ids = sorted(served)
    numer = {i: 0.0 for i in ids}
    denom = {i: 0.0 for i in ids}
    for c, part in enumerate(parts):
        updates = [(e, ch) for comp, e, ch in applied if comp == c]
        for i in sorted(ids, key=lambda i: served[i][1][c].state_epoch):
            epoch = served[i][1][c].state_epoch
            while updates and updates[0][0] <= epoch:
                users, items, vals, n_users = updates.pop(0)[1]
                part.set_rows(users, items, vals, n_users)
            p = payloads[i]
            n, d = part.partial(p.active_items, p.active_vals, p.target_items)
            numer[i] = numer[i] + n
            denom[i] = denom[i] + d
        for _, (users, items, vals, n_users) in updates:
            part.set_rows(users, items, vals, n_users)

    served_sq, exact_sq = [], []
    adapter = CFAdapter()
    for i in ids:
        answer, reports = served[i]
        p = payloads[i]
        truth = data.tests[order[i]].truth
        want = oracle.resnick(p.active_vals, numer[i], denom[i])
        got = np.array([answer.predict(t) for t in p.target_items])
        served_sq.append((got - truth) ** 2)
        exact_sq.append((want - truth) ** 2)
        if i not in captured:
            continue
        states = captured[i]
        check.expect(all(s is not None for s in states),
                     f"request {i}: epoch evicted before it was checked")
        if not all(s is not None for s in states):
            continue
        replay = svc.merge(
            [refine_to_depth(adapter, s.partition, s.synopsis, p,
                             rep.groups_processed)
             for s, rep in zip(states, reports)], p)
        check.expect(replay.numer == answer.numer
                     and replay.denom == answer.denom,
                     f"request {i}: answer differs from refine_to_depth on "
                     f"epochs {[rep.state_epoch for rep in reports]}")
        if order[i] in bad:
            continue
        full = svc.merge(
            [process_component(adapter, s.partition, s.synopsis, p, 1e9,
                               clock=SimulatedClock(speed=1e12))[0]
             for s in states], p)
        got_full = np.array([full.predict(t) for t in p.target_items])
        check.expect(np.allclose(got_full, want, rtol=0, atol=1e-9),
                     f"request {i}: full refinement {got_full} != oracle "
                     f"{want}")
    for i in ids[::SAMPLE_EVERY]:
        if order[i] in bad:
            continue
        p = payloads[i]
        exact = svc.exact(p)
        got = np.array([exact.predict(t) for t in p.target_items])
        want = oracle.cf_predict(parts, p.active_items, p.active_vals,
                                 p.target_items)
        check.expect(np.allclose(got, want, rtol=0, atol=1e-9),
                     f"request {i}: final exact() {got} != oracle {want}")
    rmse_served = float(np.sqrt(np.mean(np.concatenate(served_sq))))
    rmse_exact = float(np.sqrt(np.mean(np.concatenate(exact_sq))))
    r.end_to_end(r.latencies,
                 100.0 * (rmse_served - rmse_exact) / rmse_exact)
