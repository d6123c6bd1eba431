"""Seeded inputs for the two workloads.

Everything a workload sends to the program is made here.  The data sets --
the page corpus with its query pool, and the rating matrix with its held-out
test users -- come from the fixed :data:`DATA_SEED`; ``--seed`` draws the
traffic over them: the order queries and test users are served in, arrival
times, request classes and the update stream.  Accuracy differs between
data sets by far more than between runs (CF loss at ``i_max`` 2 ranged
1.2-6.3% over six generated matrices), so varying the data with the seed
would drown every change a program makes in data noise.  Each run instead
serves whole rounds over the fixed population: every round is one seeded
permutation of it, so every query or test user is served equally often in
every run.  The same seed gives the same inputs.

The data models are the program's own workload generators
(:mod:`repro.workloads`), which stand in for the paper's Sogou and
MovieLens data; the program receives only their output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads import (CorpusConfig, MovieLensConfig, QueryLogConfig,
                             generate_corpus, generate_query_log,
                             generate_ratings)

N_PARTS = 2          # data partitions: one per shard / component
TOP_K = 10
DATA_SEED = 2016


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per named input stream of one seed."""
    key = [int(seed)] + [ord(c) for c in stream]
    return np.random.default_rng(key)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass
class SearchInputs:
    corpus_partition: object         # repro SearchPartition, global ids
    part_tokens: list                # [partition][local id] -> tokens
    queries: list                    # the pool of term lists
    order: "Rounds"                  # order(i): pool index of query i


N_QUERIES = 800


def search_inputs(seed: int) -> SearchInputs:
    """3000 pages over 20 topics; a pool of 800 Zipf-popular queries.

    Pages go round-robin to the two partitions (page ``d`` becomes local
    page ``d // 2`` of partition ``d % 2``), the split the program's
    ``split_corpus`` documents; the oracle rebuilds it from the raw pages.
    The queries are the first 800 of the log model's busiest hour (22).
    """
    corpus = generate_corpus(CorpusConfig(
        n_docs=3000, n_topics=20, vocab_size=5000, doc_length_mean=80.0,
        seed=DATA_SEED))
    log = generate_query_log(corpus, 22, QueryLogConfig(peak_rate=120.0,
                                                        seed=DATA_SEED),
                             duration=10.0)
    pages = corpus.partition
    part_tokens = [[list(pages.tokens_of(d))
                    for d in range(p, pages.n_docs, N_PARTS)]
                   for p in range(N_PARTS)]
    return SearchInputs(corpus_partition=pages, part_tokens=part_tokens,
                        queries=[list(q) for q in log.queries[:N_QUERIES]],
                        order=Rounds(seed, N_QUERIES))


# ---------------------------------------------------------------------------
# Collaborative filtering
# ---------------------------------------------------------------------------

N_USERS = 1600       # users served by the service (800 per partition)
N_TEST = 300         # held-out active users the requests come from
N_RESERVE = 400      # users that later join through add_points
N_ITEMS = 300


@dataclass
class CFTestUser:
    active_items: np.ndarray
    active_vals: np.ndarray
    targets: np.ndarray              # held-out items (sorted)
    truth: np.ndarray                # their true (observed) ratings


@dataclass
class CFInputs:
    users: np.ndarray                # triples of the served users
    items: np.ndarray
    vals: np.ndarray
    tests: list                      # CFTestUser
    reserve: list                    # (items, vals) per joining user


def cf_inputs() -> CFInputs:
    """MovieLens-like ratings: 1600 served users, 300 test users.

    Each test user's ratings are split at random: 30% (at most ten) are
    held out as the targets to predict, the rest form the request's
    profile.  The held-out observed ratings are the truth RMSE is scored
    against.
    """
    ratings = generate_ratings(MovieLensConfig(
        n_users=N_USERS + N_TEST + N_RESERVE, n_items=N_ITEMS,
        density=0.08, seed=DATA_SEED))
    matrix = ratings.matrix
    u, i, v = matrix.to_triples()
    keep = u < N_USERS
    rng = rng_for(DATA_SEED, "holdout")
    tests = []
    for user in range(N_USERS, N_USERS + N_TEST):
        ids, vals = matrix.user_ratings(user)
        n_hold = min(10, max(1, (3 * ids.size) // 10))
        hold = np.zeros(ids.size, dtype=bool)
        hold[rng.choice(ids.size, size=n_hold, replace=False)] = True
        tests.append(CFTestUser(active_items=ids[~hold].copy(),
                                active_vals=vals[~hold].copy(),
                                targets=ids[hold].copy(),
                                truth=vals[hold].copy()))
    reserve = [tuple(a.copy() for a in matrix.user_ratings(user))
               for user in range(N_USERS + N_TEST,
                                 N_USERS + N_TEST + N_RESERVE)]
    return CFInputs(users=u[keep], items=i[keep], vals=v[keep],
                    tests=tests, reserve=reserve)


def split_triples(users, items, vals):
    """Round-robin user split: user ``u`` -> partition ``u % 2``, row
    ``u // 2`` -- the split the program's ``split_ratings`` documents."""
    out = []
    for p in range(N_PARTS):
        mask = users % N_PARTS == p
        out.append((users[mask] // N_PARTS, items[mask], vals[mask]))
    return out


class Rounds:
    """Pool indices of the requests: ``order(i)`` is the pool member sent
    as request ``i``.  Round ``i // pool`` is one seeded permutation of the
    pool, so a run of whole rounds serves every member equally often."""

    def __init__(self, seed: int, pool: int):
        self.pool = pool
        self._rng = rng_for(seed, "order")
        self._rounds: list[np.ndarray] = []

    def __call__(self, i: int) -> int:
        while len(self._rounds) <= i // self.pool:
            self._rounds.append(self._rng.permutation(self.pool))
        return int(self._rounds[i // self.pool][i % self.pool])


def poisson_schedule(seed: int, rate: float, n: int) -> np.ndarray:
    """Send times (seconds from the start) of ``n`` Poisson arrivals."""
    gaps = rng_for(seed, "arrivals").exponential(1.0 / rate, n)
    return np.cumsum(gaps)
