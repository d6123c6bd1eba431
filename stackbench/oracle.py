"""Exact-answer oracles written from the paper's formulas, not the program.

Neither oracle imports ``repro.search.scoring``, ``repro.search.engine`` or
``repro.recommender``: they take plain Python/NumPy data and recompute the
answers the served system claims to approximate.

- Search (paper section 3.2, Lucene-classic TF-IDF as documented in
  ``repro.search.scoring``): within one partition a page ``d`` scores
  ``sum over distinct query terms t of q_tf(t) * sqrt(tf(t, d)) * idf(t)^2``
  divided by ``sqrt(len(d))``, with the partition-local
  ``idf(t) = max(0, 1 + ln(N / (df(t) + 1)))``.  A page is identified by
  ``(partition, local id)``: two partitions' pages with the same local id
  are different pages.  The global answer is the top-k pages over all
  partitions by score.
- Collaborative filtering (paper section 3.2): Pearson correlation of the
  active user with every stored user over their co-rated items (0 below two
  co-rated items or for a constant side), then Resnick's mean-centred
  weighted average ``mean_a + sum w (r_vi - mean_v) / sum |w|`` over users
  who rated the target, falling back to ``mean_a`` when nobody did.

``python3 stackbench/oracle.py`` runs :func:`selftest`, the hand-computed
cases below; every benchmark run also runs it before trusting the oracles.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class SearchOracle:
    """Brute-force TF-IDF over plain token lists, one list per partition."""

    def __init__(self, partitions):
        self._parts = []
        for docs in partitions:
            postings: dict[str, tuple[list, list]] = {}
            lengths = np.zeros(len(docs))
            for d, tokens in enumerate(docs):
                counts: dict[str, int] = {}
                for t in tokens:
                    counts[t] = counts.get(t, 0) + 1
                lengths[d] = len(tokens)
                for t, c in counts.items():
                    ids, tfs = postings.setdefault(t, ([], []))
                    ids.append(d)
                    tfs.append(c)
            arrays = {t: (np.asarray(ids, dtype=np.int64),
                          np.asarray(tfs, dtype=float))
                      for t, (ids, tfs) in postings.items()}
            self._parts.append((len(docs), arrays, lengths))

    def partition_scores(self, part: int, terms) -> dict[int, float]:
        """Every matching page of one partition -> its TF-IDF score."""
        n_docs, postings, lengths = self._parts[part]
        q_tf: dict[str, int] = {}
        for t in terms:
            q_tf[t] = q_tf.get(t, 0) + 1
        scores = np.zeros(n_docs)
        matched = np.zeros(n_docs, dtype=bool)
        for t, q in q_tf.items():
            if t not in postings:
                continue
            ids, tfs = postings[t]
            idf = max(0.0, 1.0 + math.log(n_docs / (ids.size + 1.0)))
            if idf == 0.0:
                continue
            scores[ids] += q * np.sqrt(tfs) * (idf * idf)
            matched[ids] = True
        hit = np.flatnonzero(matched)
        norm = np.where(lengths[hit] > 0, np.sqrt(lengths[hit]), 1.0)
        return dict(zip(hit.tolist(), (scores[hit] / norm).tolist()))

    def partition_ranking(self, part: int, terms) -> list[tuple[int, float]]:
        """One partition's matching pages, best first: ``[(id, score)]``."""
        return sorted(self.partition_scores(part, terms).items(),
                      key=lambda kv: (-kv[1], kv[0]))

    def ranking(self, terms) -> list[tuple[tuple[int, int], float]]:
        """All matching pages, best first: ``[((partition, id), score)]``."""
        pages = [((p, d), s) for p in range(len(self._parts))
                 for d, s in self.partition_scores(p, terms).items()]
        return sorted(pages, key=lambda kv: (-kv[1], kv[0]))

    def topk(self, terms, k: int) -> list[tuple[tuple[int, int], float]]:
        return self.ranking(terms)[:k]


def same_topk(got, ranking, k: int, rel: float = 1e-9) -> str | None:
    """Compare a top-k against a reference ranking; None when equal.

    Both are ``[(page, score), ...]`` best first, a page being
    ``(partition, id)``.  Scores must agree position by position within
    ``rel``; pages must agree except inside a run of scores equal within
    ``rel`` (a float tie may order either way), where the pages of ``got``
    must all belong to the reference's tie set.
    """
    want = ranking[:k]
    if len(got) != len(want):
        return f"length {len(got)} != {len(want)}"
    for pos, ((gd, gs), (wd, ws)) in enumerate(zip(got, want)):
        if not math.isclose(gs, ws, rel_tol=rel, abs_tol=1e-12):
            return f"score at {pos}: {gs!r} != {ws!r}"
        if gd != wd:
            ties = {d for d, s in ranking
                    if math.isclose(s, ws, rel_tol=rel, abs_tol=1e-12)}
            if gd not in ties:
                return f"page at {pos}: {gd} not in tie set {sorted(ties)}"
    if len({d for d, _ in got}) != len(got):
        return "duplicate pages"
    return None


# ---------------------------------------------------------------------------
# Collaborative filtering
# ---------------------------------------------------------------------------


class CFPartitionOracle:
    """One partition of the rating matrix as a dense array plus a mask."""

    def __init__(self, users, items, vals, n_users: int, n_items: int):
        self.rated = np.zeros((n_users, n_items), dtype=bool)
        self.value = np.zeros((n_users, n_items))
        self.set_rows(users, items, vals, n_users)

    def set_rows(self, users, items, vals, n_users: int | None = None):
        """Replace (or append) whole users' rating rows."""
        users = np.asarray(users, dtype=np.int64)
        if n_users is not None and n_users > self.rated.shape[0]:
            grow = n_users - self.rated.shape[0]
            self.rated = np.vstack([self.rated,
                                    np.zeros((grow, self.rated.shape[1]),
                                             dtype=bool)])
            self.value = np.vstack([self.value,
                                    np.zeros((grow, self.value.shape[1]))])
        touched = np.unique(users)
        self.rated[touched] = False
        self.value[touched] = 0.0
        self.rated[users, items] = True
        self.value[users, items] = vals

    def partial(self, active_items, active_vals, targets):
        """Resnick partial sums ``(numer, denom)`` per target item."""
        a_items = np.asarray(active_items, dtype=np.int64)
        a_vals = np.asarray(active_vals, dtype=float)
        targets = np.asarray(targets, dtype=np.int64)
        co = self.rated[:, a_items]
        n = co.sum(axis=1)
        b = np.where(co, self.value[:, a_items], 0.0)
        a = np.where(co, a_vals[None, :], 0.0)
        safe_n = np.maximum(n, 1)
        da = np.where(co, a - (a.sum(axis=1) / safe_n)[:, None], 0.0)
        db = np.where(co, b - (b.sum(axis=1) / safe_n)[:, None], 0.0)
        cov = (da * db).sum(axis=1)
        var = (da * da).sum(axis=1) * (db * db).sum(axis=1)
        ok = (n >= 2) & (var > 0.0)
        w = np.zeros(n.size)
        w[ok] = np.clip(cov[ok] / np.sqrt(var[ok]), -1.0, 1.0)
        counts = self.rated.sum(axis=1)
        user_mean = np.divide(self.value.sum(axis=1), counts,
                              out=np.zeros(counts.size), where=counts > 0)
        on_t = self.rated[:, targets] & (w != 0.0)[:, None]
        dev = self.value[:, targets] - user_mean[:, None]
        numer = np.where(on_t, w[:, None] * dev, 0.0).sum(axis=0)
        denom = np.where(on_t, np.abs(w)[:, None], 0.0).sum(axis=0)
        return numer, denom


def resnick(active_vals, numer, denom) -> np.ndarray:
    """Predictions from summed partials; the active mean where denom is 0."""
    mean = float(np.mean(active_vals)) if len(active_vals) else 0.0
    out = np.full(len(numer), mean)
    nz = denom != 0.0
    out[nz] = mean + numer[nz] / denom[nz]
    return out


def cf_predict(partitions, active_items, active_vals, targets) -> np.ndarray:
    """Exact predictions for ``targets`` over every partition."""
    numer = np.zeros(len(targets))
    denom = np.zeros(len(targets))
    for part in partitions:
        n, d = part.partial(active_items, active_vals, targets)
        numer += n
        denom += d
    return resnick(active_vals, numer, denom)


# ---------------------------------------------------------------------------
# Hand-computed cases
# ---------------------------------------------------------------------------


def selftest() -> None:
    """Check both oracles against answers worked out by hand.

    Raises ``RuntimeError`` on any mismatch (not ``assert``, so the check
    also runs under ``python -O``).
    """

    def expect(cond: bool, what: str) -> None:
        if not cond:
            raise RuntimeError(f"oracle self-test failed: {what}")

    # Search.  Partition 0: d0 = "a b", d1 = "a a c", d2 = "c".  For the
    # query "a": N = 3, df(a) = 2, idf = 1 + ln(3/3) = 1, so
    # d0 = sqrt(1)/sqrt(2) = 0.70711 and d1 = sqrt(2)/sqrt(3) = 0.81650.
    # Partition 1: d0 = "b", d1 = "a" -> df(a) = 1, idf = 1 + ln(2/2) = 1,
    # d1 = 1/sqrt(1) = 1.0.  Partition 1's d1 and partition 0's d1 share a
    # local id but are two pages: the global top-3 holds both.
    search = SearchOracle([[["a", "b"], ["a", "a", "c"], ["c"]],
                           [["b"], ["a"]]])
    p0 = search.partition_scores(0, ["a"])
    expect(math.isclose(p0[0], 1 / math.sqrt(2), rel_tol=1e-15), "search d0")
    expect(math.isclose(p0[1], math.sqrt(2 / 3), rel_tol=1e-15), "search d1")
    expect(search.topk(["a"], 3) == [((1, 1), 1.0), ((0, 1), p0[1]),
                                     ((0, 0), p0[0])], "search merge")
    expect(search.partition_ranking(0, ["a"]) == [(1, p0[1]), (0, p0[0])],
           "search partition ranking")
    # A repeated query term doubles its contribution; "c" has
    # idf = 1 + ln(3/3) = 1 in partition 0 and d2 = 1/sqrt(1) = 1.
    p0c = search.partition_scores(0, ["c", "c"])
    expect(math.isclose(p0c[2], 2.0, rel_tol=1e-15), "search q_tf")
    # A term in every page of a 1-page partition: idf = 1 + ln(1/2) > 0.
    solo = SearchOracle([[["z"]]]).partition_scores(0, ["z"])
    expect(math.isclose(solo[0], (1 + math.log(0.5)) ** 2, rel_tol=1e-15),
           "search idf")
    ranked = search.ranking(["a"])
    expect(same_topk(ranked[:2], ranked, 2) is None,
           "same_topk accepts equal answers")
    expect(same_topk([ranked[1], ranked[0]], ranked, 2) is not None,
           "same_topk rejects a swapped answer")
    expect(same_topk([ranked[0], ranked[2]], ranked, 2) is not None,
           "same_topk rejects a lost page")

    # CF.  Active user: items 0, 1, 2 rated 1, 2, 3 (mean 2).
    # v rates items 0..3 as 2, 4, 6, 5: r = +1 over items 0..2, mean 4.25.
    # u rates items 0..3 as 3, 2, 1, 1: r = -1, mean 1.75.
    # x rates only item 0 and item 3: one co-rated item, weight 0.
    # Item 3: 2 + (1*(5-4.25) + (-1)*(1-1.75)) / (1 + 1) = 2.75.
    # Item 4 (nobody rated it) falls back to the active mean, 2.
    users = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    items = [0, 1, 2, 3, 0, 1, 2, 3, 0, 3]
    vals = [2, 4, 6, 5, 3, 2, 1, 1, 5, 1]
    cf = CFPartitionOracle(users, items, vals, n_users=3, n_items=5)
    pred = cf_predict([cf], [0, 1, 2], [1.0, 2.0, 3.0], [3, 4])
    expect(np.allclose(pred, [2.75, 2.0], rtol=0, atol=1e-15), "cf resnick")
    # Split across two partitions, the partial sums add up to the same.
    half_a = CFPartitionOracle([0, 0, 0, 0], [0, 1, 2, 3], [2, 4, 6, 5],
                               n_users=1, n_items=5)
    half_b = CFPartitionOracle([0, 0, 0, 0, 1, 1], [0, 1, 2, 3, 0, 3],
                               [3, 2, 1, 1, 5, 1], n_users=2, n_items=5)
    pred2 = cf_predict([half_a, half_b], [0, 1, 2], [1.0, 2.0, 3.0], [3, 4])
    expect(np.allclose(pred2, pred, rtol=0, atol=1e-15), "cf partitions")
    # Replacing v's row with a constant one zeroes its weight: item 3 is
    # then u alone, 2 + (-1)(1 - 1.75) / 1 = 2.75 again, and appending a
    # new user w = v's old row brings the first answer back.
    cf.set_rows([0, 0, 0, 0], [0, 1, 2, 3], [4, 4, 4, 5])
    pred3 = cf_predict([cf], [0, 1, 2], [1.0, 2.0, 3.0], [3])
    expect(math.isclose(pred3[0], 2.75, abs_tol=1e-15), "cf constant row")
    cf.set_rows([3, 3, 3, 3], [0, 1, 2, 3], [2, 4, 6, 5], n_users=4)
    pred4 = cf_predict([cf], [0, 1, 2], [1.0, 2.0, 3.0], [3])
    expect(math.isclose(pred4[0], 2.75, abs_tol=1e-15), "cf appended row")


if __name__ == "__main__":
    selftest()
    print("oracle self-test passed")
