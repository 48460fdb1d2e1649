"""Seeded inputs and exact ground truth, made without the program's code.

Corpus and queries come from one Gaussian mixture: ``CLUSTERS`` centres
drawn from ``N(0, CENTER_SCALE^2)`` in ``DIM`` dimensions, each point a
centre plus ``N(0, 1)`` noise, float32.  Queries are fresh draws from the
same mixture, never corpus points.

The corpus is one fixed data set (``DATASET_SEED``); the benchmark's
``--seed`` draws the queries and the request stream.  Recall on this index
moves by several points with the draw of the corpus and of the random
hyperplanes (0.90-0.98 recall@100 over five draws of each), which would
swamp any regression a bound could catch; with the corpus fixed, a run's
figures move only with the query sample and the host.
"""

from __future__ import annotations

import numpy as np

DIM = 64
CORPUS = 8000
CLUSTERS = 32
CENTER_SCALE = 4.0
DATASET_SEED = 0
#: The ``serve-remote`` request mix: a request repeats one of ``HOT``
#: popular queries with probability ``REPEAT_P`` (popularity of rank ``r``
#: proportional to ``1 / r**ZIPF_S``); requests are drawn ``CHUNK`` at a time.
HOT = 64
REPEAT_P = 0.3
ZIPF_S = 1.1
CHUNK = 1024


class Mixture:
    """The data set's mixture, drawn from by the generator ``stream``.

    Every stream shares the centres, so queries drawn from one stream are
    in distribution for the corpus drawn from another.
    """

    def __init__(self, stream: int = 0) -> None:
        self.centers = np.random.default_rng([DATASET_SEED, 0x5EED]).normal(
            scale=CENTER_SCALE, size=(CLUSTERS, DIM)
        )
        self._rng = np.random.default_rng([DATASET_SEED, 0x5EED, stream])

    def draw(self, count: int) -> np.ndarray:
        labels = self._rng.integers(0, CLUSTERS, size=count)
        noise = self._rng.normal(size=(count, DIM))
        return (self.centers[labels] + noise).astype(np.float32)


def corpus() -> np.ndarray:
    """The fixed corpus, ids ``0..CORPUS-1``."""
    return Mixture().draw(CORPUS)


def queries(seed: int, count: int) -> np.ndarray:
    """``count`` fresh queries drawn by ``seed``."""
    return Mixture(stream=1 + 2 * seed).draw(count)


class RequestStream:
    """Single-query requests with bounded-Zipf repeats, generated lazily.

    Each request repeats one of the ``HOT`` popular queries with
    probability ``REPEAT_P``, and otherwise asks a fresh query never seen
    before.  The mix is stationary: the share of repeats does not depend
    on how many requests a run gets through.
    """

    def __init__(self, seed: int) -> None:
        self._mixture = Mixture(stream=2 + 2 * seed)
        self._rng = np.random.default_rng([seed, 0x51AB])
        weights = 1.0 / np.arange(1, HOT + 1) ** ZIPF_S
        self._weights = weights / weights.sum()
        #: ``keys[i]``: which distinct query request ``i`` asks (hot
        #: queries are keys ``0..HOT-1``, fresh ones count up from
        #: ``HOT``); ``vectors[key]`` is its vector.
        self.keys: list[int] = []
        self.vectors: list[np.ndarray] = list(self._mixture.draw(HOT))

    def request(self, index: int) -> tuple[int, np.ndarray]:
        """The key and vector of request ``index`` (generated on demand)."""
        while index >= len(self.keys):
            self._extend()
        key = self.keys[index]
        return key, self.vectors[key]

    def _extend(self) -> None:
        repeat = self._rng.random(CHUNK) < REPEAT_P
        ranks = self._rng.choice(HOT, size=CHUNK, p=self._weights)
        fresh = iter(self._mixture.draw(int((~repeat).sum())))
        for is_repeat, rank in zip(repeat, ranks):
            if is_repeat:
                self.keys.append(int(rank))
            else:
                self.keys.append(len(self.vectors))
                self.vectors.append(next(fresh))


def exact_top_k(corpus: np.ndarray, queries: np.ndarray, k: int):
    """Exact Euclidean top-``k`` by float64 brute force.

    Returns ``(ids, dists)``, each ``(len(queries), k)``, ascending.
    """
    base = corpus.astype(np.float64)
    base_sq = np.einsum("nd,nd->n", base, base)
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k), dtype=np.float64)
    for start in range(0, len(queries), 256):
        block = queries[start : start + 256].astype(np.float64)
        squared = (
            np.einsum("nd,nd->n", block, block)[:, None]
            - 2.0 * block @ base.T
            + base_sq[None, :]
        )
        part = np.argpartition(squared, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(squared, part, axis=1)
        order = np.argsort(part_d, axis=1, kind="stable")
        ids[start : start + 256] = np.take_along_axis(part, order, axis=1)
        dists[start : start + 256] = np.sqrt(
            np.maximum(np.take_along_axis(part_d, order, axis=1), 0.0)
        )
    return ids, dists
