"""Answer checks made apart from the program.

Every check recomputes what it compares against from the corpus: exact
neighbours by a float64 brute force (:func:`inputs.exact_top_k`), each
returned distance in float64, and the loaded-back index through the
storage layer's checksum-verifying loader.  Nothing is compared with a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import numpy as np

#: Recall floors; a run below them fails.
RECALL_FLOOR = {"build-batch": 0.90, "serve-remote": 0.90}


class CheckFailed(AssertionError):
    """A wrong answer: the run fails and prints no result."""


def check_rows(corpus, queries, ids, dists, k: int, what: str) -> None:
    """Shape, order, uniqueness, padding and float64 distances of answers.

    Distances are compared on squared Euclidean distance with a tolerance
    scaled by the operands' squared norms: the program scores in float32
    through ``|x|^2 - 2 q.x + |q|^2``, whose rounding error grows with
    the norms, not with the distance.
    """
    ids = np.asarray(ids)
    dists = np.asarray(dists, dtype=np.float64)
    if ids.shape != (len(queries), k) or dists.shape != ids.shape:
        raise CheckFailed(
            f"{what}: answer shape {ids.shape}/{dists.shape}, expected "
            f"({len(queries)}, {k})"
        )
    valid = ids >= 0
    # Padding (-1 / inf) only at the tail: once a row pads, it pads on.
    if np.any(valid[:, 1:] & ~valid[:, :-1]):
        raise CheckFailed(f"{what}: padding before a real answer")
    if np.any(np.isfinite(dists[~valid])):
        raise CheckFailed(f"{what}: padded slot with a finite distance")
    if np.any(ids[valid] >= len(corpus)):
        raise CheckFailed(f"{what}: id outside the corpus")
    if np.any(~np.isfinite(dists[valid])):
        raise CheckFailed(f"{what}: real answer with a non-finite distance")
    if np.any(np.diff(np.where(valid, dists, np.inf), axis=1) < 0):
        raise CheckFailed(f"{what}: row not sorted ascending")
    ordered = np.sort(np.where(valid, ids, -1 - np.arange(k)), axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise CheckFailed(f"{what}: duplicate id in a row")
    rows, cols = np.nonzero(valid)
    q = queries[rows].astype(np.float64)
    x = corpus[ids[rows, cols]].astype(np.float64)
    exact_sq = np.einsum("nd,nd->n", q - x, q - x)
    scale = np.einsum("nd,nd->n", q, q) + np.einsum("nd,nd->n", x, x)
    error = np.abs(dists[rows, cols] ** 2 - exact_sq)
    worst = int(np.argmax(error - (1e-5 * scale + 1e-6)))
    if error[worst] > 1e-5 * scale[worst] + 1e-6:
        raise CheckFailed(
            f"{what}: distance {dists[rows[worst], cols[worst]]!r} to id "
            f"{ids[rows[worst], cols[worst]]} differs from the float64 "
            f"value {np.sqrt(exact_sq[worst])!r}"
        )


def recall(ids, true_ids) -> float:
    """Mean share of each row's true neighbours found in its answer."""
    k = true_ids.shape[1]
    hits = sum(
        len(np.intersect1d(found[found >= 0], truth[:k]))
        for found, truth in zip(ids, true_ids)
    )
    return hits / (k * len(true_ids))


def check_recall(value: float, workload: str) -> None:
    if value < RECALL_FLOOR[workload]:
        raise CheckFailed(
            f"{workload}: recall {value:.4f} below its floor "
            f"{RECALL_FLOOR[workload]}"
        )


def check_written_index(fs, path: str, corpus_size: int) -> None:
    """The index loads back with checksums verified and holds every id."""
    from repro.storage.manifest import load_lanns_index

    index = load_lanns_index(fs, path)  # raises on any checksum mismatch
    held = np.concatenate(
        [
            segment.external_ids
            for shard in index.shards
            for segment in shard.segments
            if len(segment)
        ]
    )
    if len(held) != corpus_size or not np.array_equal(
        np.sort(held), np.arange(corpus_size)
    ):
        raise CheckFailed(
            f"written index holds {len(held)} ids "
            f"({len(np.unique(held))} distinct), expected every one of "
            f"{corpus_size}"
        )


def check_identical(first, second, what: str) -> None:
    """Bit-identical ``(ids, dists)`` pairs."""
    if not (
        np.array_equal(first[0], second[0])
        and np.array_equal(
            np.asarray(first[1]).view(np.uint64),
            np.asarray(second[1]).view(np.uint64),
        )
    ):
        raise CheckFailed(f"{what}: answers differ")
