"""Seeded social graph and the reference answers the benchmark checks against.

The graph is ``Person {uid, city, age}`` nodes joined by ``KNOWS`` edges
from the repository's Graph500 R-MAT generator, so out-degree is skewed
as in the paper's Graph500 data set.  Duplicate R-MAT pairs are dropped:
the edge set is simple, so a query's row count does not depend on how
the engine treats parallel edges.

The reference answers are computed here with numpy/scipy from the same
edge list, never through the engine under test.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.datasets import graph500_edges

SCALE = 15
EDGE_FACTOR = 8
N_CITIES = 64
AGE_RANGE = (18, 90)


class SocialGraph:
    """One seeded data set: node columns, the edge list and a CSR copy."""

    def __init__(self, seed: int, scale: int = SCALE) -> None:
        src, dst, n = graph500_edges(scale, EDGE_FACTOR, seed=seed)
        pairs = np.unique(src.astype(np.int64) * n + dst)
        self.n = n
        self.src = pairs // n
        self.dst = pairs % n
        rng = np.random.default_rng([seed, 1])
        self.uid = rng.permutation(n).astype(np.int64)  # node index -> uid
        self.city = rng.integers(0, N_CITIES, n)
        self.age = rng.integers(AGE_RANGE[0], AGE_RANGE[1], n)
        self.csr = sp.csr_matrix(
            (np.ones(len(self.src), dtype=np.int8), (self.src, self.dst)), shape=(n, n)
        )
        self.out_degree = np.diff(self.csr.indptr)
        self.two_hop_size = self.csr @ self.out_degree  # 2-hop paths from each node
        # read and write keys come only from persons with an out-edge
        self.key_nodes = np.flatnonzero(self.out_degree > 0)

    @property
    def m(self) -> int:
        return len(self.src)

    def city_name(self, code: int) -> str:
        return f"city{int(code):02d}"

    def node_columns(self) -> Dict[str, list]:
        return {
            "uid": self.uid.tolist(),
            "city": [self.city_name(c) for c in self.city],
            "age": self.age.tolist(),
        }

    def neighbours(self, nodes: np.ndarray) -> np.ndarray:
        """Out-neighbours of ``nodes`` (with repeats)."""
        if len(nodes) == 1:
            i = int(nodes[0])
            return self.csr.indices[self.csr.indptr[i] : self.csr.indptr[i + 1]]
        return self.csr[nodes].indices


class Oracle:
    """Reference answers for every read class on the static graph."""

    def __init__(self, g: SocialGraph) -> None:
        self.g = g

    def point(self, node: int) -> List[Tuple[int, int]]:
        nb = self.g.neighbours(np.array([node]))
        return sorted(zip(self.g.uid[nb].tolist(), self.g.age[nb].tolist()))

    def hop2(self, node: int) -> int:
        return len(np.unique(self.g.neighbours(np.unique(self.g.neighbours(np.array([node]))))))

    def reach(self, node: int, hops: int) -> np.ndarray:
        """Nodes reachable from ``node`` in 1..hops steps, ``node`` excluded
        (breadth-first levels over the CSR)."""
        seen = np.zeros(self.g.n, dtype=bool)
        seen[node] = True
        frontier = np.array([node])
        for _ in range(hops):
            nxt = np.unique(self.g.neighbours(frontier))
            frontier = nxt[~seen[nxt]]
            if not len(frontier):
                break
            seen[frontier] = True
        seen[node] = False
        return seen

    def khop(self, node: int, hops: int) -> int:
        return int(self.reach(node, hops).sum())

    def varlen(self, nodes: Sequence[int], hops: int) -> int:
        union = np.zeros(self.g.n, dtype=bool)
        for node in nodes:
            union |= self.reach(int(node), hops)
        return int(union.sum())

    def agg(self) -> Dict[str, Tuple[int, int]]:
        counts = np.bincount(self.g.city, minlength=N_CITIES)
        sums = np.bincount(self.g.city, weights=self.g.age, minlength=N_CITIES)
        return {
            self.g.city_name(c): (int(counts[c]), int(sums[c]))
            for c in range(N_CITIES)
            if counts[c]
        }

    def wcc(self) -> int:
        return int(connected_components(self.g.csr, directed=True, connection="weak")[0])


class WriteLog:
    """The acknowledged writes of ``oltp_mixed`` and the reads they allow.

    Writes are numbered in the order the single writer connection sent
    them.  ``point(node, k)`` and ``hop2(node, k)`` answer on the graph
    after the first ``k`` writes; a read is correct when it matches the
    graph at some ``k`` between the writes acknowledged before it was
    sent and the writes sent before its reply arrived.
    """

    def __init__(self, g: SocialGraph) -> None:
        self.g = g
        self.writes: List[tuple] = []
        self.extra_out: Dict[int, List[Tuple[int, int]]] = {}  # node -> [(k, dst node)]
        self.age_sets: Dict[int, List[Tuple[int, int]]] = {}  # node -> [(k, age)]
        self.created: List[Tuple[int, str, int]] = []  # (uid, city, age)

    def record(self, write: tuple) -> None:
        k = len(self.writes)
        self.writes.append(write)
        kind = write[0]
        if kind == "edge":
            self.extra_out.setdefault(write[1], []).append((k, write[2]))
        elif kind == "set":
            self.age_sets.setdefault(write[1], []).append((k, write[2]))
        else:
            self.created.append(write[1:])

    def _out(self, node: int, k: int) -> np.ndarray:
        base = self.g.neighbours(np.array([node]))
        extra = [d for kk, d in self.extra_out.get(node, ()) if kk < k]
        return np.concatenate([base, np.array(extra, dtype=base.dtype)]) if extra else base

    def _age(self, node: int, k: int) -> int:
        age = int(self.g.age[node])
        for kk, value in self.age_sets.get(node, ()):
            if kk < k:
                age = value
        return age

    def point(self, node: int, k: int) -> List[Tuple[int, int]]:
        nb = self._out(node, k)
        return sorted((int(self.g.uid[b]), self._age(int(b), k)) for b in nb)

    def hop2(self, node: int, k: int) -> int:
        first = np.unique(self._out(node, k))
        parts = [self.g.neighbours(first)] if len(first) else []
        for x in first.tolist():
            extra = [d for kk, d in self.extra_out.get(x, ()) if kk < k]
            if extra:
                parts.append(np.array(extra))
        return len(np.unique(np.concatenate(parts))) if parts else 0

    def final_edges(self, nodes: Iterable[int]) -> Counter:
        k = len(self.writes)
        out: Counter = Counter()
        for node in nodes:
            for b in self._out(node, k):
                out[(int(self.g.uid[node]), int(self.g.uid[b]))] += 1
        return out

    def final_ages(self) -> Dict[int, int]:
        k = len(self.writes)
        return {int(self.g.uid[node]): self._age(node, k) for node in self.age_sets}
