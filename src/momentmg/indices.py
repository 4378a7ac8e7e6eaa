"""Graded multi-index bookkeeping for truncated Hermite expansions.

A coefficient array of order ``M`` stores one real per multi-index
``alpha = (a1, a2, a3)`` with ``|alpha| <= M``.  The enumeration is graded
by degree ``|alpha|`` and, inside each degree, descending-lexicographic in
``(a1, a2, a3)`` (so ``(k,0,0)`` leads degree ``k`` and ``(0,0,k)`` closes
it).  The graded layout makes degree truncation a prefix operation, which
the order-transfer operators depend on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["moment_count", "OrderTable"]


def moment_count(M: int) -> int:
    """Number of multi-indices with ``|alpha| <= M``, i.e. C(M+3, 3)."""
    if M < 0:
        raise ValueError(f"order must be non-negative, got {M}")
    return math.comb(M + 3, 3)


def _indices_of_degree(k: int) -> list[tuple[int, int, int]]:
    return [(a1, a2, k - a1 - a2)
            for a1 in range(k, -1, -1)
            for a2 in range(k - a1, -1, -1)]


@lru_cache(maxsize=None)
class OrderTable:
    """Precomputed index maps for one expansion order.

    Instances are cached per order; all arrays are read-only after
    construction and safe to share between threads.
    """

    def __init__(self, M: int):
        if M < 0:
            raise ValueError(f"order must be non-negative, got {M}")
        self.M = M
        self.count = moment_count(M)

        alphas = []
        offsets = [0]
        for k in range(M + 1):
            alphas.extend(_indices_of_degree(k))
            offsets.append(len(alphas))
        self.alphas = np.array(alphas, dtype=np.int64)
        self.degree = self.alphas.sum(axis=1)
        # degree_offset[k] : degree_offset[k+1] slices out degree k;
        # degree_offset[k+1] is also moment_count(k).
        self.degree_offset = np.array(offsets, dtype=np.int64)

        self._rank_of = {tuple(a): r for r, a in enumerate(alphas)}

        def lookup(shift):
            out = np.full(self.count, -1, dtype=np.int64)
            for r, a in enumerate(alphas):
                b = (a[0] + shift[0], a[1] + shift[1], a[2] + shift[2])
                out[r] = self._rank_of.get(b, -1)
            return out

        eye = np.eye(3, dtype=np.int64)
        self.minus = np.stack([lookup(-eye[d]) for d in range(3)])
        self.minus2 = np.stack([lookup(-2 * eye[d]) for d in range(3)])
        self.plus = np.stack([lookup(eye[d]) for d in range(3)])

        self.factorial = np.array(
            [math.factorial(a1) * math.factorial(a2) * math.factorial(a3)
             for a1, a2, a3 in alphas], dtype=np.float64)

        self.r_unit = np.array([self._rank_of[(1, 0, 0)],
                                self._rank_of[(0, 1, 0)],
                                self._rank_of[(0, 0, 1)]]) if M >= 1 else np.array([], dtype=np.int64)
        self.r_unit2 = np.array([self._rank_of[(2, 0, 0)],
                                 self._rank_of[(0, 2, 0)],
                                 self._rank_of[(0, 0, 2)]]) if M >= 2 else np.array([], dtype=np.int64)
        self.r_macro = np.r_[0, self.r_unit, self.r_unit2]  # what macros_of reads

        # clipped-index + mask pairs let the shift maps run as one fancy
        # gather and a multiply instead of np.where
        self._minus_clip = np.maximum(self.minus, 0)
        self._minus_mask = (self.minus >= 0).astype(np.float64)
        # six-shift gather of the re-centring series: rows 0-2 are
        # alpha - e_d, rows 3-5 alpha - 2 e_d; an undefined shift points at
        # index ``count``, a zero appended to the gathered array
        self._shift6 = np.vstack([self.minus, self.minus2])
        self._shift6[self._shift6 < 0] = self.count
        self._neg_j = -np.arange(1.0, M + 1.0)[:, None]  # the series' divisors

        for arr in (self.alphas, self.degree, self.degree_offset,
                    self.minus, self.minus2, self.plus, self.factorial, self._shift6,
                    self.r_macro, self._neg_j):
            arr.setflags(write=False)

    def rank(self, alpha) -> int:
        a = tuple(int(x) for x in alpha)
        if len(a) != 3 or any(x < 0 for x in a):
            raise ValueError(f"invalid multi-index {alpha}")
        r = self._rank_of.get(a)
        if r is None:
            raise IndexError(f"multi-index {a} has degree > {self.M}")
        return r

    def unrank(self, r: int) -> tuple[int, int, int]:
        if not 0 <= r < self.count:
            raise IndexError(f"rank {r} out of range for order {self.M}")
        return tuple(int(x) for x in self.alphas[r])

    def shift_down(self, w: np.ndarray, d: int) -> np.ndarray:
        """Coefficient array of ``alpha -> w[alpha - e_d]`` (zero where
        undefined), along the last axis of ``w``."""
        return w[..., self._minus_clip[d]] * self._minus_mask[d]
