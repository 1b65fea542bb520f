"""ctypes binding of the compiled search kernels built from _kernels.c.

Same entry points and results as _kernels_py, whose input checks it
reuses. The clique kernel makes one call to `_kernels_py.clique_order`
for its checks, relabelled rows and `allowed` mask; a search that it
finds ending at its root is answered there, before anything is packed,
and the C code does not run. Masks are packed into little-endian
uint64 words, W = ceil(n / 64) per mask, and every buffer the C code
touches is allocated here, zeroed. Arguments are clamped to ranges that
fit the C types without changing the result.
"""

from __future__ import annotations

import ctypes
import sys
from array import array
from typing import Sequence

from . import _kernels_py

_u64, _int, _ll = ctypes.c_uint64, ctypes.c_int, ctypes.c_longlong
_u64p, _intp, _llp = ctypes.POINTER(_u64), ctypes.POINTER(_int), ctypes.POINTER(_ll)


def _clamp(x: int, lo: int, hi: int) -> int:
    return max(lo, min(x, hi))


def _words(masks: list[int], w: int):
    """The masks as one ctypes uint64 array, w words per mask, low word first."""
    words = array("Q", b"".join(m.to_bytes(8 * w, "little") for m in masks) or bytes(8))
    if sys.byteorder == "big":
        words.byteswap()
    return (_u64 * len(words)).from_buffer(words)


def _zeros(ctype, count: int):
    return (ctype * max(count, 1))()


class CompiledKernels:
    """The two kernels of the shared library at `path`."""

    IMPLEMENTATION = "compiled"

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        self._clique = lib.bp_max_clique
        self._clique.argtypes = [
            _int, _int, _u64p, _u64p, _ll, _ll, _u64p, _u64p, _intp, _intp, _intp, _intp, _llp, _intp
        ]
        self._clique.restype = _ll
        self._subset = lib.bp_max_conflict_bounded_set
        self._subset.argtypes = [
            _int, _int, _int, _u64p, _intp, _ll, _ll, _intp, _intp, _u64p, _u64p, _u64p, _llp, _intp
        ]
        self._subset.restype = _ll

    def max_clique(
        self,
        adj: list[int],
        budget: int = _kernels_py.DEFAULT_BUDGET,
        target: int | None = None,
        floor_size: int = 0,
        allowed: int | None = None,
    ) -> tuple[int, list[int], bool, int]:
        """Largest clique of the graph given as per-vertex neighbor bitmasks; see _kernels_py."""
        relabelled = _kernels_py.clique_order(adj, budget, floor_size, allowed)
        if relabelled is None:
            return floor_size, [], True, 1
        order, radj, allow = relabelled
        n = len(adj)
        w = max(1, -(-n // 64))
        floor = _clamp(floor_size, -1, n)
        best, exhausted = _ll(floor), _int(0)
        members = _zeros(_int, n)
        nodes = self._clique(
            n, w, _words(radj, w), _words([allow], w),
            _clamp(budget, 0, 2**62), n + 1 if target is None else _clamp(target, -1, n + 1),
            _zeros(_u64, (n + 1) * w), _zeros(_u64, 2 * w),
            _zeros(_int, n * (n + 1)), _zeros(_int, n + 1), _zeros(_int, n), members,
            ctypes.byref(best), ctypes.byref(exhausted),
        )
        if best.value == floor:
            return floor_size, [], not exhausted.value, nodes
        return best.value, sorted(order[members[i]] for i in range(best.value)), not exhausted.value, nodes

    def max_conflict_bounded_set(
        self,
        conflicts: list[int],
        k: int,
        cap: int | None = None,
        budget: int = _kernels_py.DEFAULT_BUDGET,
        orbits: Sequence[int] | None = None,
    ) -> tuple[int, list[int], bool, int]:
        """Largest index subset in which every member conflicts with at most k members; see _kernels_py."""
        _kernels_py.check_conflicts(conflicts)
        d = len(conflicts)
        stops = _kernels_py.orbit_stops(orbits, d)
        w = max(1, -(-d // 64))
        best, exhausted = _ll(-1), _int(0)
        best_mask = _zeros(_u64, w)
        nodes = self._subset(
            d, w, _clamp(k, -1, d + 1), _words(conflicts, w), (_int * max(d, 1))(*stops),
            d + 1 if cap is None else _clamp(cap, -1, d + 1), _clamp(budget, 0, 2**62),
            _zeros(_int, d), _zeros(_int, d + 1), _zeros(_u64, (d + 1) * w), _zeros(_u64, w), best_mask,
            ctypes.byref(best), ctypes.byref(exhausted),
        )
        members = [i for i in range(d) if best_mask[i >> 6] >> (i & 63) & 1]
        return best.value, members, not exhausted.value, nodes
