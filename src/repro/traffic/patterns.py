"""Synthetic traffic patterns.

A pattern maps a source PE coordinate to a destination coordinate; the
stochastic ones draw from a supplied ``numpy.random.Generator`` so runs are
reproducible.  Index-based patterns (transpose, bit reversal, shuffle,
complement) operate on the PE's row-major linear index, the conventional
definition from the interconnection-network literature, and are exact when
the node count is a power of two (they fall back to modular arithmetic
otherwise).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.coords import (
    Coord,
    all_coords,
    coord_from_index,
    lexicographic_index,
    num_nodes,
)

#: (source, shape, rng) -> destination
Pattern = Callable[[Coord, Tuple[int, ...], np.random.Generator], Coord]


def uniform(src: Coord, shape, rng: np.random.Generator) -> Coord:
    """Uniformly random destination different from the source."""
    n = num_nodes(shape)
    if n == 1:
        return src
    i = lexicographic_index(src, shape)
    j = int(rng.integers(0, n - 1))
    if j >= i:
        j += 1
    return coord_from_index(j, shape)


def transpose(src: Coord, shape, rng=None) -> Coord:
    """Matrix-transpose pattern: reverse the coordinate tuple (clipped to
    the extents when the shape is not square)."""
    rev = tuple(reversed(src))
    return tuple(min(v, n - 1) for v, n in zip(rev, shape))


def bit_reversal(src: Coord, shape, rng=None) -> Coord:
    """Reverse the bits of the linear index."""
    n = num_nodes(shape)
    bits = max(1, (n - 1).bit_length())
    i = lexicographic_index(src, shape)
    rev = int(format(i, f"0{bits}b")[::-1], 2)
    return coord_from_index(rev % n, shape)


def bit_complement(src: Coord, shape, rng=None) -> Coord:
    """Complement every coordinate: dest_k = n_k - 1 - src_k."""
    return tuple(n - 1 - v for v, n in zip(src, shape))


def shuffle(src: Coord, shape, rng=None) -> Coord:
    """Perfect shuffle: rotate the linear index's bits left by one."""
    n = num_nodes(shape)
    bits = max(1, (n - 1).bit_length())
    i = lexicographic_index(src, shape)
    rot = ((i << 1) | (i >> (bits - 1))) & ((1 << bits) - 1)
    return coord_from_index(rot % n, shape)


def tornado(src: Coord, shape, rng=None) -> Coord:
    """Tornado: move halfway around each dimension (adversarial for rings)."""
    return tuple((v + (n - 1) // 2) % n for v, n in zip(src, shape))


def neighbor(src: Coord, shape, rng=None) -> Coord:
    """Nearest neighbour: +1 along dimension 0 (wrapping)."""
    return ((src[0] + 1) % shape[0],) + src[1:]


def make_hotspot(
    hotspot: Coord, fraction: float = 0.2, background: Pattern = uniform
) -> Pattern:
    """With probability ``fraction`` send to ``hotspot``, else follow the
    background pattern (classic hot-spot workload)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("hotspot fraction must be in [0, 1]")
    hot = tuple(hotspot)

    def pattern(src: Coord, shape, rng: np.random.Generator) -> Coord:
        if src != hot and rng.random() < fraction:
            return hot
        return background(src, shape, rng)

    return pattern


def make_permutation(
    mapping: Sequence[int],
) -> Pattern:
    """Fixed permutation of linear indices (``mapping[i]`` = dest of node i)."""
    perm = list(mapping)

    def pattern(src: Coord, shape, rng=None) -> Coord:
        n = num_nodes(shape)
        if sorted(perm) != list(range(n)):
            raise ValueError("mapping is not a permutation of the node indices")
        return coord_from_index(perm[lexicographic_index(src, shape)], shape)

    return pattern


PATTERNS = {
    "uniform": uniform,
    "transpose": transpose,
    "bit_reversal": bit_reversal,
    "bit_complement": bit_complement,
    "shuffle": shuffle,
    "tornado": tornado,
    "neighbor": neighbor,
}


def block_form(pattern: Pattern, shape) -> Optional[Callable]:
    """A registered pattern as ``(source index, below) -> destination
    index`` (lexicographic), ``below(r)`` being ``integers(0, r)``:
    ``uniform``'s one draw plus ``j >= i -> j + 1``, or a table made by
    a per-source function that draws nothing.  None for an ad-hoc
    pattern and for ``uniform`` on two nodes or fewer (no draw)."""
    if pattern_name(pattern) is None:
        return None
    n = num_nodes(shape)
    if pattern is uniform:
        if n <= 2:
            return None

        def dest(i: int, below: Callable[[int], int]) -> int:
            j = below(n - 1)
            return j + 1 if j >= i else j

        return dest
    table = [
        lexicographic_index(pattern(c, shape), shape) for c in all_coords(shape)
    ]
    return lambda i, below: table[i]


def get_pattern(name: str) -> Pattern:
    try:
        return PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; choose from {sorted(PATTERNS)}"
        ) from None


def pattern_name(pattern: Pattern) -> Optional[str]:
    """Registry name of a pattern function, or None for ad-hoc callables
    (closures from :func:`make_hotspot` / :func:`make_permutation`).  Named
    patterns can cross process boundaries in a picklable
    :class:`~repro.runtime.spec.RunSpec`; ad-hoc ones cannot."""
    if isinstance(pattern, str):
        return pattern if pattern in PATTERNS else None
    for name, fn in PATTERNS.items():
        if fn is pattern:
            return name
    return None
