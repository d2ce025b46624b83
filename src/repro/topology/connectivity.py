"""Connectivity of simplicial complexes via GF(2) simplicial homology.

Proposition 2 of the paper relates the hidden capacity of a node to the
``(k-1)``-connectivity of its star complex inside the protocol complex.
Topological ``q``-connectivity (vanishing homotopy groups up to dimension
``q``) is not decidable in general, but the standard computable proxy used
throughout the distributed-computing lower-bound literature is the vanishing
of *reduced homology* in dimensions ``0 .. q`` — a necessary condition for
``q``-connectivity, and the condition that the Sperner/index arguments
actually consume.

This module computes reduced Betti numbers over GF(2) on the bitset kernel
of :mod:`repro.topology.complexes`:

* chain groups are *streamed one dimension at a time* as bit combinations of
  the facet masks, deduplicated across facets as plain integers, and never
  materialised beyond dimension ``q + 1`` when only ``b̃_0 .. b̃_q`` are
  requested — so :func:`connectivity_profile` with ``max_q = k - 1`` does
  work proportional to the low-dimensional skeleton, not to the full
  (exponential) face lattice;
* chain-group bases are indexed and ordered by the simplex's bitset value
  over the pool's interned vertex ids — a canonical order that is immune to
  ``repr`` collisions between distinct vertices (the former sort key);
* boundary matrices are eliminated incrementally, one column (= one
  higher-dimensional simplex) at a time, and the profile scan exits at the
  first non-vanishing Betti number; the rank of ``∂_{q+1}`` is reused as the
  down-rank of dimension ``q + 1`` instead of being recomputed.

Three interchangeable homology backends sit behind a ``backend`` knob on
:func:`reduced_betti_numbers` / :func:`connectivity_profile` /
:func:`is_homologically_q_connected` / :class:`ConnectivityCache` (and,
threaded through, on :func:`repro.topology.capacity_connectivity_census`
and the CLI's ``census`` subcommand):

* ``"packed"`` (the default) — the word-packed pipeline built on
  :mod:`repro.topology.gf2`.  Boundary matrices are assembled straight from
  the facet bitmasks into packed rows (no per-simplex Python objects) and
  eliminated by the backend-dispatched rank kernel; on top of that sit two
  structural shortcuts that bypass elimination entirely where the survey
  workload lives: a **cone test** (a vertex common to every facet makes the
  complex a cone, hence contractible — *every* star complex is such a cone
  with its own apex, so the Proposition 2 surveys answer in O(facets) per
  star), and a **union-find pass** over the facet masks that yields
  ``b̃_0 = c - 1`` and ``rank ∂_1 = |V| - c`` without enumerating a single
  edge row.
* ``"bigint"`` — the previous sparse kernel (big-int rows, dict-pivot
  elimination), retained verbatim as the first differential oracle.
* ``"dense"`` — the seed's dense algorithm (full face-lattice enumeration
  over frozensets, one complete Betti recomputation per probed ``q``),
  retained verbatim as :func:`dense_reduced_betti_numbers` /
  :func:`dense_connectivity_profile` — the second oracle and the baseline
  ``bench_star_connectivity`` measures against.

All three are observationally identical — pinned on golden spaces and the
randomized differential battery (``tests/test_homology_fuzz.py``), on the
exhaustive n=4, t=2 star family (``tests/test_homology_differential.py``)
and byte-identically on census rows (``benchmarks/bench_prop2_connectivity``).

Homology is additionally invariant under vertex relabelling, and survey
consumers probe families of pairwise-isomorphic stars;
:class:`ConnectivityCache` memoises profiles under the exact canonical
signature of :func:`repro.symmetry.star_signature`, so each isomorphism
class is eliminated once (``bench_symmetry_quotient`` gates the collapse,
``tests/test_quotient_differential.py`` pins cached == dense-oracle
profiles on the exhaustive n=4, t=2 star family).

The complexes this module is pointed at arrive from the fused builder pass
(:func:`repro.topology.build_restricted_complex`, one view-only scheduler
traversal, sharded across workers for survey-scale families), and the
Proposition 2 surveys recover each vertex's hidden capacity from its
canonical key (:func:`repro.topology.protocol_complex.vertex_capacity`) —
so a capacity-vs-connectivity census simulates nothing beyond that single
pass.

The substitution (homology proxy instead of true connectivity) is recorded in
docs/topology.md and exercised by ``benchmarks/bench_prop2_connectivity.py``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

from .complexes import SimplicialComplex, Simplex, iter_bits
from .gf2 import boundary_rank as _packed_boundary_rank

#: The interchangeable homology backends (see the module docstring).
HOMOLOGY_BACKENDS: Tuple[str, ...] = ("packed", "bigint", "dense")

#: The backend consumers get when they do not ask for one.
DEFAULT_HOMOLOGY_BACKEND = "packed"


def validate_homology_backend(backend: str) -> None:
    """Raise ``ValueError`` unless ``backend`` names a homology backend."""
    if backend not in HOMOLOGY_BACKENDS:
        raise ValueError(
            f"unknown homology backend {backend!r}: expected one of "
            f"{', '.join(HOMOLOGY_BACKENDS)}"
        )


def _gf2_rank(rows: List[int]) -> int:
    """Rank of a GF(2) matrix whose rows are given as Python integers (bitsets).

    Incremental Gaussian elimination: pivots live in a dict keyed by their
    leading-bit index (``int.bit_length() - 1``), so reducing a new row costs
    one dict lookup per XOR instead of a scan over the accepted pivots; the
    row either becomes a new pivot (raising the rank) or vanishes (linearly
    dependent).
    """
    pivots: Dict[int, int] = {}
    rank = 0
    for row in rows:
        current = row
        while current:
            lead = current.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = current
                rank += 1
                break
            current ^= pivot
    return rank


# --------------------------------------------------------------- sparse kernel
def _local_facets(complex_: SimplicialComplex) -> Tuple[List[int], List]:
    """The facet bitsets re-based onto a dense ``0 .. |V|-1`` bit range.

    Subcomplexes share their parent's :class:`VertexPool`, so a star cut out
    of a 5000-vertex protocol complex carries facet masks thousands of bits
    wide even though it touches twenty vertices.  Homology only needs ids
    that are *consistent*, not global: compressing onto the complex's own
    vertices keeps every chain-group mask word-sized.  The compression is
    monotone in the global ids, so orderings by mask value are preserved.

    Returns the local facet masks plus the vertex of each local bit (for
    consumers that materialise simplexes back out).
    """
    pool = complex_.pool
    position_of: Dict[int, int] = {}
    vertices: List = []
    for vid in iter_bits(complex_.vertex_mask):
        position_of[vid] = len(vertices)
        vertices.append(pool.vertex_at(vid))
    locals_: List[int] = []
    for mask in complex_.facet_masks:
        local = 0
        for vid in iter_bits(mask):
            local |= 1 << position_of[vid]
        locals_.append(local)
    return locals_, vertices


def _masks_at_dimension(facet_masks: Sequence[int], dimension: int) -> List[int]:
    """All dimension-``dimension`` simplex masks of the complex, ascending.

    Streams ``(dimension+1)``-subsets of each facet's bit positions and
    deduplicates across facets as integers; the ascending sort both fixes the
    chain-group order (by interned vertex ids, not ``repr``) and makes the
    boundary matrices reproducible.
    """
    size = dimension + 1
    out = set()
    for mask in facet_masks:
        bits = [1 << vid for vid in iter_bits(mask)]
        if len(bits) >= size:
            for combo in itertools.combinations(bits, size):
                out.add(sum(combo))
    return sorted(out)


def _boundary_rank_masks(lower: Sequence[int], upper: Sequence[int]) -> int:
    """Rank over GF(2) of the boundary map from ``upper`` masks to ``lower`` ones.

    Each upper simplex contributes one column: its codimension-1 faces are
    the masks with one bit cleared, looked up in the lower basis by value.
    The elimination consumes the columns incrementally (see
    :func:`_gf2_rank`), so the matrix is never materialised densely.
    """
    if not upper or not lower:
        return 0
    # Map each lower-basis mask straight to its row bit: one dict hit per
    # face lookup, no per-face shift re-derivation.
    bit_of = {mask: 1 << position for position, mask in enumerate(lower)}
    rows: List[int] = []
    for mask in upper:
        row = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            row |= bit_of[mask ^ low]
            remaining ^= low
        rows.append(row)
    return _gf2_rank(rows)


def _betti_stream(complex_: SimplicialComplex, top: int) -> Iterator[int]:
    """Yield ``b̃_0, b̃_1, ..`` up to dimension ``top``, lazily.

    Dimension ``q + 1`` is enumerated only when ``b̃_q`` is actually pulled,
    so an early-exiting consumer (:func:`connectivity_profile`) touches
    nothing above the first non-vanishing dimension plus one.  The rank of
    ``∂_{q+1}`` flows forward as the down-rank of dimension ``q + 1``.
    """
    facet_masks, _ = _local_facets(complex_)
    dimension = complex_.dimension
    current = _masks_at_dimension(facet_masks, 0)
    # Augmented boundary: every vertex maps to the generator of C_{-1}.
    rank_down = 1 if current else 0
    for q in range(top + 1):
        above = _masks_at_dimension(facet_masks, q + 1) if q < dimension else []
        rank_up = _boundary_rank_masks(current, above)
        yield len(current) - rank_down - rank_up
        current = above
        rank_down = rank_up


# --------------------------------------------------------------- packed kernel
def _facet_component_count(facet_masks: Sequence[int]) -> int:
    """Number of connected components, by union-find over the facet bit lists.

    Every facet is itself connected, so unioning each facet's vertices
    (first bit with the rest) computes the components of the whole complex
    without enumerating a single edge — the packed pipeline reads
    ``b̃_0 = c - 1`` and ``rank ∂_1 = |V| - c`` straight off the count.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    components = 0
    for mask in facet_masks:
        anchor = -1
        for vid in iter_bits(mask):
            if vid not in parent:
                parent[vid] = vid
                components += 1
            root = find(vid)
            if anchor < 0:
                anchor = root
            elif root != anchor:
                parent[root] = anchor
                components -= 1
    return components


def _common_apex(facet_masks: Sequence[int]) -> int:
    """The bitset of vertices shared by *every* facet (0 when there is none).

    Non-zero means the complex is a cone: for any apex ``v`` in the
    intersection, each simplex ``s`` lies in a facet containing ``v``, so
    ``s ∪ {v}`` is a simplex too.  Cones are contractible — all reduced
    homology vanishes — which settles every Betti and profile question in
    O(facets) bit-ANDs.  Star complexes are always cones (their own vertex
    is in every facet), so this is the path the Proposition 2 surveys take.
    """
    if not facet_masks:
        return 0
    apex = -1
    for mask in facet_masks:
        apex &= mask
        if not apex:
            return 0
    return apex


def _packed_betti_stream(complex_: SimplicialComplex, top: int) -> Iterator[int]:
    """The packed backend's lazy Betti stream (same contract as :func:`_betti_stream`).

    Structural shortcuts first — the cone test answers contractible
    complexes outright, and union-find over the facet masks settles
    dimension 0 (``b̃_0 = c - 1``) while seeding ``rank ∂_1 = |V| - c`` as
    the first reused down-rank.  Higher boundary ranks are computed by
    :func:`repro.topology.gf2.boundary_rank` on word-packed rows assembled
    directly from the dimension's bit-combination masks, with each basis's
    position index built once and shared between its upper and lower roles.
    """
    # The cone test runs on the *global* facet masks: re-basing is monotone,
    # so a common apex exists locally iff it exists globally — and a star
    # complex (every facet contains the star's vertex) answers here without
    # paying the local re-basing pass at all.
    if _common_apex(complex_.facet_masks):
        for _ in range(top + 1):
            yield 0
        return
    facet_masks, _ = _local_facets(complex_)
    components = _facet_component_count(facet_masks)
    yield components - 1
    if top == 0:
        return
    dimension = complex_.dimension
    rank_down = complex_.vertex_count - components  # rank ∂_1, by union-find
    current = _masks_at_dimension(facet_masks, 1)
    index = {mask: position for position, mask in enumerate(current)}
    for q in range(1, top + 1):
        above = _masks_at_dimension(facet_masks, q + 1) if q < dimension else []
        rank_up = _packed_boundary_rank(current, above, position_of=index)
        yield len(current) - rank_down - rank_up
        current = above
        index = {mask: position for position, mask in enumerate(above)}
        rank_down = rank_up


def _betti_stream_for(
    complex_: SimplicialComplex, top: int, backend: str
) -> Iterator[int]:
    """The chosen backend's Betti stream (``dense`` has no stream — see callers)."""
    if backend == "packed":
        return _packed_betti_stream(complex_, top)
    return _betti_stream(complex_, top)


def simplices_by_dimension(complex_: SimplicialComplex) -> Dict[int, List[Simplex]]:
    """All simplexes of the complex grouped (and deterministically ordered) by dimension.

    The order within a dimension is by the simplex's bitset over interned
    vertex ids — canonical even when distinct vertices share a ``repr``
    (which used to collapse the former ``repr``-keyed sort ordering).
    """
    grouped: Dict[int, List[Simplex]] = {}
    facet_masks, vertices = _local_facets(complex_)
    for dim in range(complex_.dimension + 1):
        masks = _masks_at_dimension(facet_masks, dim)
        if masks:
            grouped[dim] = [
                frozenset(vertices[position] for position in iter_bits(mask))
                for mask in masks
            ]
    return grouped


def reduced_betti_numbers(
    complex_: SimplicialComplex,
    max_dimension: int | None = None,
    backend: str = DEFAULT_HOMOLOGY_BACKEND,
) -> List[int]:
    """Reduced GF(2) Betti numbers ``b̃_0 .. b̃_D`` of the complex.

    ``D`` defaults to the complex's dimension.  The empty complex has no
    Betti numbers (an empty list is returned).  With ``max_dimension = q``
    only the skeleton up to dimension ``q + 1`` is ever enumerated.
    ``backend`` selects the homology backend (see the module docstring);
    all three return identical lists.
    """
    validate_homology_backend(backend)
    if backend == "dense":
        return dense_reduced_betti_numbers(complex_, max_dimension=max_dimension)
    if complex_.is_empty():
        return []
    top = complex_.dimension if max_dimension is None else min(max_dimension, complex_.dimension)
    if top < 0:
        return []
    return list(_betti_stream_for(complex_, top, backend))


def is_homologically_q_connected(
    complex_: SimplicialComplex, q: int, backend: str = DEFAULT_HOMOLOGY_BACKEND
) -> bool:
    """The homological proxy for ``q``-connectivity.

    ``True`` iff the complex is non-empty and its reduced GF(2) homology
    vanishes in every dimension ``0 .. q``.  For ``q = -1`` this is just
    non-emptiness (the usual convention); for ``q = 0`` it coincides with
    path-connectedness.
    """
    validate_homology_backend(backend)
    if complex_.is_empty():
        return False
    if q < 0:
        return True
    return connectivity_profile(complex_, max_q=q, backend=backend) >= q


def connectivity_profile(
    complex_: SimplicialComplex,
    max_q: int | None = None,
    backend: str = DEFAULT_HOMOLOGY_BACKEND,
) -> int:
    """The largest ``q`` (up to ``max_q``) for which the homological proxy holds.

    Returns ``-2`` for the empty complex, ``-1`` for a non-empty but
    disconnected complex, and otherwise the largest ``q`` with vanishing
    reduced homology through dimension ``q``.  The Betti stream is consumed
    incrementally and abandoned at the first non-vanishing dimension, so a
    ``max_q = k - 1`` star survey pays for the ``k``-skeleton only — and on
    the packed backend a star complex (always a cone) pays only the O(facets)
    cone test.  All backends return identical profiles.
    """
    validate_homology_backend(backend)
    if backend == "dense":
        return dense_connectivity_profile(complex_, max_q=max_q)
    if complex_.is_empty():
        return -2
    limit = complex_.dimension if max_q is None else max_q
    if limit < 0:
        return -1
    top = min(limit, complex_.dimension)
    for q, betti in enumerate(_betti_stream_for(complex_, top, backend)):
        if betti != 0:
            return q - 1
    # Dimensions above the complex's own dimension contribute nothing, so a
    # complex clean through its top dimension is connected through ``limit``.
    return limit


class ConnectivityCache:
    """Isomorphism-keyed memoisation of :func:`connectivity_profile`.

    Reduced homology is invariant under any relabelling of a complex's
    vertices, and the Proposition 2 surveys probe thousands of star complexes
    that differ *only* by such a relabelling (renaming the processes of the
    underlying executions).  The cache keys each profile by the **exact**
    canonical form of the facet structure
    (:func:`repro.symmetry.star_signature` — equal signatures guarantee an
    isomorphism, never merely a matching hash), so homology runs once per
    star-isomorphism class instead of once per vertex, with no possibility of
    a collision serving a wrong profile.

    ``signature`` selects the canonical form: the default
    :func:`repro.symmetry.star_signature` keys by the full
    vertex-relabelling isomorphism class (maximal hits; exponential worst
    case on highly symmetric stars), while
    :func:`repro.symmetry.renaming_star_signature` keys protocol-complex
    stars by their process-renaming class — the survey configuration, whose
    search space is the ``n!`` renamings rather than the ``|V|!``
    relabellings.  Both are exact canonical forms, so either way a hit can
    only ever serve a profile of an isomorphic complex.

    ``max_q`` is part of the key: a profile truncated at ``k - 1`` says
    nothing about higher dimensions.  ``hits`` / ``misses`` expose the
    collapse factor for benchmarks.

    ``backend`` selects the homology backend misses are computed with; since
    the backends are observationally identical, it does not enter the cache
    key — it only decides what a miss costs.

    ``store`` adds a persistent tier (:class:`repro.store.ResultStore`):
    an in-memory miss consults the store before running homology, and a
    computed profile is written back (committed at the caller's next batch
    boundary).  Profiles are a pure function of the star's isomorphism
    class, so the store namespace is universal — every survey that ever
    probes an isomorphic star shares the row, whatever its context.  A
    store hit counts as ``store_hits``, **not** as a miss: like an
    in-memory hit, it ran no homology (``homology_runs`` accounting).
    """

    __slots__ = (
        "_profiles",
        "_signature",
        "_signature_name",
        "backend",
        "hits",
        "misses",
        "store",
        "store_hits",
    )

    def __init__(
        self, signature=None, backend: str = DEFAULT_HOMOLOGY_BACKEND, store=None
    ) -> None:
        validate_homology_backend(backend)
        self._profiles: Dict[Tuple, int] = {}
        self._signature = signature
        self._signature_name = None
        self.backend = backend
        self.hits = 0
        self.misses = 0
        self.store = store
        self.store_hits = 0

    def __len__(self) -> int:
        return len(self._profiles)

    def profile(self, complex_: SimplicialComplex, max_q: int | None = None) -> int:
        """``connectivity_profile(complex_, max_q)`` through the signature cache."""
        signature = self._signature
        if signature is None:
            from ..symmetry import star_signature  # deferred: symmetry imports this package

            signature = self._signature = star_signature
        key = (signature(complex_), max_q)
        cached = self._profiles.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if self.store is not None and self.store.available:
            from ..store import PROFILE_SPEC_HASH, profile_key

            if self._signature_name is None:
                self._signature_name = getattr(
                    signature, "__name__", type(signature).__name__
                )
            row_key = profile_key(self._signature_name, key[0], max_q)
            stored = self.store.get("profile", PROFILE_SPEC_HASH, row_key)
            if stored is not None:
                self.store_hits += 1
                self._profiles[key] = stored
                return stored
            self.misses += 1
            level = connectivity_profile(complex_, max_q=max_q, backend=self.backend)
            self._profiles[key] = level
            self.store.put("profile", PROFILE_SPEC_HASH, row_key, level)
            return level
        self.misses += 1
        level = connectivity_profile(complex_, max_q=max_q, backend=self.backend)
        self._profiles[key] = level
        return level


def euler_characteristic(complex_: SimplicialComplex) -> int:
    """The Euler characteristic (a cheap cross-check for the homology code)."""
    facet_masks, _ = _local_facets(complex_)
    return sum(
        ((-1) ** dim) * len(_masks_at_dimension(facet_masks, dim))
        for dim in range(complex_.dimension + 1)
    )


# ------------------------------------------------------------------ dense oracle
def _dense_simplices_by_dimension(complex_: SimplicialComplex) -> Dict[int, List[Simplex]]:
    """The seed grouping: the full face lattice, materialised as frozensets."""
    grouped: Dict[int, List[Simplex]] = {}
    for s in complex_.simplices():
        grouped.setdefault(len(s) - 1, []).append(s)
    for dim in grouped:
        grouped[dim].sort(key=lambda s: tuple(sorted(map(repr, s))))
    return grouped


def _dense_boundary_rank(lower: Sequence[Simplex], upper: Sequence[Simplex]) -> int:
    """The seed boundary rank: face lookups by frozenset difference."""
    if not upper or not lower:
        return 0
    index_of = {s: i for i, s in enumerate(lower)}
    rows: List[int] = []
    for s in upper:
        row = 0
        for vertex in s:
            position = index_of.get(s - {vertex})
            if position is not None:
                row |= 1 << position
        rows.append(row)
    return _gf2_rank(rows)


def dense_reduced_betti_numbers(
    complex_: SimplicialComplex, max_dimension: int | None = None
) -> List[int]:
    """The seed homology algorithm, kept as the differential-testing oracle.

    Materialises **every** face of every facet as a frozenset before any
    elimination, recomputes each boundary rank twice (once as up-rank, once
    as down-rank) — exactly the dense path the sparse kernel replaced, and
    the baseline ``bench_star_connectivity`` measures against.
    """
    if complex_.is_empty():
        return []
    grouped = _dense_simplices_by_dimension(complex_)
    top = complex_.dimension if max_dimension is None else min(max_dimension, complex_.dimension)
    betti: List[int] = []
    for q in range(top + 1):
        current = grouped.get(q, [])
        below = grouped.get(q - 1, [])
        above = grouped.get(q + 1, [])
        n_q = len(current)
        if q == 0:
            rank_down = 1 if n_q > 0 else 0
        else:
            rank_down = _dense_boundary_rank(below, current)
        rank_up = _dense_boundary_rank(current, above)
        betti.append(n_q - rank_down - rank_up)
    return betti


def dense_connectivity_profile(complex_: SimplicialComplex, max_q: int | None = None) -> int:
    """The seed profile scan: one full Betti recomputation per probed ``q``."""
    if complex_.is_empty():
        return -2
    limit = complex_.dimension if max_q is None else max_q
    level = -1
    for q in range(limit + 1):
        betti = dense_reduced_betti_numbers(complex_, max_dimension=q)
        if all(b == 0 for b in betti[: q + 1]):
            level = q
        else:
            break
    return level
