"""The analyze phase and its one record.

The paper's static approach (Section 3) makes the entire analyze phase —
maximum transversal, minimum-degree ordering on AᵀA, George–Ng symbolic
factorization, supernode partition and amalgamation — a function of the
*nonzero pattern alone*, valid for every matrix sharing the pattern.  This
module sits below ``repro.api`` / ``service`` / ``tune`` / ``chaos`` and is
the one place that chain is spelled out:

* :func:`pattern_key` — a stable hash of the CSR pattern (values excluded);
* :func:`analyze` and :class:`AnalysisArtifacts` — the chain and its
  pattern-only products (permutations, symbolic structure, partition, block
  structure, lazily built task graph), which re-apply to a new same-pattern
  matrix (``order``) and re-block at another supernode size (``reblock``);
* :class:`PatternLRU` — the one LRU + hit/miss/eviction accounting under
  :class:`repro.service.AnalysisCache` and :class:`repro.tune.PlanCache`.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np


def pattern_key(A) -> str:
    """Stable hex digest of a CSR matrix's nonzero *pattern*.

    Hashes shape, ``indptr`` and ``indices`` — not values — so any two
    matrices with identical structure collide deliberately.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64([A.nrows, A.ncols]).tobytes())
    h.update(np.ascontiguousarray(A.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


#: CPython keeps one shared object per int up to this value; larger ints are
#: one object per allocation
_SHARED_INT_MAX = 256

#: summed lengths of the field names of SymbolicFactorization,
#: BlockPartition and BlockStructure, plus 8 for ``sym.n``
_SYM_FIELDS, _PART_FIELDS, _BSTRUCT_FIELDS = 9 + 8, 47, 48


def _int_objects(*values) -> int:
    """Number of distinct int objects behind ``values`` when every element
    was allocated on its own: ints up to :data:`_SHARED_INT_MAX` are shared
    per value, the rest count one each."""
    values = np.concatenate(values)
    shared = values[values <= _SHARED_INT_MAX]
    return len(values) - len(shared) + len(np.unique(shared))


def _opening_steps(sym, part, first: int) -> np.ndarray:
    """Elimination steps ``k >= first`` whose L column or U row touches a
    block that no earlier position of ``k``'s own block touches — the steps
    at which the block structure gains an ``(I, J)`` key."""
    block_of = part.block_of
    steps = np.arange(first, sym.n)
    opened = []
    for structs, skip_own_block in ((sym.lcol, False), (sym.urow, True)):
        structs = structs[first:]
        lens = np.fromiter(map(len, structs), dtype=np.int64, count=len(structs))
        k = np.repeat(steps, lens)
        own, touched = block_of[k], block_of[np.concatenate(structs)]
        # within one step the touched blocks are non-decreasing: keep one
        # entry per (step, touched block) before sorting
        keep = np.concatenate(([True], (k[1:] != k[:-1]) | (touched[1:] != touched[:-1])))
        if skip_own_block:
            keep &= touched != own
        k, key = k[keep], (own * part.N + touched)[keep]
        opened.append(k[np.unique(key, return_index=True)[1]])
    return np.unique(np.concatenate(opened))


def _accounted_nbytes(row_perm, col_perm, sym, part, bstruct) -> int:
    """Byte size the cache charges for one entry, from array lengths.

    Eviction under ``max_bytes`` depends on this figure, so it is kept equal
    to what the recursive object walk of the earlier implementation
    returned (``tests/data/analysis_golden.json`` pins it): 8 bytes per
    array element, the field-name lengths, ``part`` charged once on its own
    and once inside ``bstruct``, and 8 bytes per distinct int *object* held
    in a list or a key.  The walk met one such object per partition bound
    and block size, per ``lblocks``/``ublocks`` key, per L block (its row
    block, shared by the list entry and the ``lrows`` key), per U block (its
    column block) and per step that opened a block (that step's own block,
    shared by every key it opened) — with small ints shared per value.
    """
    N = part.N
    arrays = sym.factor_entries + sym.n
    arrays += 2 * (len(part.bounds) + len(part.block_of))
    arrays += sum(map(len, bstruct.lrows.values()))
    arrays += sum(map(len, bstruct.udense_cols.values()))

    part_ints = (part.bounds, part.sizes())
    block_ids = np.arange(N)
    lkeys = np.array(list(bstruct.lrows), dtype=np.int64).reshape(-1, 2)
    ukeys = np.array(list(bstruct.udense_cols), dtype=np.int64).reshape(-1, 2)
    # steps in blocks whose id is a shared int add nothing to block_ids
    opened = np.empty(0, dtype=np.int64)
    if N > _SHARED_INT_MAX + 1:
        opened = _opening_steps(sym, part, part.start(_SHARED_INT_MAX + 1))
    ints = _int_objects(*part_ints) + _int_objects(
        *part_ints,
        block_ids,
        np.fromiter(bstruct.ublocks, dtype=np.int64, count=len(bstruct.ublocks)),
        lkeys[:, 0],
        ukeys[:, 1],
        part.block_of[opened],
    )
    return (
        row_perm.nbytes + col_perm.nbytes
        + _SYM_FIELDS + 2 * _PART_FIELDS + _BSTRUCT_FIELDS
        + 8 * (arrays + ints)
    )


@dataclass
class AnalysisArtifacts:
    """Everything the analyze phase produced that depends only on the
    nonzero pattern: the row/column permutations (transversal + symmetric
    min-degree), the static symbolic factorization, the supernode partition
    and the block structure."""

    key: str
    row_perm: np.ndarray
    col_perm: np.ndarray
    sym: object  # SymbolicFactorization
    part: object  # BlockPartition
    bstruct: object  # BlockStructure
    nbytes: int = 0

    def __post_init__(self):
        if not self.nbytes:
            self.nbytes = _accounted_nbytes(
                self.row_perm, self.col_perm, self.sym, self.part, self.bstruct
            )

    @property
    def task_graph(self):
        """The task graph of ``bstruct``: built on first use, memoised on
        the block structure, where :func:`repro.parallel.run_1d` finds it."""
        from .taskgraph import task_graph_of

        return task_graph_of(self.bstruct)

    def order(self, A):
        """Apply the cached permutations to a new same-pattern matrix,
        reproducing exactly what :func:`repro.ordering.prepare_matrix`
        would return for it (values included, bit for bit)."""
        from .ordering.pipeline import OrderedMatrix

        Ap = A.permute(row_perm=self.row_perm, col_perm=self.col_perm)
        return OrderedMatrix(Ap, self.row_perm, self.col_perm)

    def reblock(self, block_size: int = 25, amalgamation: int = 4):
        """The same analysis at another supernode size: a new partition and
        block structure over the same permutations and symbolic
        factorization — field for field what
        ``analyze(A, block_size, amalgamation)`` returns."""
        return _blocked(self.key, self.row_perm, self.col_perm, self.sym,
                        block_size, amalgamation)


def _blocked(key, row_perm, col_perm, sym, block_size, amalgamation):
    from .supernodes import build_block_structure, build_partition

    part = build_partition(sym, max_size=block_size, amalgamation=amalgamation)
    return AnalysisArtifacts(
        key=key, row_perm=row_perm, col_perm=col_perm, sym=sym, part=part,
        bstruct=build_block_structure(sym, part),
    )


def analyze(A, block_size: int = 25, amalgamation: int = 4, tracer=None):
    """Run the full analyze phase; return ``(artifacts, ordered_matrix)``.

    This is the slow path the cache amortises: transversal + min-degree
    ordering, George–Ng symbolic factorization, supernode partition with
    amalgamation, and the block structure.

    ``tracer`` (a :class:`repro.obs.Tracer`) records the four analyze
    phases as spans on the ``pipeline/main`` track with deterministic
    *modeled* virtual durations, appended after whatever that track
    already holds.
    """
    from .ordering import prepare_matrix
    from .symbolic import static_symbolic_factorization

    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    art = _blocked(pattern_key(A), om.row_perm, om.col_perm, sym,
                   block_size, amalgamation)
    if tracer is not None:
        from .obs import analyze_phase_spans

        analyze_phase_spans(
            tracer, nnz=A.nnz, n=A.nrows,
            factor_entries=sym.factor_entries,
            t0=tracer.track_end("pipeline/main"),
        )
    return art, om


@dataclass
class LRUStats:
    """Counters accumulated over a :class:`PatternLRU`'s lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "hit_rate": self.hit_rate}


class PatternLRU:
    """The LRU map and its counters, shared by the pattern-keyed caches.

    A subclass is a dataclass that declares ``max_entries``, ``metrics`` (an
    optional :class:`repro.obs.MetricsRegistry` mirroring the stats as
    ``<metric_prefix>.<event>`` counters), ``_entries`` (an ``OrderedDict``)
    and ``_stats`` (an :class:`LRUStats`), and sets ``metric_prefix``.
    """

    metric_prefix = ""

    def _bump(self, event: str) -> None:
        setattr(self._stats, event, getattr(self._stats, event) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"{self.metric_prefix}.{event}").inc()

    def _key(self, key):
        return key

    def _over_capacity(self) -> bool:
        return len(self._entries) > self.max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return self._key(key) in self._entries

    def get(self, key):
        """Return the cached value for ``key`` (marking it
        most-recently-used) or ``None`` on a miss."""
        key = self._key(key)
        value = self._entries.get(key)
        if value is None:
            self._bump("misses")
            return None
        self._entries.move_to_end(key)
        self._bump("hits")
        return value

    def peek(self, key):
        """Like :meth:`get` but with no stats or LRU side effects."""
        return self._entries.get(self._key(key))

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, then evict LRU entries until the
        cache is within capacity again."""
        key = self._key(key)
        self._entries[key] = value
        self._entries.move_to_end(key)
        while self._over_capacity():
            self._entries.popitem(last=False)
            self._bump("evictions")

    def invalidate(self, key) -> bool:
        """Drop ``key`` if present; returns whether an entry was removed."""
        return self._entries.pop(self._key(key), None) is not None

    def clear(self) -> None:
        self._entries.clear()

    @property
    def stats(self):
        self._stats.entries = len(self._entries)
        return self._stats
