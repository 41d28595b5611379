"""Recorded evidence for the analysis phase.

``tests/data/analysis_golden.json`` holds blake2b digests of every analysis
output — ``lcol``/``urow``, the partition bounds, the four block-structure
tables and ``AnalysisArtifacts.nbytes`` — recorded from the commit *before*
the analysis layer was vectorised (PR 12).  The tier-1 test below asserts
the current code reproduces them, so "bit-identical" is checked against
recorded evidence rather than against a retained old code path.

The ``ordering`` section pins the layer before it: ``perm`` and
``fill_edges`` of :func:`repro.ordering.minimum_degree` on the AᵀA and
A+Aᵀ patterns (``multiple`` both ways) and the ``indptr``/``indices`` of
:func:`repro.sparse.ata_pattern`, recorded from the commit before those two
kernels were rewritten in set algebra (PR 23).

Re-record (only when an analysis output is *meant* to change) — every
section, or only the named ones, the others keeping their bytes and their
``recorded_from``::

    PYTHONPATH=src python tests/test_analysis_golden.py [cases] [ordering]
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.matrices import generators as g, get_matrix, suite_names
from repro.ordering import maximum_transversal, minimum_degree
from repro.service import analyze
from repro.sparse import aplusat_pattern, ata_pattern

GOLDEN = pathlib.Path(__file__).parent / "data" / "analysis_golden.json"

CASES = {
    # the two cold_solve benchmark patterns (benchmarks/e2e, seed 0 round 0)
    "fem_unstructured_600": lambda: g.fem_unstructured(600, 12, 0.4, seed=0),
    "circuit_like_450": lambda: g.circuit_like(450, seed=0),
    "stencil_3d_6x6x5x3": lambda: g.stencil_3d(6, 6, 5, ndof=3),
    "stencil_2d_16x16": lambda: g.stencil_2d(16, 16, convection=2.5, seed=21),
    "block_structured_360": lambda: g.block_structured(360, block=30, seed=131),
    "nearly_dense_row_120": lambda: g.nearly_dense_row(120, seed=2),
    "random_nonsymmetric_80": lambda: g.random_nonsymmetric(80, density=0.08, seed=3),
    "dense_40": lambda: g.dense_matrix(40),
    # suite matrices; jpwh991 at bench scale has > 256 blocks
    "suite_sherman5_small": lambda: get_matrix("sherman5", "small"),
    "suite_goodwin_small": lambda: get_matrix("goodwin", "small"),
    "suite_jpwh991_bench": lambda: get_matrix("jpwh991", "bench"),
}


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()


def _table_digest(table: dict) -> str:
    """Digest of a ``key -> int sequence`` dict in sorted key order."""
    items = sorted(table.items())
    return _digest(x for k, v in items for x in (np.atleast_1d(k), v))


def analysis_digests(A) -> dict:
    """Every pattern-only analysis output of ``A`` at block size 25, for
    amalgamation 0 and 4."""
    out = {}
    for amalg in (0, 4):
        art, _ = analyze(A, block_size=25, amalgamation=amalg)
        sym, bs = art.sym, art.bstruct
        out.update({
            "n": sym.n,
            "factor_entries": int(sym.factor_entries),
            "lcol": _digest(sym.lcol),
            "urow": _digest(sym.urow),
            f"amalg{amalg}": {
                "N": art.part.N,
                "bounds": _digest([art.part.bounds]),
                "lrows": _table_digest(bs.lrows),
                "udense_cols": _table_digest(bs.udense_cols),
                "lblocks": _table_digest(bs.lblocks),
                "ublocks": _table_digest(bs.ublocks),
                "nbytes": int(art.nbytes),
            },
        })
    return out


def _cold_solve_cases() -> dict:
    # generator seeds as benchmarks/e2e draws them (seed * 1000 + round):
    # rounds 0-2 of seed 0 and round 0 of seeds 1 and 2
    out = {}
    for s in (0, 1, 2, 1000, 2000):
        out[f"cold_fem_unstructured_600_s{s}"] = (
            lambda s=s: g.fem_unstructured(n=600, avg_degree=12, nonsym=0.4, seed=s))
        out[f"cold_circuit_like_450_s{s}"] = lambda s=s: g.circuit_like(n=450, seed=s)
    return out


ORDERING_CASES = {
    **_cold_solve_cases(),
    # the four service_warm patterns
    "warm_stencil_3d_8x8x5x3": lambda: g.stencil_3d(nx=8, ny=8, nz=5, ndof=3),
    "warm_fem_unstructured_1400": lambda: g.fem_unstructured(
        n=1400, avg_degree=12, nonsym=0.4),
    "warm_circuit_like_991": lambda: g.circuit_like(n=991),
    "warm_fem_unstructured_1800": lambda: g.fem_unstructured(
        n=1800, avg_degree=14, nonsym=0.25),
    **{f"suite_{name}_small": (lambda name=name: get_matrix(name, "small"))
       for name in suite_names()},
}


def ordering_digests(A) -> dict:
    """What ``prepare_matrix`` computes between the transversal and the
    symmetric permutation, for both minimum-degree orderings."""
    trans, _ = maximum_transversal(A)
    At = A.permute(row_perm=trans)
    G = ata_pattern(At)
    out = {"n": G.nrows, "ata_indptr": _digest([G.indptr]),
           "ata_indices": _digest([G.indices])}
    for name, pattern in (("mindeg-ata", G), ("mindeg-aplusat", aplusat_pattern(At))):
        for multiple in (True, False):
            res = minimum_degree(pattern, multiple=multiple)
            out[f"{name}/multiple={multiple}"] = {
                "perm": _digest([res.perm]), "fill_edges": int(res.fill_edges)}
    return out


SECTIONS = {
    "cases": lambda: {name: analysis_digests(make()) for name, make in CASES.items()},
    "ordering": lambda: {
        name: ordering_digests(make()) for name, make in ORDERING_CASES.items()},
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_analysis_outputs_match_recorded_digests(name, golden):
    assert analysis_digests(CASES[name]()) == golden["cases"][name]


@pytest.mark.parametrize("name", sorted(ORDERING_CASES))
def test_ordering_outputs_match_recorded_digests(name, golden):
    assert ordering_digests(ORDERING_CASES[name]()) == golden["ordering"][name]


def test_container_types_unchanged():
    """What the digests normalise away: index arrays are int64 ndarrays,
    block lists hold plain Python ints (they end up in message payloads,
    whose modelled size depends on the type)."""
    art, _ = analyze(CASES["random_nonsymmetric_80"]())
    sym, bs = art.sym, art.bstruct
    assert all(a.dtype == np.int64 for a in sym.lcol + sym.urow)
    for table in (bs.lrows, bs.udense_cols):
        assert all(a.dtype == np.int64 for a in table.values())
        assert all(type(i) is int for key in table for i in key)
    for table in (bs.lblocks, bs.ublocks):
        assert all(type(k) is int for k in table)
        assert all(type(i) is int for v in table.values() for i in v)


if __name__ == "__main__":
    import subprocess
    import sys

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
        cwd=pathlib.Path(__file__).parent,
    ).stdout.strip()
    wanted = sys.argv[1:] or list(SECTIONS)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"recorded_from": {}}
    for section in wanted:
        doc[section] = SECTIONS[section]()
        doc["recorded_from"][section] = commit
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {', '.join(wanted)} from {commit} -> {GOLDEN}")
