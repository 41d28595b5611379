"""Recorded evidence for the numeric phase.

``tests/data/numeric_golden.json`` holds, for each generator matrix below
and each way of factoring it, blake2b digests of every factor block's
bytes (in key order), the pivot sequence, ``solve``/``solve_transpose`` of
a vector and a 3-column right-hand side, the ``KernelCounter.by_gran``
items *in insertion order*, and the simulated ``parallel_seconds`` —
recorded from the commit *before* the dense-block backend moved to one
arena, in-place panels and the stacked width-1 update (PR 15).  The tier-1
test below asserts the current code reproduces them, so "not one bit of
any factor changed" is checked against recorded evidence rather than
against a retained old code path (same recipe as
``tests/test_analysis_golden.py``).

The block GEMMs go through the host BLAS, whose bits are a property of the
build; the file therefore also records a BLAS canary, and on a host whose
BLAS rounds differently the comparison is skipped instead of failing.

``width1_sweep`` is one more scenario, recorded at 2684ecc — the last
commit that still had a per-block ``Update(K, J)`` beside the stacked
sweep — so
``tests/test_numeric_plan.py::test_width1_sweep_equals_per_block_path_with_absent_targets``
still compares the sweep with the per-block path: with its recorded
output.  That both paths gave these digests was a one-off check against
the parent's sources (``git archive 2684ecc src`` unpacked beside this
tree, :func:`width1_sweep_record` run under the update toggle's two
settings and compared with the file); this tree cannot repeat it, the
toggle being gone.  The command is in CHANGES.md, PR 21.

``trisolve`` pins the distributed triangular solves (two of the matrices
x the 1d-rapid owner map and ``Grid2D.preferred`` x P in {4, 6} x a vector
and an ``(n, 3)`` right-hand side: ``x`` bytes, virtual time, messages,
bytes, per-rank clocks, ``by_gran`` order).  It was recorded at 73ec0d6,
the last commit with one rank program per mapping (``parallel/trisolve.py``
and ``parallel/trisolve2d.py``), so the one program over a mapping that
replaced them is compared with both originals' recorded output.

``recorded_from`` names the commit per section.  ``cases`` and
``trisolve`` were re-recorded on purpose when every ``L_KK^{-1}`` became
one product with an inverted unit triangle (``8d884b5+inverted-diagonal``:
the tree on top of 8d884b5 that made the change).  That change moved the
bytes of factor blocks and solutions only — the re-recording left every
pivot sequence, interchange count, ``by_gran`` entry and its order,
``parallel_seconds``, message and byte count, per-rank clock and
``width1_sweep`` (width-1 columns run no triangle) as they were, which is
the protocol of DESIGN.md "Moving bits on purpose".

Re-record (only when a numeric output is *meant* to change) every section,
or only the named ones (the others keep their bytes and provenance)::

    PYTHONPATH=src python tests/test_numeric_golden.py [cases|width1_sweep|trisolve ...]
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.machine import T3E
from repro.matrices import generators as g
from repro.numfact import (
    LUFactorization,
    PivotMonitor,
    matrix_maxnorm,
    sstar_factor,
)
from repro.parallel import Grid2D, run_1d, run_1d_trisolve, run_2d, run_2d_trisolve
from repro.service import analyze

GOLDEN = pathlib.Path(__file__).parent / "data" / "numeric_golden.json"
NPROCS = 4


def _negzero_negative_pivots():
    """Every value negative (so every pivot is), every fifth off-diagonal
    entry an explicit ``-0.0``: the signed-zero path of the update."""
    A = g.random_nonsymmetric(80, density=0.08, seed=3)
    data = -np.abs(A.data)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    off = np.flatnonzero(rows != A.indices)
    data[off[::5]] = -0.0
    return A.with_values(data)


def _tiny_pivot_column():
    """One column scaled to 1e-30: perturbed when the monitor perturbs."""
    A = g.fem_unstructured(120, 10, 0.4, seed=7)
    data = A.data.copy()
    data[A.indices == 17] *= 1e-30
    return A.with_values(data)


#: name -> (matrix factory, amalgamation)
CASES = {
    "stencil_3d_5x5x4x3": (lambda: g.stencil_3d(5, 5, 4, ndof=3), 4),
    "fem_unstructured_300": (lambda: g.fem_unstructured(300, 12, 0.4, seed=1), 4),
    # 93 % of the supernodes are one column wide
    "circuit_like_300": (lambda: g.circuit_like(300, seed=2), 4),
    "stencil_2d_12x12": (lambda: g.stencil_2d(12, 12, convection=2.5, seed=21), 0),
    "block_structured_200": (lambda: g.block_structured(200, block=20, seed=5), 4),
    "negzero_negative_pivots_80": (_negzero_negative_pivots, 4),
    "tiny_pivot_column_120": (_tiny_pivot_column, 4),
    "dense_40": (lambda: g.dense_matrix(40), 4),
}

#: the case that must stay dominated by width-1 supernodes
WIDTH1_CASE, WIDTH1_SHARE = "circuit_like_300", 0.7


def _hash(*chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def blas_canary() -> str:
    """Digest of a few fixed GEMM/GEMV shapes on this host's BLAS."""
    rng = np.random.default_rng(2015)
    out = []
    for m, k, n in ((25, 25, 25), (7, 3, 25), (25, 2, 2), (1, 9, 13), (13, 9, 1)):
        out.append((rng.standard_normal((m, k)) @ rng.standard_normal((k, n))).tobytes())
    return _hash(*out)


def _record(lu: LUFactorization, parallel_seconds=None) -> dict:
    m = lu.matrix
    rng = np.random.default_rng(99)
    b1 = rng.standard_normal(lu.n)
    b3 = rng.standard_normal((lu.n, 3))
    return {
        "blocks": _hash(*(
            x for key in sorted(m.blocks)
            for x in (np.int64(key).tobytes(), m.blocks[key].tobytes())
        )),
        "nblocks": len(m.blocks),
        "pivots": _hash(np.int64(lu.pivot_rows()).tobytes()),
        "interchanges": lu.num_interchanges(),
        "solve": _hash(lu.solve(b1).tobytes(), lu.solve(b3).tobytes()),
        "solve_transpose": _hash(
            lu.solve_transpose(b1).tobytes(), lu.solve_transpose(b3).tobytes()
        ),
        # insertion order is what the counted-window clock replays
        "by_gran": [
            f"{k}/{gran}/{v.hex()}" for (k, gran), v in lu.counter.by_gran.items()
        ],
        "parallel_seconds": (
            None if parallel_seconds is None else float(parallel_seconds).hex()
        ),
    }


def numeric_records(A, amalgamation: int) -> dict:
    """Every numeric output of ``A`` under every driver and option."""
    art, om = analyze(A, block_size=25, amalgamation=amalgamation)
    sym, part, bs = art.sym, art.part, art.bstruct
    kw = dict(sym=sym, part=part, bstruct=bs)
    anorm = matrix_maxnorm(om.A)
    widths = np.diff(part.bounds)
    out = {
        "n": sym.n,
        "N": part.N,
        "width1_share": round(float((widths == 1).mean()), 4),
        "explicit_negative_zeros": int(
            np.count_nonzero((om.A.data == 0.0) & np.signbit(om.A.data))
        ),
        "sequential": _record(sstar_factor(om.A, **kw)),
        "sequential_abft": _record(sstar_factor(om.A, abft=True, **kw)),
        "sequential_threshold_0.5": _record(
            sstar_factor(om.A, pivot_threshold=0.5, **kw)
        ),
    }
    mon = PivotMonitor(anorm, perturb=True)
    out["sequential_perturb"] = _record(sstar_factor(om.A, monitor=mon, **kw))
    out["sequential_perturb"]["perturbed"] = len(mon.perturbations)
    for name, run in (
        ("1d-rapid", lambda: run_1d(om.A, part, bs, NPROCS, T3E, method="rapid")),
        ("1d-ca", lambda: run_1d(om.A, part, bs, NPROCS, T3E, method="ca")),
        ("2d", lambda: run_2d(om.A, part, bs, NPROCS, T3E)),
        ("2d-sync", lambda: run_2d(om.A, part, bs, NPROCS, T3E, synchronous=True)),
    ):
        res = run()
        lu = LUFactorization(res.factor, sym, part, bs, res.sim.total_counter())
        out[name] = _record(lu, res.parallel_seconds)
    return out


def width1_sweep_record(abft: bool) -> dict:
    """70x70, every supernode one column wide (``block_size=1``), explicit
    ``-0.0`` entries, negative pivots, absent update targets: what the
    stacked width-1 sweep and its merged charges leave behind."""
    A0 = g.random_nonsymmetric(70, density=0.07, seed=11)
    data = -np.abs(A0.data)
    rows = np.repeat(np.arange(A0.nrows), np.diff(A0.indptr))
    data[np.flatnonzero(rows != A0.indices)[::4]] = -0.0
    art, om = analyze(A0.with_values(data), block_size=1, amalgamation=0)
    part, bs = art.part, art.bstruct
    lu = sstar_factor(om.A, sym=art.sym, part=part, bstruct=bs, abft=abft)
    return {
        "N": part.N,
        "absent_targets": sum(
            not bs.has_block(I, J)
            for J in range(part.N) for I in range(J + 1, part.N)
        ),
        "explicit_negative_zeros": int(
            np.count_nonzero((om.A.data == 0.0) & np.signbit(om.A.data))
        ),
        "arena": _hash(lu.matrix.arena.tobytes()),
        "pivot_seq": _hash(np.int64(lu.matrix.pivot_seq).tobytes()),
        # item order is part of the contract: charges replay in it
        "by_gran": [
            f"{k}/{gran}/{v.hex()}" for (k, gran), v in lu.counter.by_gran.items()
        ],
        "flops": [f"{k}/{v.hex()}" for k, v in lu.counter.flops.items()],
    }


#: the matrices of the ``trisolve`` section: one dominated by width-1
#: supernodes (many blocks, many messages), one with real interchanges
TRISOLVE_CASES = ("circuit_like_300", "negzero_negative_pivots_80")


def _trisolve_record(tri) -> dict:
    sim = tri.sim
    return {
        "x": _hash(tri.x.tobytes()),
        "parallel_seconds": float(tri.parallel_seconds).hex(),
        "messages": sim.messages,
        "bytes_sent": sim.bytes_sent,
        "rank_clocks": [float(c).hex() for c in sim.rank_clocks],
        "by_gran": [
            f"{k}/{gran}/{v.hex()}"
            for (k, gran), v in sim.total_counter().by_gran.items()
        ],
    }


def trisolve_records(name: str) -> dict:
    """Both distributed triangular solves of one case: the 1d-rapid owner
    map and the preferred grid, P in {4, 6}, vector and ``(n, 3)`` rhs."""
    make, amalgamation = CASES[name]
    art, om = analyze(make(), block_size=25, amalgamation=amalgamation)
    sym, part, bs = art.sym, art.part, art.bstruct
    rng = np.random.default_rng(22)
    rhs = {"vector": rng.standard_normal(sym.n),
           "block3": rng.standard_normal((sym.n, 3))}
    out = {"N": part.N}
    for P in (4, 6):
        res = run_1d(om.A, part, bs, P, T3E, method="rapid")
        lu = LUFactorization(res.factor, sym, part, bs, None)
        out["interchanges"] = lu.num_interchanges()
        for shape, b in rhs.items():
            out[f"1d/P{P}/{shape}"] = _trisolve_record(
                run_1d_trisolve(lu, res.schedule.owner, b, P, T3E))
            out[f"2d/P{P}/{shape}"] = _trisolve_record(
                run_2d_trisolve(lu, b, P, T3E, grid=Grid2D.preferred(P)))
    return out


def load_golden() -> dict:
    doc = json.loads(GOLDEN.read_text())
    if doc["blas_canary"] != blas_canary():
        pytest.skip("host BLAS rounds differently from the recording host")
    return doc


@pytest.fixture(scope="module")
def golden():
    return load_golden()["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_numeric_outputs_match_recorded_digests(name, golden):
    make, amalgamation = CASES[name]
    got = numeric_records(make(), amalgamation)
    want = golden[name]
    # compare run by run so a failure names the driver that moved
    assert sorted(got) == sorted(want)
    for run in want:
        assert got[run] == want[run], run


def test_recorded_cases_cover_what_they_claim(golden):
    """The goldens exercise the paths the refactor touches: a matrix
    dominated by width-1 supernodes, explicit ``-0.0`` entries under
    negative pivots, real interchanges, and a perturbed pivot."""
    assert len(golden) >= 6
    assert golden[WIDTH1_CASE]["width1_share"] >= WIDTH1_SHARE
    nz = golden["negzero_negative_pivots_80"]
    assert nz["explicit_negative_zeros"] > 0
    assert nz["sequential"]["interchanges"] > 0
    assert golden["tiny_pivot_column_120"]["sequential_perturb"]["perturbed"] > 0
    # threshold pivoting keeps more diagonals than partial pivoting
    assert any(
        c["sequential_threshold_0.5"]["interchanges"] < c["sequential"]["interchanges"]
        for c in golden.values()
    )


@pytest.mark.parametrize("name", TRISOLVE_CASES)
def test_trisolves_match_recorded_runs(name):
    want = load_golden()["trisolve"][name]
    got = trisolve_records(name)
    assert sorted(got) == sorted(want)
    for run in want:
        assert got[run] == want[run], run
    assert want["1d/P6/vector"]["messages"] > 0 < want["2d/P6/block3"]["messages"]


#: section -> recorder
SECTIONS = {
    "cases": lambda: {
        name: numeric_records(make(), amalg)
        for name, (make, amalg) in CASES.items()
    },
    "width1_sweep": lambda: {
        "plain": width1_sweep_record(False),
        "abft": width1_sweep_record(True),
    },
    "trisolve": lambda: {name: trisolve_records(name) for name in TRISOLVE_CASES},
}


if __name__ == "__main__":
    import subprocess
    import sys

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
        cwd=pathlib.Path(__file__).parent,
    ).stdout.strip()
    wanted = sys.argv[1:] or list(SECTIONS)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"recorded_from": {}}
    if doc.setdefault("blas_canary", blas_canary()) != blas_canary():
        sys.exit("host BLAS rounds differently from the recording host: "
                 "re-record every section here, or none")
    for section in wanted:
        doc[section] = SECTIONS[section]()
        doc["recorded_from"][section] = commit
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {', '.join(wanted)} from {commit} -> {GOLDEN}")
