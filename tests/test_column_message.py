"""The 1D ``("col", K)`` message: one contiguous L panel on the wire.

Hostile payloads end in :class:`StructureViolation`, corruption is blamed on
the block it hit, the posted panel is frozen, the plan's per-column tables
are immutable, and an update from a received column equals the owner's bit
for bit.  (That the new wire format moved no trace byte and no virtual
second is ``tests/test_trace_golden.py``.)
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.machine import T3E
from repro.machine.simulator import _copy_payload, _corrupt_payload
from repro.matrices import generators as g
from repro.numfact import (
    AbftLedger,
    BlockLUMatrix,
    FactoredColumn,
    KernelCounter,
    SilentCorruptionError,
    SingularMatrixError,
    StructureViolation,
    column_leaves,
    factor_block_column,
    payload_checksums,
    update_block_columns,
)
from repro.ordering import prepare_matrix
from repro.parallel import oned, run_1d
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization


def _pipeline(A, max_size=25, amalgamation=4):
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=max_size, amalgamation=amalgamation)
    return om.A, part, build_block_structure(sym, part)


def _eliminate_to(m, K, counter=None):
    """Sequential elimination of stages ``< K``, then ``Factor(K)``."""
    for k in range(K):
        fc = factor_block_column(m, k)
        update_block_columns(m, fc, sorted(m.bstruct.u_block_cols(k)))
    return factor_block_column(m, K, counter=counter)


def _message(fc) -> dict:
    """What the owner of column ``fc.K`` posts (see ``oned._rank_program``)."""
    return {"K": fc.K, "pivots": list(fc.pivots), "panel": fc.panel.copy()}


@pytest.fixture(scope="module")
def fem():
    return _pipeline(g.fem_unstructured(150, 10, 0.4, seed=4))


@pytest.fixture(scope="module")
def three_block_column(fem):
    """A factored matrix and a column whose panel holds the diagonal block
    and at least three L blocks."""
    A, part, bstruct = fem
    m = BlockLUMatrix.from_csr(A, part, bstruct)
    K = next(K for K in range(part.N) if len(m.plan.below_diagonal(K)) >= 3)
    return m, _eliminate_to(m, K)


# ---------------------------------------------------------------------------
# hostile payloads
# ---------------------------------------------------------------------------


class TestHostilePayload:
    def test_well_formed_message_round_trips(self, three_block_column):
        m, fc = three_block_column
        got = FactoredColumn.from_message(_message(fc), m.plan)
        assert (got.K, got.pivots) == (fc.K, fc.pivots)
        assert got.panel.tobytes() == fc.panel.tobytes()
        assert got.diag.base is got.panel and got.lpanel.base is got.panel
        assert got.diag.shape == (fc.panel.shape[1],) * 2
        assert got.lpanel.shape[0] == m.plan.below_diagonal(fc.K)[-1][2]

    @pytest.mark.parametrize("mangle", [
        lambda p: p[:, :-1] if p.shape[1] > 1 else np.hstack([p, p]),
        lambda p: np.hstack([p, p]),
        lambda p: p[:-1],
        lambda p: np.vstack([p, p[:1]]),
        lambda p: p.astype(np.float32),
        lambda p: p.astype(np.int64),
        lambda p: p.ravel(),
        lambda p: p.tolist(),
        lambda p: None,
    ], ids=["narrow", "wide", "short", "tall", "float32", "int64", "flat",
            "list", "none"])
    def test_malformed_panel_is_a_structure_violation(self, three_block_column,
                                                      mangle):
        m, fc = three_block_column
        payload = _message(fc)
        payload["panel"] = mangle(payload["panel"])
        with pytest.raises(StructureViolation, match="panel"):
            FactoredColumn.from_message(payload, m.plan)

    @pytest.mark.parametrize("K", [-1, 10**6, 2.0, "3", None])
    def test_column_outside_the_plan(self, three_block_column, K):
        m, fc = three_block_column
        payload = dict(_message(fc), K=K)
        with pytest.raises(StructureViolation, match="block column"):
            FactoredColumn.from_message(payload, m.plan)

    def test_another_columns_panel_is_rejected(self, three_block_column):
        # same pattern, wrong column: the receiver's plan knows each shape
        m, fc = three_block_column
        other = next(K for K in range(m.part.N)
                     if m.plan.lpanel_shape(K) != m.plan.lpanel_shape(fc.K))
        with pytest.raises(StructureViolation):
            FactoredColumn.from_message(dict(_message(fc), K=other), m.plan)


# ---------------------------------------------------------------------------
# corruption: where it lands, who gets blamed
# ---------------------------------------------------------------------------


class TestCorruption:
    def test_fault_injection_still_flips_the_first_diagonal_entry(
            self, three_block_column):
        _, fc = three_block_column
        payload = _message(fc)
        payload["panel"].setflags(write=False)  # as posted
        hit = _copy_payload(payload)  # CORRUPT works on a private copy
        assert _corrupt_payload(hit)
        delta = hit["panel"] != payload["panel"]
        assert delta.sum() == 1 and delta[0, 0]
        got = FactoredColumn.from_message(hit, three_block_column[0].plan)
        assert got.diag[0, 0] == fc.diag[0, 0] * 1.5 + 1.0
        assert hit["pivots"] == payload["pivots"] and hit["K"] == fc.K

    def test_a_flip_in_each_block_is_blamed_on_that_block(
            self, three_block_column):
        m, fc = three_block_column
        K, bs = fc.K, fc.panel.shape[1]
        payload = _message(fc)
        payload["abft"] = payload_checksums(column_leaves(payload, m.plan))
        oned._receive_column(payload, m.plan, True, None)
        blocks = [(K, 0, bs)] + [
            (I, bs + lo, bs + hi) for I, lo, hi, _ in m.plan.below_diagonal(K)
        ]
        assert len(blocks) >= 4
        for I, lo, hi in blocks:
            for row in (lo, hi - 1):  # first and last row of the block
                hit = _copy_payload(payload)
                hit["panel"][row, -1] += 3.0
                with pytest.raises(SilentCorruptionError) as err:
                    oned._receive_column(hit, m.plan, True, None)
                assert err.value.block == (I, K)

    def test_corrupted_pivots_are_caught_too(self, three_block_column):
        m, fc = three_block_column
        payload = _message(fc)
        payload["abft"] = payload_checksums(column_leaves(payload, m.plan))
        hit = _copy_payload(payload)
        hit["pivots"][0] = (hit["pivots"][0][0], hit["pivots"][0][1] + 1)
        with pytest.raises(SilentCorruptionError):
            oned._receive_column(hit, m.plan, True, None)


# ---------------------------------------------------------------------------
# invariants of the posted buffer and of the plan's tables
# ---------------------------------------------------------------------------


class TestInvariants:
    @pytest.mark.parametrize("method", ["rapid", "ca"])
    def test_posted_panel_is_read_only_for_every_receiver(
            self, fem, method, monkeypatch):
        A, part, bstruct = fem
        receive = oned._receive_column
        seen = []

        def spy(payload, plan, abft, metrics):
            panel = payload["panel"]
            seen.append(panel.flags.writeable)
            with pytest.raises(ValueError, match="read-only"):
                panel[0, 0] = 7.0  # would corrupt every sibling receiver
            return receive(payload, plan, abft, metrics)

        monkeypatch.setattr(oned, "_receive_column", spy)
        res = run_1d(A, part, bstruct, 4, T3E, method=method)
        assert res.sim.zero_copy  # receivers really share the posted buffer
        assert seen and not any(seen)

    def test_below_diagonal_is_one_immutable_object_per_column(self, fem):
        A, part, bstruct = fem
        plan = BlockLUMatrix.from_csr(A, part, bstruct).plan
        for K in range(part.N):
            below = plan.below_diagonal(K)
            assert below is plan.below_diagonal(K)
            assert type(below) is tuple
            assert all(type(row) is tuple and len(row) == 4 for row in below)
            with pytest.raises(TypeError):
                below[0:0] = ()

    def test_column_nbytes_is_the_wire_size_of_the_message(self):
        # a structure of its own: its plan has built no table yet
        A, part, bstruct = _pipeline(g.fem_unstructured(90, 8, 0.4, seed=6))
        m = BlockLUMatrix.from_csr(A, part, bstruct)
        before = m.plan.nbytes
        for K in range(part.N):
            fc = _eliminate_to(m, K) if K == 0 else factor_block_column(m, K)
            assert m.plan.column_nbytes(K) == (
                fc.panel.nbytes + 16 * len(fc.pivots))
            assert m.plan.lpanel_shape(K) == fc.panel.shape
            update_block_columns(m, fc, sorted(bstruct.u_block_cols(K)))
        # the tables built on the way are accounted
        assert m.plan.nbytes > before


# ---------------------------------------------------------------------------
# received column == owner's column, bitwise
# ---------------------------------------------------------------------------

_PATTERNS = {}


def _pattern(width):
    """A fixed pattern per supernode width bound: the columns that update
    anything, and among them those whose sweep meets an absent target (a
    block ``(I, J)`` outside the structure although ``L_IK`` and ``U_KJ``
    are inside — amalgamated supernodes have them, width 1 cannot)."""
    if width not in _PATTERNS:
        A0 = g.random_nonsymmetric(60, density=0.06, seed=1)
        A, part, bstruct = _pipeline(A0, max_size=width, amalgamation=8)
        plan = BlockLUMatrix.from_csr(A, part, bstruct).plan
        busy = [K for K in range(part.N)
                if plan.below_diagonal(K) and bstruct.u_block_cols(K)]
        holes = [
            K for K in busy
            if any(not bstruct.has_block(I, J)
                   for J in bstruct.u_block_cols(K)
                   for I, *_ in plan.below_diagonal(K))
        ]
        _PATTERNS[width] = (A, part, bstruct, busy, holes)
    return _PATTERNS[width]


def test_patterns_cover_every_width_and_an_absent_target():
    for width in (1, 2, 3, 4):
        _, part, _, busy, holes = _pattern(width)
        assert max(part.size(K) for K in busy) == width
        assert bool(holes) == (width > 1)


@given(width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       pick=st.integers(0, 10**6), hole=st.booleans(), abft=st.booleans())
@settings(max_examples=40, deadline=None)
def test_update_from_received_column_equals_owners_bitwise(width, seed, pick,
                                                           hole, abft):
    A, part, bstruct, busy, holes = _pattern(width)
    among = holes if hole and holes else busy
    K = among[pick % len(among)]
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(A.nnz)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    zero = (rows != A.indices) & (rng.random(A.nnz) < 0.25)
    data[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    owner = BlockLUMatrix.from_csr(A.with_values(data), part, bstruct)
    if abft:
        AbftLedger.attach(owner)
    try:
        fc = _eliminate_to(owner, K)
    except SingularMatrixError:
        assume(False)
    # the receiver: same state, its own arena, the column off the wire
    recv = BlockLUMatrix(part, bstruct, arena=owner.arena.copy())
    if abft:
        AbftLedger.attach(recv)
    payload = _copy_payload(_message(fc))
    payload["panel"].setflags(write=False)
    got = FactoredColumn.from_message(payload, recv.plan)
    cols = sorted(bstruct.u_block_cols(K))
    c_own, c_recv = KernelCounter(), KernelCounter()
    with np.errstate(over="ignore", invalid="ignore"):
        update_block_columns(owner, fc, cols, counter=c_own)
        update_block_columns(recv, got, cols, counter=c_recv)
    assert recv.arena.tobytes() == owner.arena.tobytes()
    assert list(c_recv.by_gran.items()) == list(c_own.by_gran.items())
    if abft:
        recv.abft.verify_matrix(recv)
