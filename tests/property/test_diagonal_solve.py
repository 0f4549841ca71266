"""Parity of the engine's structure-aware paths with the dense ones.

A :class:`~repro.crossbar.stack.CrossbarStack` member whose grids are
diagonal is solved by division and, when every member is diagonal,
reads its multiply denominators off the diagonal.  Both must be
bitwise what the dense paths give: ``np.linalg.solve`` per member
(solutions *and* the error list) and ``g_s`` plus the canonical column
sums.  The cases cover twelve decades of conductance, zero diagonals
(singular), overflow (non-finite rails), zeros of either sign on the
right-hand side, fleets that mix diagonal and dense members, stuck-ON
off-diagonal cells, the leak off-state and the chaos hooks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.opstack import AnalogOperatorStack
from repro.crossbar.stack import CrossbarStack, canonical_colsums
from repro.devices import YAKOPCIC_NAECON14, StuckAtFaults, UniformVariation
from repro.devices.variation import VariationModel

PARAMS = YAKOPCIC_NAECON14


class Decades(VariationModel):
    """Scales every cell by ``10**U(-6, 6)``: twelve decades of spread."""

    def perturb(self, matrix, rng):
        matrix = np.asarray(matrix, dtype=float)
        return matrix * 10.0 ** rng.uniform(-6.0, 6.0, matrix.shape)

    @property
    def relative_magnitude(self):
        return 0.0


def reference_try_solve(stack, v_out):
    """``np.linalg.solve`` per member on the actual grids."""
    actual = stack.actual_stack
    rhs = stack.g_sense * np.broadcast_to(v_out, (stack.n_members, stack.n_cols))
    solutions = np.zeros((stack.n_members, stack.n_rows))
    errors = []
    for member in range(stack.n_members):
        try:
            solutions[member] = np.linalg.solve(actual[member].T, rhs[member])
        except np.linalg.LinAlgError:
            errors.append("perturbed conductance matrix is singular")
            continue
        if np.isfinite(solutions[member]).all():
            errors.append(None)
        else:
            errors.append("analog solve produced non-finite rails")
            solutions[member] = 0.0
    return solutions, errors


def assert_solve_parity(stack, v_out):
    got, got_errors = stack.try_solve(v_out)
    want, want_errors = reference_try_solve(stack, v_out)
    assert got.tobytes() == want.tobytes()
    assert [None if e is None else str(e) for e in got_errors] == want_errors


def member_grid(rng, kind, size):
    """A diagonal, zero-diagonal or dense grid of conductance targets."""
    if kind == "dense":
        return rng.uniform(PARAMS.g_off, PARAMS.g_on, (size, size))
    diagonal = rng.uniform(PARAMS.g_off, PARAMS.g_on, size)
    if kind == "singular":
        diagonal[rng.integers(0, size)] = 0.0
    return np.diag(diagonal)


@given(
    seed=st.integers(0, 2**31 - 1),
    kinds=st.lists(
        st.sampled_from(["diagonal", "singular", "dense"]), min_size=1, max_size=4
    ),
    size=st.integers(2, 40),
    scale=st.sampled_from([1.0, 1e-3, 1e300]),
    zeros=st.sampled_from([0, 0, 1, 3]),
    members=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_solve_matches_lapack(seed, kinds, size, scale, zeros, members):
    rng = np.random.default_rng(seed)
    stack = CrossbarStack(
        len(kinds), size, size, params=PARAMS, variation=Decades(),
        rngs=[np.random.default_rng(seed + k) for k in range(len(kinds))],
    )
    stack.program(np.stack([member_grid(rng, kind, size) for kind in kinds]))
    assert stack._diagonal.tolist() == [kind != "dense" for kind in kinds]
    v_out = rng.normal(size=(len(kinds), size)) * scale
    for row in v_out:
        # Zeros of either sign send a diagonal member through LAPACK.
        row[rng.integers(0, size, zeros)] = rng.choice([0.0, -0.0], zeros)
    if members:
        selected = np.flatnonzero(rng.random(len(kinds)) < 0.6)
        got, got_errors = stack.try_solve(v_out[selected], members=selected)
        want, want_errors = reference_try_solve(stack, v_out)
        assert got.tobytes() == want[selected].tobytes()
        assert [None if e is None else str(e) for e in got_errors] == [
            want_errors[k] for k in selected
        ]
    else:
        assert_solve_parity(stack, v_out)


def test_negative_zero_rhs_takes_lapack_and_matches():
    # LAPACK's substitution turns some -0.0 entries into +0.0, which a
    # plain division would not; the routing keeps the two equal.
    rng = np.random.default_rng(4)
    stack = CrossbarStack(1, 6, 6, params=PARAMS, rngs=[rng])
    stack.program(np.diag(rng.uniform(PARAMS.g_off, PARAMS.g_on, 6)))
    v_out = np.array([-1.0, -0.0, 2.0, -0.0, -3.0, -0.0])
    assert_solve_parity(stack, v_out)


@pytest.mark.parametrize("size", [1365])
def test_paper_scale_m2_solve(size):
    # M2 at m = 1024 is (n + m) = 1365 wide.
    rng = np.random.default_rng(size)
    stack = CrossbarStack(
        1, size, size, params=PARAMS, variation=Decades(),
        rngs=[np.random.default_rng(1)],
    )
    stack.program(member_grid(rng, "diagonal", size))
    assert stack._diagonal.all()
    assert_solve_parity(stack, rng.normal(size=size))


def test_stuck_on_off_diagonal_cells_make_a_member_dense():
    rng = np.random.default_rng(5)
    faults = StuckAtFaults(
        PARAMS, stuck_on_rate=0.02, base=UniformVariation(0.05)
    )
    stack = CrossbarStack(
        2, 30, 30, params=PARAMS, variation=faults,
        rngs=[np.random.default_rng(6), np.random.default_rng(7)],
    )
    grids = np.stack([member_grid(rng, "diagonal", 30) for _ in range(2)])
    stack.program(grids)
    actual = stack.actual_stack
    off_diagonal = actual * (1 - np.eye(30))
    expected = [not off_diagonal[k].any() for k in range(2)]
    assert stack._diagonal.tolist() == expected
    assert not all(expected)
    assert_solve_parity(stack, rng.normal(size=(2, 30)))


def test_leak_off_state_keeps_lapack_and_row_structure():
    # In the leak off-state every off-diagonal cell holds g_off: the
    # grids are dense (LAPACK), the coefficients still diagonal (the
    # rows' live cells are their diagonals).
    rng = np.random.default_rng(8)
    matrix = np.diag(rng.uniform(0.1, 5.0, 12))[None]
    op = AnalogOperatorStack(
        matrix, params=PARAMS, off_state="leak", row_scaling=True,
        variation=UniformVariation(0.05), rngs=[np.random.default_rng(9)],
    )
    assert not op.stack._diagonal[0]
    assert op._diagonal[0]
    assert_solve_parity(op.stack, rng.normal(size=12))


@pytest.mark.parametrize("hook", ["stuck_off", "drift"])
def test_chaos_hooks_rederive_structure(hook):
    rng = np.random.default_rng(10)
    kinds = ["diagonal", "dense", "diagonal"]
    stack = CrossbarStack(
        3, 20, 20, params=PARAMS, variation=UniformVariation(0.1),
        rngs=[np.random.default_rng(11 + k) for k in range(3)],
    )
    stack.program(np.stack([member_grid(rng, kind, 20) for kind in kinds]))
    if hook == "stuck_off":
        stack.inject_stuck_off(0.25, rng=np.random.default_rng(12))
    else:
        stack.apply_drift(0.3, rng=np.random.default_rng(13))
    assert stack._diagonal.tolist() == [True, False, True]
    assert_solve_parity(stack, rng.normal(size=(3, 20)))


def test_off_diagonal_write_ends_and_redraw_rederives_diagonal():
    rng = np.random.default_rng(14)
    stack = CrossbarStack(1, 8, 8, params=PARAMS, rngs=[rng])
    stack.program(member_grid(rng, "diagonal", 8))
    assert stack._diagonal[0]
    stack.program_member_cells(0, np.array([1]), np.array([2]), np.array([PARAMS.g_on]))
    assert not stack._diagonal[0]
    assert_solve_parity(stack, rng.normal(size=8))
    # Zeroing the cell again leaves the member on the dense path until
    # a bulk operation re-reads the grids.
    stack.program_member_cells(0, np.array([1]), np.array([2]), np.array([0.0]))
    assert not stack._diagonal[0]
    stack.redraw()
    assert stack._diagonal[0]
    assert_solve_parity(stack, rng.normal(size=8))


@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_diagonal_multiply_matches_canonical_columns(seed, size):
    # The Eqn. 5 read-out of an all-diagonal stack divides by the
    # diagonal-read denominators; the dense reference divides by g_s
    # plus the canonical column sums of the actual grid.
    rng = np.random.default_rng(seed)
    stack = CrossbarStack(
        2, size, size, params=PARAMS, variation=Decades(),
        rngs=[np.random.default_rng(seed + k) for k in range(2)],
    )
    stack.program(np.stack([member_grid(rng, "singular", size) for _ in range(2)]))
    cells = np.sort(rng.choice(size, max(1, size // 2), replace=False))
    stack.program_cells(
        cells, cells, rng.uniform(PARAMS.g_off, PARAMS.g_on, cells.size)
    )
    assert stack._diagonal.all()
    v_in = rng.normal(size=(2, size))
    actual = stack.actual_stack
    want = np.stack(
        [
            (actual[k].T @ v_in[k])
            / (stack.g_sense + canonical_colsums(actual[k]))
            for k in range(2)
        ]
    )
    assert stack.multiply(v_in).tobytes() == want.tobytes()
