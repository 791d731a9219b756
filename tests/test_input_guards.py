"""Each library guard on its input raises its own type and message.

The CLI-reachable guards of the file readers have rows in the golden
matrix; these are the ones only a library caller reaches.
"""

import re

import pytest

from violator_spaces import (
    AbstractLpTable,
    ConcreteLpProblem,
    ConstraintSet,
    GridPartition,
    GridUso,
    HalfplaneLp,
    MiniballOracle,
    PointSet,
    ViolationOracle,
    coordinate_order_oracle,
    smallest_enclosing_ball,
    uso_oracle,
    uso_violators,
)


class _Never(ViolationOracle):
    def _violates(self, G, h):
        raise AssertionError("a guard must reject the query first")


def _unvalidated():
    # the 1 x 2 grid whose edge points from 1 to 0, never validated
    return GridUso(GridPartition.uniform([2]), {(0,): 0, (1,): 1})


GUARDS = {
    "set of negative size": (lambda: ConstraintSet(0, -1), ValueError,
                             "ground-set size must be non-negative"),
    "subset test on a mask": (lambda: ConstraintSet.empty(3).issubset(1), TypeError,
                              "expected ConstraintSet, got int"),
    "add outside the ground set": (lambda: ConstraintSet.empty(3).add(3), ValueError,
                                   "index 3 outside 0..2"),
    "remove outside the ground set": (lambda: ConstraintSet.empty(3).remove(-1), ValueError,
                                      "index -1 outside 0..2"),
    "oracle of negative size": (lambda: _Never(-1, 1), ValueError,
                                "ground-set size must be non-negative"),
    "query on another ground size": (
        lambda: _Never(3, 1).violates(ConstraintSet.empty(4), 0), ValueError,
        "set over ground size 4, oracle has 3"),
    "query on a member out of range": (
        lambda: _Never(3, 1).violates(ConstraintSet.empty(3), 3), ValueError,
        "index 3 outside 0..2"),
    "value table of the wrong length": (lambda: AbstractLpTable(1, ["0"], ["0"]), ValueError,
                                        "need 2 values, got 1"),
    "constraint past the point list": (lambda: ConcreteLpProblem(["x"], [[1]]), ValueError,
                                       "constraint [1] indexes outside the point list"),
    "one ranking for two blocks": (
        lambda: coordinate_order_oracle(GridPartition.uniform([2, 2]), [[0, 1]]), ValueError,
        "need one ranking per block"),
    "ranking that repeats a member": (
        lambda: coordinate_order_oracle(GridPartition.uniform([2]), [[0, 0]]), ValueError,
        "ranking [0, 0] is not an order of block (0, 1)"),
    "violators of an unvalidated USO": (
        lambda: uso_violators(_unvalidated(), ConstraintSet.full(2)), ValueError,
        "validate the orientation first"),
    "oracle of an unvalidated USO": (lambda: uso_oracle(_unvalidated()), ValueError,
                                     "validate the orientation first"),
    "no points": (lambda: PointSet.from_rows([]), ValueError, "need at least one point"),
    "points without coordinates": (lambda: PointSet.from_rows([[]]), ValueError,
                                   "points need at least one coordinate"),
    "points of two dimensions": (lambda: PointSet.from_rows([[0], [0, 1]]), ValueError,
                                 "all points must have the same dimension"),
    "ball of no points": (lambda: smallest_enclosing_ball([]), ValueError,
                          "need at least one point"),
    "ball of the empty set": (
        lambda: MiniballOracle(PointSet.from_rows([[0]])).ball_of(ConstraintSet.empty(1)),
        ValueError, "the empty set has no enclosing ball"),
    "halfplane of two numbers": (lambda: HalfplaneLp.from_rows([[1, 2]]), ValueError,
                                 "halfplanes are (a, b, c) triples"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_guard_raises_its_type_and_message(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
