"""Violator spaces: axiom checking, structure analysis, and randomized
basis finding over explicit tables, geometric instances, and grid USOs."""

from .core import ConstraintSet, OracleContractError, SolveStats, ViolationOracle
from .explicit import (
    AbstractLpTable,
    AxiomWitness,
    BasisClass,
    BasisStructure,
    ConcreteLpProblem,
    CyclicSpaceError,
    ExplicitViolatorSpace,
    NotValidatedError,
    TableOracle,
    tabulate_oracle,
)
from .algorithms import (
    IterationGuardExceeded,
    NoBasisFound,
    Rng,
    SamplingReport,
    basis1,
    basis2,
    sampling_check,
    solve,
    trivial_basis,
)
from .instances import (
    HalfplaneLp,
    InfeasibleRegion,
    Lp2dOracle,
    MiniballOracle,
    PointSet,
    UnboundedProblem,
    smallest_enclosing_ball,
    tabulate,
)
from .grid_uso import (
    EdgeConsistencyError,
    GenerationExhausted,
    GridPartition,
    GridUso,
    OutmapOracle,
    UsoWitness,
    coordinate_order_oracle,
    coordinate_order_uso,
    cyclic_cube_uso,
    has_directed_cycle,
    random_uso,
    sink_by_scan,
    uso_oracle,
    uso_violators,
    validate_uso,
)

__version__ = "0.1.0"
