"""Exact-arithmetic toolkit for Diophantine quadruples in Z[sqrt(d)].

For d = 15 (mod 60) with x^2 - d*y^2 = -6 solvable, constructs quadruples
with property D((4m+2) + 4k*sqrt(d)) for even m + k, verifies them with
exact square-root witnesses, and pairs them with certificates that certain
n are not differences of two squares.
"""

from .construct import (
    ConstructionTrace,
    ParityError,
    Quadruple,
    RetryBudgetExceeded,
    VerifyReport,
    construct_quadruple,
    degenerate_check,
    quadruple_from_json,
    quadruple_to_json,
    scale_quadruple,
    verify_quadruple,
)
from .counterex import (
    CounterexampleReport,
    DCandidate,
    StageError,
    build_report,
    enumerate_counterexample_rings,
    family_d,
    report_to_json,
    verify_report_doc,
)
from .pellsolve import (
    NormEqClasses,
    ShapeViolation,
    check_pm2_unsolvable,
    enumerate_solutions,
    fundamental_unit,
    norm6_sign_y,
    solutions_within,
    solve_norm_eq,
    unit_from_norm6,
)
from .quadring import (
    MixedRingError,
    QuadInt,
    RingCtx,
    factorize,
    is_perfect_square,
    is_square_free,
    parse_element,
    sqrt_in_ring,
)
from .represent import (
    NonRepCertificate,
    certificate_holds,
    certify_nonrepresentable,
    search_repr,
)

__version__ = "0.1.0"
