"""gradedhpt: exact-arithmetic graded homological algebra and homotopy transfer."""

from .core import (
    ConvergenceFault,
    GradedBasis,
    LinOp,
    Overflow,
    Q,
    RouteDisagreement,
    Vector,
    koszul_sign,
    unshuffles,
)

__all__ = [
    "ConvergenceFault",
    "GradedBasis",
    "LinOp",
    "Overflow",
    "Q",
    "RouteDisagreement",
    "Vector",
    "koszul_sign",
    "unshuffles",
]
