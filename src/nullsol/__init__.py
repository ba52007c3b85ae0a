"""Triviality analysis of zero-past solution spaces for constant-coefficient PDEs."""

from .classifier import (
    LatticeSpec,
    SolutionSpace,
    Verdict,
    classify,
    periodic_test,
)
from .config import DEFAULT_CONFIG, SolverConfig
from .multipoly import NEG_INF, MultiPoly
from .parser import ParseError, ParseErrorKind, parse, print_canonical
from .symbols import (
    ContentGenerators,
    RealPolySystem,
    degree_test,
    imaginary_slice,
    is_characteristic_normal,
    principal_part,
    x_content,
)
from .variety import (
    EmptinessVerdict,
    boundedness_radius,
    decide_emptiness,
    subdivision_search,
)
from .witness import (
    CertificateFailure,
    ThetaDerivPoly,
    Witness,
    build_periodic_witness,
    build_witness,
    theta_derivatives,
    verify_residual,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateFailure",
    "ContentGenerators",
    "DEFAULT_CONFIG",
    "EmptinessVerdict",
    "LatticeSpec",
    "MultiPoly",
    "NEG_INF",
    "ParseError",
    "ParseErrorKind",
    "RealPolySystem",
    "SolutionSpace",
    "SolverConfig",
    "ThetaDerivPoly",
    "Verdict",
    "Witness",
    "boundedness_radius",
    "build_periodic_witness",
    "build_witness",
    "classify",
    "decide_emptiness",
    "degree_test",
    "imaginary_slice",
    "is_characteristic_normal",
    "parse",
    "periodic_test",
    "principal_part",
    "print_canonical",
    "subdivision_search",
    "theta_derivatives",
    "verify_residual",
    "x_content",
]
