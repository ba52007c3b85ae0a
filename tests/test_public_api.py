import nullsol

# The names a caller may import from the package.  Dropping or renaming one
# breaks callers: change this list only together with a CHANGES.md entry.
PUBLIC_API = [
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


def test_public_api_is_pinned():
    assert sorted(nullsol.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in nullsol.__all__:
        assert getattr(nullsol, name) is not None, name
