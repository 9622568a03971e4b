"""Numerical tolerances shared across the package.

2x2 arithmetic is numerically benign, so the algebraic identities are held
to tight absolute tolerances; generation and validation tolerances are
roomier to absorb accumulated floating-point error.
"""

HERMITICITY = 1e-12
RECONSTRUCTION = 1e-12
POSITIVITY = 1e-9
NORMALIZATION = 1e-9
NO_SIGNALING = 1e-9
VIOLATION_TIE = 1e-10
DEGENERATE_DIRECTION = 1e-12


def defaults() -> dict[str, float]:
    """Effective tolerance set, keyed by the names the CLI accepts."""
    return {
        "hermiticity": HERMITICITY,
        "positivity": POSITIVITY,
        "normalization": NORMALIZATION,
        "no-signaling": NO_SIGNALING,
        "tie": VIOLATION_TIE,
    }
