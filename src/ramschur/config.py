"""Resource limits for the exact computations."""

from dataclasses import dataclass

__all__ = ["Caps", "DEFAULT_CAPS"]


@dataclass(frozen=True)
class Caps:
    """Default ceilings; every capped entry point takes an override.

    schur_degree bounds every step that reads Schur coefficients: full
    Schur expansions and the scan stage of a positivity check; its ell
    and certificate stages are arithmetic and run at any degree.  Time
    and memory grow with the partition count (p(45) = 89134), and the
    memory held is the final expansions of p_d^(n/d) that were asked
    for, not a chain of every lower power.  maj_degree bounds major-index
    distributions.  factor_limit bounds the trial-division factorizer.
    matrix_divisors bounds the dense Ramanujan matrix.
    """

    schur_degree: int = 45
    maj_degree: int = 14
    factor_limit: int = 10**12
    matrix_divisors: int = 1024


DEFAULT_CAPS = Caps()
