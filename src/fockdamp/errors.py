"""Exception types shared across the package."""


class FockdampError(Exception):
    """Base class for package-specific errors."""


class CutoffTooSmall(FockdampError):
    """Truncation would discard more probability mass than allowed."""

    def __init__(self, tail_mass: float, tail_tol: float, nmax: int):
        self.tail_mass = tail_mass
        self.tail_tol = tail_tol
        self.nmax = nmax
        super().__init__(
            f"Poisson tail beyond nmax={nmax} is {tail_mass:.3e} "
            f"(allowed {tail_tol:.1e}); raise the cutoff"
        )


class DimensionMismatch(FockdampError):
    """Operands live in different truncated spaces."""


class TraceDriftExceeded(FockdampError):
    """Trace of the evolving state drifted beyond the monitored bound."""


class PositivityViolated(FockdampError):
    """A sampled state has an eigenvalue below the monitored bound."""


class GeneratorOverflow(FockdampError):
    """A step generator's norm is not finite, or it turns a phase by 2^53 rad
    or more: a rate, time or Kerr strength is too large."""


class NoClosedForm(FockdampError):
    """No channel of the mix is active, so no cascade sets a long-time state."""


class NonpositiveGammaB(FockdampError):
    """The damped-mode rate in the effective-rate formula must be positive."""


class NoInteriorMinimum(FockdampError):
    """The sampled standard deviation is monotone on the requested window."""


class SeedStreamExhausted(FockdampError):
    """A trajectory consumed more random draws than a stream can provide."""


class ParseError(FockdampError):
    """Scenario file is not syntactically valid."""


class ValidationError(FockdampError):
    """Scenario content violates the schema or semantic rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "scenario validation failed:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )
