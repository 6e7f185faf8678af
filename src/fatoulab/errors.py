"""Exception types shared across the package."""

from __future__ import annotations


class FatouLabError(Exception):
    """Base class for all package errors."""


class Overflow(FatouLabError):
    """exp argument left the double range; callers may treat this as escape evidence."""


class OutOfWindow(FatouLabError):
    """Query point lies outside the grid window."""


class RotationLike(FatouLabError):
    """Disk-map orbit neither contracts inside nor approaches the boundary within budget."""


class PoleOnCircle(FatouLabError):
    """Rational candidate has a denominator zero on the sampled unit circle."""


class CriticalValueCollision(FatouLabError):
    """Inversion requested within tolerance of a critical value (merging preimages)."""


class AsymptoticValueCollision(FatouLabError):
    """Inversion requested within tolerance of an asymptotic value (logarithmic singularity)."""


class NewtonDiverged(FatouLabError):
    """Damped Newton failed to reach the residual target within its step budget."""


class AmbiguousBranch(FatouLabError):
    """Two candidate preimages are too close to select a branch reliably."""


class BranchJumpDetected(FatouLabError):
    """A pullback image strayed outside the trust radius of its anchor path."""


class OnPostsingularSet(FatouLabError):
    """Density query point coincides with a postsingular sample."""


class OnSegment(FatouLabError):
    """Density query point lies on the removed segment."""


class CloudOffSegment(FatouLabError):
    """A postsingular sample lies off the segment [0, c] that an audit takes to hold them all."""


class DegeneratePointSet(FatouLabError):
    """A density bound got an empty point set, or a two-puncture bound fewer than two distinct points."""


class ConvergedToFatouCycle(FatouLabError):
    """Periodic-point Newton landed on an attracting cycle (interior, not boundary)."""


class NoReturnWithinBudget(FatouLabError):
    """No seed orbit re-entered its return disk within the pullback budget."""


class VertexLeftFatou(FatouLabError):
    """An access-curve vertex classified outside the expected Fatou component."""


class NotFatouClassified(FatouLabError):
    """A walk basepoint lies on a cell with no Fatou label."""


class LeftWindow(FatouLabError):
    """A random walk stepped outside the grid window."""


class TooManyWindowExits(FatouLabError):
    """More than half of the harmonic-measure walks left the window."""


class CalibrationFailure(FatouLabError):
    """The disk-oracle calibration of the walk sampler failed."""


class ConfigError(FatouLabError):
    """Run configuration is malformed or violates the schema."""


class LiftGridExhausted(FatouLabError):
    """The circle-lift grid reached its finest size and still misses increments of pi or more."""


class LiftNotExpandingWarning(UserWarning):
    """A branch equation of the circle lift had multiple roots; all roots are returned."""
