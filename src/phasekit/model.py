"""Pulse pairs, beamsplitters, port means, and discrimination results.

Pulse strengths live as mean photon numbers (the natural experimental
knobs); amplitudes are taken as the non-negative square roots on demand.
``_checked_strength`` is the one rule for a strength, read by ``PulsePair``,
the closed forms that take alpha^2 alone and the figure tables.
The random optical phase shared by signal and reference never appears
explicitly: every quantity downstream depends on the inputs only through
the moduli |r*beta +/- t*alpha|, which a common phase rotation leaves
unchanged. The splitter angle ``phi`` below is unrelated to that mixture
phase.

``port_means`` is the one place the four port means are computed, from raw
amplitudes and splitter magnitudes, so an angle search needs no splitter.
A splitter is its angle alone, the cancellation splitter included:
``port_means`` makes its dark port exactly 0 at the cosine and sine of
arctan(alpha/beta).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .numerics import NumericalResourceError

__all__ = [
    "QUARTER_PI",
    "PulsePair",
    "Beamsplitter",
    "DiscriminationResult",
    "homodyne_splitter",
    "kennedy_angle",
    "port_means",
]

QUARTER_PI = math.pi / 4.0

_EPS = 2.220446049250313e-16


def _checked_strength(name: str, value: float) -> None:
    """A mean photon number as every entry point takes it, refused unless finite and >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _checked_integer(name: str, value) -> None:
    """The one rule for an integer limit (a count or a seed): any int, a bool too."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None


@dataclass(frozen=True)
class PulsePair:
    """Signal and reference strengths as mean photon numbers, each ``_checked_strength``."""

    alpha2: float
    beta2: float

    def __post_init__(self) -> None:
        _checked_strength("alpha2", self.alpha2)
        _checked_strength("beta2", self.beta2)

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha2)

    @property
    def beta(self) -> float:
        return math.sqrt(self.beta2)

    @property
    def total(self) -> float:
        return self.alpha2 + self.beta2

    def swapped(self) -> "PulsePair":
        return PulsePair(self.beta2, self.alpha2)


@dataclass(frozen=True)
class Beamsplitter:
    """Lossless splitter with reflection r = cos(phi), transmission t = sin(phi).

    The family is closed over 0 <= phi <= pi/4; angles outside are rejected
    rather than folded back in. The angle is the only argument: r and t are
    always its cosine and sine.
    """

    phi: float
    r: float = field(init=False)
    t: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi <= QUARTER_PI):
            raise ValueError(f"splitter angle must lie in [0, pi/4], got {self.phi} "
                             f"({self.phi / math.pi:.12g} pi)")
        if self.phi == 0.0:
            # -0.0 passes the range check; store +0.0 so it never prints as -0
            object.__setattr__(self, "phi", 0.0)
        object.__setattr__(self, "r", math.cos(self.phi))
        object.__setattr__(self, "t", math.sin(self.phi))


def homodyne_splitter() -> Beamsplitter:
    """The balanced splitter, phi = pi/4."""
    return Beamsplitter(QUARTER_PI)


def kennedy_angle(pair: PulsePair) -> Beamsplitter:
    """Splitter that darkens output port 2 under the PLUS hypothesis.

    Requires tan(phi) = alpha / beta. At the cosine and sine of that angle,
    port 2's amplitude under PLUS is below float resolution, and
    ``port_means`` makes it exactly dark. A reference weaker than the signal
    would need phi > pi/4, outside the family; callers may swap the two
    roles first (all receiver formulas are symmetric in them).
    """
    if pair.total <= 0.0:
        raise ValueError("cancellation angle needs at least one non-empty pulse")
    if pair.beta2 < pair.alpha2:
        raise ValueError(
            "reference weaker than signal puts the cancellation angle beyond pi/4; "
            "swap the signal and reference roles instead"
        )
    return Beamsplitter(math.atan2(pair.alpha, pair.beta))


def _squared_amplitude(diff: float, scale: float) -> float:
    # amplitudes cancelling below float resolution are a dark port,
    # not 1e-33 photons; squared as the bright amplitude is, so the dark
    # mean never exceeds the bright one and equal amplitudes tie exactly
    if abs(diff) < 8.0 * _EPS * scale:
        return 0.0
    return _square(diff)


def _square(x: float) -> float:
    """x^2 as a port mean, refused as a resource limit where it overflows a float."""
    try:
        return x ** 2
    except OverflowError:
        raise NumericalResourceError(f"a port mean of ({x:.4g})^2 overflows a float") from None


def port_means(alpha: float, beta: float, r: float, t: float) -> tuple[float, float, float, float]:
    """Mean photon numbers (r*beta +/- t*alpha)^2 and (t*beta -/+ r*alpha)^2.

    Returned as (n1_plus, n1_minus, n2_plus, n2_minus): port 1 and port 2
    under each hypothesis. Only relative phase enters: rotating both input
    amplitudes by a common phase leaves every modulus, and hence every click
    statistic, unchanged.
    """
    bright1, bright2 = r * beta + t * alpha, t * beta + r * alpha
    dark1 = _squared_amplitude(r * beta - t * alpha, bright1)
    dark2 = _squared_amplitude(t * beta - r * alpha, bright2)
    return _square(bright1), dark1, dark2, _square(bright2)


@dataclass(frozen=True)
class DiscriminationResult:
    """An error probability with its distinguishability D = 1 - 2P."""

    error_probability: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "error_probability", _checked_probability(self.error_probability))

    @property
    def distinguishability(self) -> float:
        return 1.0 - 2.0 * self.error_probability


def _checked_probability(p: float) -> float:
    """An error probability as a result stores it: finite, with float dust absorbed."""
    if not math.isfinite(p):
        raise ValueError(f"error probability must be finite, got {p}")
    # absorb float dust from long sums, never a real violation
    if -1e-12 <= p < 0.0:
        return 0.0
    if 0.5 < p <= 0.5 + 1e-12:
        return 0.5
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"error probability must lie in [0, 1/2], got {p}")
    return p
