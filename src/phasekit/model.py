"""Pulse pairs, beamsplitters, port means, and discrimination results.

Pulse strengths live as mean photon numbers (the natural experimental
knobs); amplitudes are taken as the non-negative square roots on demand.
The random optical phase shared by signal and reference never appears
explicitly: every quantity downstream depends on the inputs only through
the moduli |r*beta +/- t*alpha|, which a common phase rotation leaves
unchanged. The splitter angle ``phi`` below is unrelated to that mixture
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "QUARTER_PI",
    "SplitterRangeError",
    "PulsePair",
    "Beamsplitter",
    "OutputMeans",
    "DiscriminationResult",
    "homodyne_splitter",
    "kennedy_angle",
    "output_means",
]

QUARTER_PI = math.pi / 4.0

_EPS = 2.220446049250313e-16


class SplitterRangeError(ValueError):
    """Requested splitter falls outside the closed one-parameter family."""


@dataclass(frozen=True)
class PulsePair:
    """Signal and reference strengths as mean photon numbers."""

    alpha2: float
    beta2: float

    def __post_init__(self) -> None:
        for name in ("alpha2", "beta2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")

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
    rather than folded back in. Explicit (r, t) may be supplied when exact
    magnitudes matter (the Kennedy cancellation below), but must agree with
    the angle.
    """

    phi: float
    r: float | None = None
    t: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi <= QUARTER_PI):
            raise SplitterRangeError(
                f"splitter angle must lie in [0, pi/4], got {self.phi}"
            )
        if self.r is None:
            object.__setattr__(self, "r", math.cos(self.phi))
        if self.t is None:
            object.__setattr__(self, "t", math.sin(self.phi))
        if abs(self.r - math.cos(self.phi)) > 1e-9 or abs(self.t - math.sin(self.phi)) > 1e-9:
            raise ValueError("explicit (r, t) disagree with the splitter angle")
        if abs(self.r * self.r + self.t * self.t - 1.0) > 1e-14:
            raise ValueError("splitter magnitudes must satisfy r^2 + t^2 = 1")

    @property
    def phi_over_pi(self) -> float:
        return self.phi / math.pi


def homodyne_splitter() -> Beamsplitter:
    """The balanced splitter, phi = pi/4."""
    return Beamsplitter(QUARTER_PI)


def kennedy_angle(pair: PulsePair) -> Beamsplitter:
    """Splitter that darkens output port 2 under the PLUS hypothesis.

    Requires cos^2(phi) = beta^2 / (alpha^2 + beta^2). A reference weaker
    than the signal would need phi > pi/4, outside the family; callers may
    swap the two roles first (all receiver formulas are symmetric in them).
    """
    total = pair.total
    if total <= 0.0:
        raise ValueError("cancellation angle needs at least one non-empty pulse")
    if pair.beta2 < pair.alpha2:
        raise SplitterRangeError(
            "reference weaker than signal puts the cancellation angle beyond pi/4; "
            "swap the signal and reference roles instead"
        )
    h = math.sqrt(total)
    return Beamsplitter(math.atan2(pair.alpha, pair.beta), r=pair.beta / h, t=pair.alpha / h)


@dataclass(frozen=True)
class OutputMeans:
    """Expected counts in the two output ports under each hypothesis."""

    n1_plus: float
    n1_minus: float
    n2_plus: float
    n2_minus: float

    def __post_init__(self) -> None:
        vals = (self.n1_plus, self.n1_minus, self.n2_plus, self.n2_minus)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValueError("output means must be finite and non-negative")
        plus = self.n1_plus + self.n2_plus
        minus = self.n1_minus + self.n2_minus
        if abs(plus - minus) > 1e-12 * max(1.0, plus, minus):
            raise ValueError("a lossless splitter must conserve energy per hypothesis")


def _squared_amplitude(diff: float, scale: float) -> float:
    # amplitudes cancelling below float resolution are a dark port,
    # not 1e-33 photons
    if abs(diff) < 8.0 * _EPS * scale:
        return 0.0
    return diff * diff


def port_means(alpha: float, beta: float, r: float, t: float) -> tuple[float, float, float, float]:
    """Raw port means for arbitrary (r, t); see ``output_means``."""
    n1_plus = (r * beta + t * alpha) ** 2
    n1_minus = _squared_amplitude(r * beta - t * alpha, r * beta + t * alpha)
    n2_plus = _squared_amplitude(t * beta - r * alpha, t * beta + r * alpha)
    n2_minus = (t * beta + r * alpha) ** 2
    return n1_plus, n1_minus, n2_plus, n2_minus


def output_means(pair: PulsePair, splitter: Beamsplitter) -> OutputMeans:
    """Mean photon numbers (r*beta +/- t*alpha)^2 and (t*beta -/+ r*alpha)^2.

    Only relative phase enters: rotating both input amplitudes by a common
    phase leaves every modulus, and hence every click statistic, unchanged.
    """
    return OutputMeans(*port_means(pair.alpha, pair.beta, splitter.r, splitter.t))


@dataclass(frozen=True)
class DiscriminationResult:
    """An error probability with its distinguishability D = 1 - 2P."""

    error_probability: float
    distinguishability: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.error_probability
        if not (0.0 <= p <= 0.5):
            raise ValueError(f"error probability must lie in [0, 1/2], got {p}")
        if abs(self.distinguishability - (1.0 - 2.0 * p)) > 1e-14:
            raise ValueError("distinguishability must equal 1 - 2P")

    @classmethod
    def from_error_probability(cls, p: float, method: str, **metadata) -> "DiscriminationResult":
        if not math.isfinite(p):
            raise ValueError(f"error probability must be finite, got {p}")
        # absorb float dust from long sums, never a real violation
        if -1e-12 <= p < 0.0:
            p = 0.0
        elif 0.5 < p <= 0.5 + 1e-12:
            p = 0.5
        return cls(p, 1.0 - 2.0 * p, method, dict(metadata))
