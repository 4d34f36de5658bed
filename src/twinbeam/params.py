"""Experiment parametrisation shared by every statistical formula in the package.

The package's one domain rule: the number of identical modes per beam
``mu`` (real, >= 1: mode numbers fitted from data are not integers), the
detection efficiency ``eta`` in (0, 1] and the mean detected counts per
beam ``mean_counts`` >= 0.  A computation refuses only what it cannot
compute (the closed forms refuse eta = 1 via ``require_lossy``).  Mean
photon number and squeezing fraction are derived, never stored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ParameterError

__all__ = ["ExperimentParams"]


@dataclass(frozen=True)
class ExperimentParams:
    """The (mu, eta, mean_counts) triple driving all counting statistics.

    mu:
        Number of identical independent mode pairs shared by the two beams.
    eta:
        Detection efficiency per mode, identical in both arms, in (0, 1].
        The closed-form expressions are singular at eta = 1 (no loss), where
        the marginal and the sampler still hold.
    mean_counts:
        Mean number of detected counts per beam (eta times the mean photon
        number).
    """

    mu: float
    eta: float
    mean_counts: float

    def __post_init__(self) -> None:
        for name in ("mu", "eta", "mean_counts"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(float(value)):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            # + 0.0 stores -0.0 as 0.0: equal params then write equal bytes
            object.__setattr__(self, name, float(value) + 0.0)
        if self.mu < 1.0:
            raise ParameterError(f"mu must be >= 1, got {self.mu}")
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError(f"eta must be in (0, 1], got {self.eta}")
        if self.mean_counts < 0.0:
            raise ParameterError(f"mean_counts must be >= 0, got {self.mean_counts}")

    @property
    def mean_photons(self) -> float:
        """Mean photon number per beam (counts corrected for efficiency)."""
        return self.mean_counts / self.eta

    @property
    def lambda_sq(self) -> float:
        """Squeezing fraction N/(mu + N) in [0, 1); the per-mode photon law is
        geometric with this ratio."""
        n = self.mean_photons
        return n / (self.mu + n)

    def to_dict(self) -> dict:
        """The {"mu", "eta", "mean_counts"} mapping that files and records carry."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentParams":
        """Inverse of ``to_dict``; a missing key raises KeyError."""
        return cls(data["mu"], data["eta"], data["mean_counts"])

    def require_lossy(self) -> None:
        """Reject eta = 1; the closed-form path needs 1 - eta > 0."""
        if self.eta >= 1.0:
            raise ParameterError("closed-form statistics require eta < 1")
