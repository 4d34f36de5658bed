"""Experiment parametrisation shared by every statistical formula in the package.

The model has three free quantities: the number of identical modes per beam
``mu`` (real-valued, >= 1, because mode numbers fitted from data are not
integers), the effective detection efficiency ``eta`` in (0, 1), and the mean
number of detected counts per beam ``mean_counts``.  Everything else (mean
photon number, squeezing fraction) is derived and never stored independently.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass

from .errors import ParameterError

__all__ = ["ExperimentParams"]


@dataclass(frozen=True)
class ExperimentParams:
    """The (mu, eta, mean_counts) triple driving all counting statistics.

    mu:
        Number of identical independent mode pairs shared by the two beams.
    eta:
        Detection efficiency per mode, identical in both arms.  Must lie in
        (0, 1); the closed-form expressions are singular at eta = 1.  The
        degenerate eta = 1 case is meaningful only for the direct-enumeration
        oracle and for lossless sampling, which opt in explicitly via
        ``allow_unit_eta``.
    mean_counts:
        Mean number of detected counts per beam (eta times the mean photon
        number).
    """

    mu: float
    eta: float
    mean_counts: float
    allow_unit_eta: InitVar[bool] = False

    def __post_init__(self, allow_unit_eta: bool) -> None:
        for name in ("mu", "eta", "mean_counts"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(float(value)):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.mu < 1.0:
            raise ParameterError(f"mu must be >= 1, got {self.mu}")
        eta_hi_ok = self.eta < 1.0 or (allow_unit_eta and self.eta == 1.0)
        if not (0.0 < self.eta and eta_hi_ok):
            raise ParameterError(
                f"eta must be in (0, 1) (eta = 1 only via allow_unit_eta), got {self.eta}"
            )
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
        """Inverse of ``to_dict``.  A stored eta = 1 (a lossless record) is
        accepted; a missing key raises KeyError."""
        return cls(data["mu"], data["eta"], data["mean_counts"],
                   allow_unit_eta=data["eta"] == 1.0)

    def require_lossy(self) -> None:
        """Reject eta = 1; the closed-form path needs 1 - eta > 0."""
        if self.eta >= 1.0:
            raise ParameterError("closed-form statistics require eta < 1")
