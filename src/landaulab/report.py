"""Structured verification reports: named checks with deviations and
tolerances, serialisable to a stable JSON schema."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

__all__ = ["CheckRecord", "VerificationReport"]


@dataclass(frozen=True)
class CheckRecord:
    id: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {"id": self.id, "deviation": float(self.deviation),
                "tolerance": float(self.tolerance), "pass": self.passed}


@dataclass
class VerificationReport:
    """Record of one verification campaign.  The overall flag is always the
    conjunction of the individual checks."""

    campaign: str
    params: dict
    gauges: list
    settings: dict
    checks: list = field(default_factory=list)
    timestamp: str | None = None

    def add(self, check_id: str, deviation, tolerance: float) -> CheckRecord:
        """Record a check whose deviation is the largest of ``deviation``, a
        number or an array-like of them: a NaN anywhere is kept, no values
        at all read 0.0, and a single number passes through unchanged."""
        devs = np.asarray(deviation, dtype=float)
        worst = float(devs.max()) if devs.size else 0.0
        rec = CheckRecord(check_id, worst, float(tolerance))
        self.checks.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def stamp(self):
        self.timestamp = datetime.now(timezone.utc).isoformat()

    def to_dict(self) -> dict:
        out = {"campaign": self.campaign, "params": self.params,
               "gauges": self.gauges, "settings": self.settings,
               "checks": [c.to_dict() for c in self.checks],
               "pass": self.passed}
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        rep = cls(campaign=data["campaign"], params=dict(data["params"]),
                  gauges=list(data["gauges"]), settings=dict(data["settings"]),
                  timestamp=data.get("timestamp"))
        for c in data["checks"]:
            rep.add(c["id"], c["deviation"], c["tolerance"])
        return rep

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.id}: deviation={c.deviation:.3e} "
                         f"tolerance={c.tolerance:.1e}")
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"[{overall}] {self.campaign}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return lines
