"""Check results and serializable verification reports."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class CheckResult:
    """One verified identity: name, parameters, residual, tolerance, verdict."""

    name: str
    params: dict[str, Any]
    residual: float
    tolerance: float
    passed: bool = field(default=False)
    terms_used: Optional[int] = None
    runtime_ms: float = 0.0
    error: Optional[str] = None

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)
        if self.error is None:
            self.passed = bool(self.residual <= self.tolerance)

    def to_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.terms_used is not None:
            out["terms_used"] = self.terms_used
        if self.error is not None:
            out["error"] = self.error
        out["runtime_ms"] = self.runtime_ms
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CheckResult":
        r = cls(
            name=d["name"],
            params=dict(d["params"]),
            residual=d["residual"],
            tolerance=d["tolerance"],
            terms_used=d.get("terms_used"),
            runtime_ms=d.get("runtime_ms", 0.0),
            error=d.get("error"),
        )
        r.passed = d["pass"]
        return r


@dataclass
class VerificationReport:
    """Ordered collection of check results with run metadata."""

    tool_version: str
    config: dict[str, Any]
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    @property
    def summary(self) -> dict[str, int]:
        n_pass = sum(1 for r in self.results if r.passed)
        return {
            "total": len(self.results),
            "pass": n_pass,
            "fail": len(self.results) - n_pass,
        }

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool_version": self.tool_version,
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        report = cls(tool_version=d["tool_version"], config=d["config"])
        for rd in d["results"]:
            report.add(CheckResult.from_dict(rd))
        return report

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "params", "residual", "tolerance", "pass"])
        for r in self.results:
            writer.writerow([
                r.name,
                json.dumps(r.params, sort_keys=True),
                repr(r.residual),
                repr(r.tolerance),
                str(r.passed).lower(),
            ])
        return buf.getvalue()
