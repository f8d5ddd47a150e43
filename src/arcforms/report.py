"""Verification reports: named checks with failure counts and witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field


MAX_WITNESSES = 10


@dataclass
class Check:
    name: str
    total: int = 0
    failed: int = 0
    witnesses: list = field(default_factory=list)

    def tally(self, ok: bool, witness=None):
        self.total += 1
        if not ok:
            self.failed += 1
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(witness)

    def tally_many(self, total: int, failing_witnesses: list):
        """Tally `total` cases at once, given the witnesses of the failing ones in order."""
        self.total += total
        self.failed += len(failing_witnesses)
        self.witnesses += failing_witnesses[: MAX_WITNESSES - len(self.witnesses)]

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "failed": self.failed,
            "witnesses": self.witnesses,
        }


@dataclass
class Report:
    command: str
    inputs: dict
    checks: list
    elapsed_ms: int = 0
    notes: list = field(default_factory=list)
    result: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        c = Check(name)
        self.checks.append(c)
        return c

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_json() for c in self.checks],
            "notes": self.notes,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.result is not None:
            out["result"] = self.result
        return out

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.total - c.failed}/{c.total}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{self.command}: {verdict} ({self.elapsed_ms} ms)")
        return "\n".join(lines)
