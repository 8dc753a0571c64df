"""Line-oriented check reports: ``CHECK <name> <pass|fail> residual=<x> tol=<y>``."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckResult", "Report"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        word = "pass" if self.passed else "fail"
        return f"CHECK {self.name} {word} residual={self.residual:.6e} tol={self.tol:.6e}"


@dataclass
class Report:
    provenance: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, residual: float, tol: float) -> None:
        """Record a check; a repeated name keeps the entry with the worst
        margin (residual - tol), so it passes only if every entry passed."""
        check = CheckResult(name, float(residual), float(tol))
        for i, old in enumerate(self.checks):
            if old.name == name:
                worse = check.residual - check.tol > old.residual - old.tol
                if worse or (old.passed and not check.passed):
                    self.checks[i] = check
                return
        self.checks.append(check)

    def add_flag(self, name: str, ok: bool) -> None:
        # boolean checks encode as residual 0/1 against tol 0.5
        self.add(name, 0.0 if ok else 1.0, 0.5)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        head = [f"# {key}={value}" for key, value in self.provenance.items()]
        return head + [check.line() for check in self.checks]

    def __str__(self) -> str:
        return "\n".join(self.lines())
