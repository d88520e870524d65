"""Shared by every workload: paths, run limits and the run outcome."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ROOT", "BUILD", "SETUP_REPEATS", "Outcome"]

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Set-up is measured this many times per run and reported as the median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What a workload run hands back to the common checks."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    # Digest of each unit (an op, or a serve-mix block), in pass order.
    unit_digests: list = field(default_factory=list)
    # Digests this run must reproduce, by unit; units past its end (or all,
    # when ``None``) have nothing to compare with.
    expected: list | None = None
    # Units whose first output was wrong; every later run of them fails too.
    wrong_units: set = field(default_factory=set)
    # Exact counts of the first traced pass (traced runs only).
    exact: dict | None = None

    def check_unit(self, unit: int, value: str | None, label: str) -> bool:
        """Record or re-check ``unit``'s output digest; True when it is right.

        ``value`` is ``None`` when the unit raised (the caller reports why).
        The first run of a unit must match :attr:`expected`; every later
        run must repeat the first run's digest.
        """
        if unit == len(self.unit_digests):
            self.unit_digests.append(value)
            known = self.expected is not None and unit < len(self.expected)
            if value is None:
                self.wrong_units.add(unit)
            elif known and value != self.expected[unit]:
                self.errors.append(
                    f"{label}: digest {value} != {self.expected[unit]}, the committed "
                    "digest or that of an earlier run of this seed"
                )
                self.wrong_units.add(unit)
        elif value != self.unit_digests[unit]:
            self.errors.append(f"{label}: output differs when run again")
            return False
        return unit not in self.wrong_units
