"""Platform records (decoherence time, gate time) and the advantage report.

The bundled data file lists published qubit and qudit platforms with their
T2 and gate times.  Unknown entries stay unknown ("unknown" in the file,
``None`` in memory); they are never imputed.  An unlimited T2 is recorded
as "inf" and forces the figure of merit tau = gate_time / T2 to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from math import isinf

from .analytic import critical_ratio, max_advantageous_dimension, naive_ratio
from .operators import require_dimension

_UNKNOWN = "unknown"


@dataclass(frozen=True)
class PlatformRecord:
    label: str
    d: int
    n_sites: int
    t2: float | None  # seconds; may be float("inf")
    gate_time: float | None  # seconds
    source: str
    note: str = ""

    def __post_init__(self) -> None:
        require_dimension(self.d, "platform dimension")
        require_dimension(self.n_sites, "platform site count")
        if self.d < 2:
            raise ValueError(f"platform dimension must be >= 2, got {self.d}")
        for v in (self.t2, self.gate_time):
            if v is not None and not v >= 0:
                raise ValueError(f"times must be non-negative numbers, got {v}")

    @property
    def tau(self) -> float | None:
        """Figure of merit gate_time / T2; None when undetermined."""
        if self.t2 is not None and isinf(self.t2):
            return 0.0
        if self.t2 is None or self.gate_time is None:
            return None
        return self.gate_time / self.t2


def _parse_time(text: str) -> float | None:
    """A time field: None for "unknown", else the float ("inf" included);
    ``PlatformRecord`` rejects NaN and negative times."""
    text = text.strip()
    return None if text == _UNKNOWN else float(text)


def parse_records(text: str) -> list[PlatformRecord]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (6, 7):
            raise ValueError(f"malformed platform line: {line!r}")
        note = parts[6] if len(parts) == 7 else ""
        try:
            records.append(
                PlatformRecord(
                    label=parts[0],
                    d=int(parts[1]),
                    n_sites=int(parts[2]),
                    t2=_parse_time(parts[3]),
                    gate_time=_parse_time(parts[4]),
                    source=parts[5],
                    note=note,
                )
            )
        except ValueError as exc:
            raise ValueError(f"malformed platform line {line!r}: {exc}") from None
    return records


def load_records(path=None) -> list[PlatformRecord]:
    """Load platform records from ``path`` or the bundled survey data."""
    if path is not None:
        with open(path) as fh:
            return parse_records(fh.read())
    text = resources.files("quditbench.data").joinpath("platforms.txt").read_text()
    return parse_records(text)


def platform_report(
    records: list[PlatformRecord], reference: PlatformRecord
) -> list[dict]:
    """Advantage table of qudit records (d >= 3) against a qubit reference.

    A qudit platform is advantageous when tau_ref / tau_qudit exceeds the
    critical ratio (d^2 - 1)/(3 log2 d); rows also carry the largest
    advantageous dimension at that tau ratio (bisection on the critical
    curve) and the naive d^2/log2 d comparator.  Records with undetermined
    tau get the verdict "insufficient data".
    """
    if reference.tau is None or reference.tau <= 0:
        raise ValueError(f"reference platform {reference.label!r} must have a known, positive tau")
    rows = []
    for rec in records:
        if rec.d < 3:
            continue
        row = {
            "label": rec.label,
            "d": rec.d,
            "n": rec.n_sites,
            "tau": rec.tau,
            "critical_ratio": critical_ratio(rec.d),
            "naive_ratio": naive_ratio(rec.d),
            "source": rec.source,
            "note": rec.note,
        }
        if rec.tau is None:
            row.update(tau_ratio=None, verdict="insufficient data", max_advantageous_d=None)
        elif rec.tau == 0.0:
            # unlimited T2: advantageous at any dimension
            row.update(tau_ratio=float("inf"), verdict="advantageous", max_advantageous_d=float("inf"))
        else:
            ratio = reference.tau / rec.tau
            verdict = "advantageous" if ratio > critical_ratio(rec.d) else "not advantageous"
            row.update(
                tau_ratio=ratio,
                verdict=verdict,
                max_advantageous_d=max_advantageous_dimension(ratio),
            )
        rows.append(row)
    return rows
