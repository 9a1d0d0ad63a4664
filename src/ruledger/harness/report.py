"""Run report helpers and schema validation.

Reports hold only simulation-time quantities, never wall-clock ones, so a
repeated run of the same scenario file serializes to identical bytes.
`jsonschema` is imported on the first report validation, not with this module,
so a process that builds a `World` without building its report never loads it.
"""

from __future__ import annotations

import functools
import json
from importlib import resources


def build_stats(samples: list[int]) -> dict:
    """Order statistics over integer millisecond samples."""
    if not samples:
        return {"count": 0, "min": 0, "p50": 0, "p90": 0, "max": 0, "mean": 0}
    ordered = sorted(samples)
    n = len(ordered)

    def pct(q: float) -> int:
        return ordered[min(n - 1, int(q * n))]

    return {
        "count": n,
        "min": ordered[0],
        "p50": pct(0.50),
        "p90": pct(0.90),
        "max": ordered[-1],
        # Integer mean keeps report bytes stable across platforms.
        "mean": sum(ordered) // n,
    }


@functools.cache
def _validator():
    """The report schema's validator, built once per process after one schema check."""
    from jsonschema.validators import validator_for

    text = resources.files("ruledger.harness").joinpath("report.schema.json").read_text()
    schema = json.loads(text)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(report: dict) -> None:
    """Raise what `jsonschema.validate` raises: the best-matching `ValidationError`."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(report))
    if error is not None:
        raise error


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
