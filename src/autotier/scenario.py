"""Scenario document ingestion and serialization.

Scenarios are single JSON documents with an explicit schemaVersion; parsing
fills documented defaults for omitted tunables and round-trips losslessly.
Three scenarios ship with the package: "table3-table4" (three production
tiers, fourteen mixed workloads), "spike" (anti-thrash exercise) and
"tiny-oracle" (six VMDKs, the quickest oracle check).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any

from .model import (
    SCHEMA, DemandProfile, Scenario, ScenarioValidationError, VmdkTable, validate_scenario,
)

BUNDLED_SCENARIOS = ("table3-table4", "spike", "tiny-oracle")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal longer than Python converts, or nesting too deep
        raise ScenarioValidationError([f"document: {exc}"]) from exc
    return validate_scenario(doc)


def load_scenario(path_or_name: str | Path) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(path_or_name)
    if path.exists():
        return parse_scenario(path.read_text(encoding="utf-8"))
    if str(path_or_name) in BUNDLED_SCENARIOS:
        return parse_scenario(bundled_scenario_text(str(path_or_name)))
    raise FileNotFoundError(
        f"no scenario file {path_or_name!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(BUNDLED_SCENARIOS)})"
    )


def bundled_scenario_text(name: str) -> str:
    if name not in BUNDLED_SCENARIOS:
        raise KeyError(f"unknown bundled scenario {name!r}")
    return (
        resources.files("autotier").joinpath(f"scenarios/{name}.json").read_text("utf-8")
    )


def load_bundled_scenario(name: str) -> Scenario:
    return parse_scenario(bundled_scenario_text(name))


def _to_json(value: Any) -> Any:
    """JSON form of a spec object, walking its document table."""
    rows = SCHEMA.get(type(value))
    if rows is not None:
        return {key: _to_json(getattr(value, arg)) for key, arg, _, _, _ in rows}
    if isinstance(value, (tuple, VmdkTable, DemandProfile)):
        return [_to_json(item) for item in value]
    return value


def scenario_to_document(scenario: Scenario) -> dict[str, Any]:
    return _to_json(scenario)


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_document(scenario), indent=2) + "\n"
