"""Batch request validation and spec parsing for the service.

``POST /v1/batch`` bodies are validated in two passes, both of which
report *paths* into the offending document (``$.cells[2].policy``)
rather than a bare message, so a client can fix exactly the cell that
is wrong:

1. **Shape** — the checked-in JSON schema
   (``src/repro/service/schemas/batch.schema.json``) via the same
   dependency-free validator ``repro why``/``repro diff`` pin their
   output with;
2. **Semantics** — workload and policy names resolve against the
   registries, scale is positive and finite, config overrides name real
   :class:`~repro.sim.config.SystemConfig` fields, and thread counts
   fit the resolved configuration (reusing :func:`make_spec`'s own
   check).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from repro.core.registry import POLICIES
from repro.harness.executor import RunSpec, make_spec
from repro.obs.attribution.schema import validate
from repro.service.schemas import load_schema
from repro.sim.config import DEFAULT_CONFIG, SystemConfig
from repro.workloads import WORKLOADS
from repro.workloads.base import check_scale

#: The wire schema for POST /v1/batch bodies (checked in, shipped).
BATCH_SCHEMA = load_schema("batch")

#: Largest accepted batch: bounds per-request memory and queue abuse.
MAX_BATCH_CELLS = 1024

#: SystemConfig field name -> declared type (for override validation).
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(SystemConfig)}


class BatchValidationError(ValueError):
    """The batch body is malformed; ``errors`` lists path-tagged issues."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _workload_code(raw: str) -> str:
    """Resolve Table III codes or human names, like the CLI does."""
    code = raw.strip().upper()
    if code in WORKLOADS:
        return code
    lowered = raw.strip().lower()
    for candidate, registered in WORKLOADS.items():
        if registered.spec.name.lower() == lowered:
            return candidate
    raise KeyError(raw)


def _parse_cell(i: int, cell: Dict[str, Any],
                errors: List[str]) -> RunSpec | None:
    """Semantic pass over one schema-valid cell dict."""
    path = f"$.cells[{i}]"
    try:
        workload = _workload_code(cell["workload"])
    except KeyError:
        errors.append(f"{path}.workload: unknown workload "
                      f"{cell['workload']!r} (try `repro list`)")
        return None
    policy = cell["policy"]
    if policy not in POLICIES:
        errors.append(f"{path}.policy: unknown policy {policy!r} "
                      f"(try `repro list`)")
        return None
    scale = cell.get("scale", 1.0)
    try:
        check_scale(scale)
    except ValueError as exc:
        errors.append(f"{path}.scale: {exc}")
        return None
    config = DEFAULT_CONFIG
    overrides = cell.get("config") or {}
    bad = sorted(set(overrides) - set(_CONFIG_FIELDS))
    if bad:
        errors.append(f"{path}.config: unknown SystemConfig field(s) "
                      f"{bad} (known: {sorted(_CONFIG_FIELDS)})")
        return None
    if overrides:
        try:
            config = DEFAULT_CONFIG.replace(**overrides)
        except (TypeError, ValueError) as exc:
            errors.append(f"{path}.config: {exc}")
            return None
    try:
        return make_spec(workload, policy,
                         threads=cell.get("threads"),
                         scale=float(scale),
                         seed=cell.get("seed", 0),
                         input_name=cell.get("input"),
                         config=config)
    except (ValueError, KeyError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def parse_batch(payload: Any) -> List[RunSpec]:
    """Validate a ``POST /v1/batch`` body and plan its specs.

    Raises:
        BatchValidationError: with every shape and semantic problem
            found, each tagged with its JSON path.
    """
    errors = validate(payload, BATCH_SCHEMA)
    if errors:
        raise BatchValidationError(errors)
    cells = payload["cells"]
    if len(cells) > MAX_BATCH_CELLS:
        raise BatchValidationError(
            [f"$.cells: {len(cells)} cells > batch limit "
             f"{MAX_BATCH_CELLS}"])
    specs: List[RunSpec] = []
    semantic: List[str] = []
    for i, cell in enumerate(cells):
        spec = _parse_cell(i, cell, semantic)
        if spec is not None:
            specs.append(spec)
    if semantic:
        raise BatchValidationError(semantic)
    return specs
