"""Correctness gate for one fmesim CLI output.

An output fails when a number in it is not finite, or when a row's Monte
Carlo p_click or false_herald_fraction lies further than z_max standard
errors from its analytic column.  Exit codes and byte-for-byte repeatability
are checked by the caller, which owns the process and the first output.
"""

from __future__ import annotations

import csv
import io
import json
import math


def parse_rows(text: str) -> list[dict]:
    """Result rows of a protocol or sweep output, in CSV or JSON form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)["results"]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = []
    for raw in csv.DictReader(io.StringIO(body)):
        rows.append({key: _csv_value(cell) for key, cell in raw.items()})
    return rows


def _csv_value(cell: str):
    if cell.startswith("["):
        return json.loads(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


def _nonfinite(value, path: str, out: list[str]) -> None:
    if value is None:
        out.append(f"{path} is null (a non-finite number)")
    elif isinstance(value, (bool, str)):
        return
    elif isinstance(value, (int, float)):
        if not math.isfinite(value):
            out.append(f"{path} = {value!r} is not finite")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _nonfinite(item, f"{path}[{i}]", out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _nonfinite(item, f"{path}.{key}", out)


def _z(measured: float, expected: float, stderr: float) -> float:
    if stderr > 0.0:
        return abs(measured - expected) / stderr
    return 0.0 if abs(measured - expected) <= 1e-12 else math.inf


def check_rows(rows: list[dict], z_max: float) -> list[str]:
    """Problems found in the rows; an empty list means the output passes."""
    problems: list[str] = []
    if not rows:
        return ["output has no result rows"]
    for i, row in enumerate(rows):
        found: list[str] = []
        _nonfinite(row, f"row {i}", found)
        if found:
            problems.extend(found)
            continue
        z_click = _z(row["p_click"], row["p_click_analytic"], row["p_click_stderr"])
        if z_click > z_max:
            problems.append(f"row {i}: p_click is {z_click:.1f} standard errors from analytic")
        n_success = row["n_success"]
        expected = row["false_herald_analytic"]
        stderr = math.sqrt(expected * (1.0 - expected) / n_success) if n_success else 0.0
        z_false = _z(row["false_herald_fraction"], expected, stderr)
        if z_false > z_max:
            problems.append(
                f"row {i}: false_herald_fraction is {z_false:.1f} standard errors from analytic"
            )
    return problems


def check_output(text: str, z_max: float) -> list[str]:
    try:
        rows = parse_rows(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {exc}"]
    return check_rows(rows, z_max)
