"""Check results, verification reports, and the one renderer that writes
reports and tables as JSON or CSV.

The renderer writes the bytes of ``json.dumps(..., indent=2)`` and of
``csv.writer`` rows, the latter without the csv module, and renders each
repeated text once per report through one memo type: ``json.dumps`` runs its
pure-Python encoder whenever ``indent`` is set.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Optional, Sequence

_INF = float("inf")


def _scalar(v: Any) -> str:
    """v as json.dumps writes it: NaN, Infinity and -Infinity for the
    non-finite floats, and strings escaped to ASCII."""
    if v.__class__ is float and v - v == 0.0:  # most values: a finite float, at once
        return float.__repr__(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not a JSON scalar")


class _Memo(dict):
    """The texts of one report, each rendered once: memo[*args, v.__class__, v] is
    render(*args, v), formed on the first lookup of its key and kept.  The key holds
    the value's class, as 1, 1.0 and True are equal keys; a float zero is rendered
    afresh each time, as 0.0 and -0.0 are equal keys too."""

    def __init__(self, render: Callable[..., str]):
        self.render = render

    def __missing__(self, key: tuple) -> str:
        text = self.render(*key[:-2], key[-1])
        if key[-1] or not isinstance(key[-1], float):
            self[key] = text
        return text


def _item(k: str, v: Any) -> str:
    """The JSON object item '"k": v'."""
    return encode_basestring_ascii(k) + ": " + _scalar(v)


def _layout(parts: Iterable[str], indent: str, brackets: str) -> str:
    """The rendered parts (object items or array elements) inside brackets, "{}"
    or "[]", laid out as json.dumps(indent=2) lays them out with the closing
    bracket at indent."""
    body = (",\n  " + indent).join(parts)
    return f"{brackets[0]}\n  {indent}{body}\n{indent}{brackets[1]}" if body else brackets


def _csv_field(v: Any) -> str:
    """v as csv.writer writes a field: a float by float.__repr__, None as the
    empty string, anything else by str; quoted where it holds a comma, a quote,
    \r or \n (QUOTE_MINIMAL), with its quotes doubled."""
    if isinstance(v, float):
        return float.__repr__(v)
    text = "" if v is None else str(v)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\r" in text or "\n" in text:
        return '"' + text + '"'
    return text


def _csv_joined(fields: Sequence[str]) -> str:
    # the writer quotes a row of one empty field, which would otherwise be an empty line
    return (",".join(fields) if len(fields) != 1 or fields[0] else '""') + "\r\n"


def csv_records(header: Iterable[Any], rows: Iterable[Sequence[str]]) -> str:
    """The header and the rows as CSV, the bytes csv.writer writes.  Each row is a
    sequence of fields already as _csv_field renders them, so that a caller renders
    a field it repeats once.  The lines go to one buffer as they are formed: a join
    would hold them all at once."""
    buf = io.StringIO()
    buf.write(_csv_joined([*map(_csv_field, header)]))
    buf.writelines(map(_csv_joined, rows))
    return buf.getvalue()


def json_records(keys: tuple[str, ...], rows: Iterable[Iterable[Any]]) -> str:
    """The rows as a JSON array of objects keyed by keys, the bytes of
    json.dumps([dict(zip(keys, row)) for row in rows], indent=2) for
    distinct keys and scalar values."""
    names = [encode_basestring_ascii(k) + ": " for k in keys]
    return _layout((_layout([n + _scalar(v) for n, v in zip(names, row)], "  ", "{}")
                    for row in rows), "", "[]")


@dataclass(slots=True)  # no per-instance __dict__: a report holds tens of thousands
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

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_dict(), indent=2).  Each name, tolerance, verdict
        and params item is rendered once per report, and each entry by one f-string."""
        head = json.dumps({"tool_version": self.tool_version, "config": self.config}, indent=2)
        tail = json.dumps({"summary": self.summary}, indent=2)
        items, scalars, entries = _Memo(_item), _Memo(_scalar), []
        for r in self.results:
            extra = ("" if r.terms_used is None
                     else ',\n      "terms_used": ' + _scalar(r.terms_used))
            if r.error is not None:
                extra += ',\n      "error": ' + _scalar(r.error)
            params = [items[k, v.__class__, v] for k, v in r.params.items()]
            entries.append(
                f'{{\n      "name": {scalars[r.name.__class__, r.name]},'
                f'\n      "params": {_layout(params, "      ", "{}")},'
                f'\n      "residual": {_scalar(r.residual)},'
                f'\n      "tolerance": {scalars[r.tolerance.__class__, r.tolerance]},'
                f'\n      "pass": {scalars[r.passed.__class__, r.passed]}{extra},'
                f'\n      "runtime_ms": {_scalar(r.runtime_ms)}\n    }}')
        # the results go between the header, less its closing brace, and the
        # summary, less its opening one
        return (head[:-2] + ',\n  "results": ' + _layout(entries, "  ", "[]") + ","
                + tail[1:])

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        report = cls(tool_version=d["tool_version"], config=d["config"])
        for rd in d["results"]:
            report.add(CheckResult.from_dict(rd))
        return report

    def to_csv(self) -> str:
        """One row per check; params as json.dumps(params, sort_keys=True).  Each
        name, tolerance and params item is rendered once, already CSV-quoted: the
        params text of a nonempty dict holds quotes, so its field is that text quoted,
        and quoting it is quoting each item."""
        fields, items = _Memo(_csv_field), _Memo(lambda k, v: _item(k, v).replace('"', '""'))

        def row(r: CheckResult) -> tuple[str, ...]:
            params = [items[k, v.__class__, v] for k, v in sorted(r.params.items())]
            # the residual is a float (__post_init__), _csv_field's float.__repr__
            return (fields[r.name.__class__, r.name],
                    '"{' + ", ".join(params) + '}"' if params else "{}",
                    float.__repr__(r.residual), fields[r.tolerance.__class__, r.tolerance],
                    str(r.passed).lower())

        return csv_records(("name", "params", "residual", "tolerance", "pass"),
                           map(row, self.results))
