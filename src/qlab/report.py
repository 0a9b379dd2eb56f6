"""Check results, verification reports, and the one renderer that writes
reports and tables as JSON or CSV.

The renderer writes the bytes of ``json.dumps(..., indent=2)`` and of
``csv.writer`` rows, the latter without the csv module, and renders each
parameter item once per report: ``json.dumps`` runs its pure-Python encoder
whenever ``indent`` is set.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Optional, Sequence

_INF = float("inf")


def _scalar(v: Any) -> str:
    """v as json.dumps writes it: NaN, Infinity and -Infinity for the
    non-finite floats, and strings escaped to ASCII."""
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


def _number(v: Any) -> str:
    """_scalar(v), with a finite float written at once."""
    return float.__repr__(v) if v.__class__ is float and v - v == 0.0 else _scalar(v)


def _once(memo: dict, v: Any) -> str:
    """_scalar(v), rendered once per memo; a float zero afresh each time, as 0.0 and
    -0.0 are equal keys."""
    text = memo.get(v)
    if text is None:
        text = _scalar(v)
        if v or not isinstance(v, float):
            memo[v] = text
    return text


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


def _csv_line(row: Iterable[Any]) -> str:
    return _csv_joined([*map(_csv_field, row)])


def _csv_joined(fields: Sequence[str]) -> str:
    # the writer quotes a row of one empty field, which would otherwise be an empty line
    return (",".join(fields) if len(fields) != 1 or fields[0] else '""') + "\r\n"


def csv_records(header: Iterable[str], rows: Iterable[Iterable[Any]],
                rendered: bool = False) -> str:
    """The header and the rows as CSV, the bytes csv.writer writes.  Where rendered,
    each row is a sequence of fields already as _csv_field renders them, so that a
    caller renders a field it repeats once.  The lines go to one buffer as they are
    formed: a join would hold them all at once."""
    buf = io.StringIO()
    buf.write(_csv_line(header))
    buf.writelines(map(_csv_joined if rendered else _csv_line, rows))
    return buf.getvalue()


def json_records(keys: tuple[str, ...], rows: Iterable[Iterable[Any]]) -> str:
    """The rows as a JSON array of objects keyed by keys, the bytes of
    json.dumps([dict(zip(keys, row)) for row in rows], indent=2) for
    distinct keys and scalar values."""
    names = [encode_basestring_ascii(k) + ": " for k in keys]
    return _layout((_layout([n + _scalar(v) for n, v in zip(names, row)], "  ", "{}")
                    for row in rows), "", "[]")


class _ParamItems:
    """The '"key": value' items of parameter dicts, each rendered once; where
    quoted, with their quotes doubled, as inside a quoted CSV field.

    A float zero is rendered afresh each time: 0.0 and -0.0 are equal keys."""

    def __init__(self, quoted: bool = False):
        self._memo: dict[tuple, str] = {}
        self._quoted = quoted

    def items(self, pairs: Iterable[tuple[str, Any]]) -> list[str]:
        memo = self._memo
        return [memo.get((k, v.__class__, v)) or self._render(k, v) for k, v in pairs]

    def _render(self, k: str, v: Any) -> str:
        item = encode_basestring_ascii(k) + ": " + _scalar(v)
        if self._quoted:
            item = item.replace('"', '""')
        if v or not isinstance(v, float):
            self._memo[k, v.__class__, v] = item
        return item


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
        """The bytes of json.dumps(self.to_dict(), indent=2).  Each name, tolerance and
        params item is rendered once per report, and each entry by one f-string."""
        head = json.dumps({"tool_version": self.tool_version, "config": self.config}, indent=2)
        tail = json.dumps({"summary": self.summary}, indent=2)
        params, names, tolerances = _ParamItems(), {}, {}
        entries = []
        for r in self.results:
            extra = ("" if r.terms_used is None
                     else ',\n      "terms_used": ' + _scalar(r.terms_used))
            if r.error is not None:
                extra += ',\n      "error": ' + _scalar(r.error)
            entries.append(
                f'{{\n      "name": {_once(names, r.name)},'
                f'\n      "params": {_layout(params.items(r.params.items()), "      ", "{}")},'
                f'\n      "residual": {_number(r.residual)},'
                f'\n      "tolerance": {_once(tolerances, r.tolerance)},'
                f'\n      "pass": {_scalar(r.passed)}{extra},'
                f'\n      "runtime_ms": {_number(r.runtime_ms)}\n    }}')
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
        name and each params item is rendered once, already CSV-quoted: the params
        text of a nonempty dict holds quotes, so its field is that text quoted, and
        quoting it is quoting each item."""
        params, names = _ParamItems(quoted=True), {}

        def row(r: CheckResult) -> tuple[str, ...]:
            name = names.get(r.name)
            if name is None:
                name = names[r.name] = _csv_field(r.name)
            items = params.items(sorted(r.params.items()))
            # residual and tolerance are floats (__post_init__), _csv_field's float.__repr__
            return (name, '"{' + ", ".join(items) + '}"' if items else "{}",
                    float.__repr__(r.residual), float.__repr__(r.tolerance),
                    str(r.passed).lower())

        return csv_records(("name", "params", "residual", "tolerance", "pass"),
                           map(row, self.results), rendered=True)
