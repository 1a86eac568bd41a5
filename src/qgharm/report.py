"""The one record every check returns, and the canonical JSON writer of
the documents that carry it. The module imports no numpy."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

__all__ = ["Check", "check", "json_dumps"]


@dataclass(frozen=True)
class Check:
    """Outcome of one check: named residuals against a tolerance.

    name and claim say what was checked and holds is the verdict. lhs and
    rhs are the two sides of an inequality where the check has them. details
    holds the evidence that the CLI does not print, such as a certified
    element and its Haar value.
    """

    name: str
    claim: str
    residuals: dict
    tol: Optional[float]
    holds: bool
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    details: dict = field(default_factory=dict)

    def failing(self) -> dict:
        """The residuals above tol, and those that are NaN."""
        return {k: v for k, v in self.residuals.items() if not v <= self.tol}


def check(name: str, claim: str, residuals: dict, tol: float,
          lhs: Optional[float] = None, rhs: Optional[float] = None,
          **details) -> Check:
    """The record of a check that holds when every residual is at most tol,
    so never with a NaN one. An empty residual dict raises ValueError."""
    residuals = {k: float(v) for k, v in residuals.items()}
    if not residuals:
        raise ValueError(f"check {name!r} has no residuals")
    return Check(name=name, claim=claim, residuals=residuals, tol=tol,
                 holds=all(v <= tol for v in residuals.values()), lhs=lhs,
                 rhs=rhs, details=details)


def json_dumps(doc) -> str:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing
    newline. Every CLI document is written with it. Its bytes are those of
    json.dumps(doc, sort_keys=True, indent=2) + "\n", which runs the
    standard library's pure-Python encoder because indent is set. This
    direct writer covers only the document grammar: dicts with str keys,
    lists and tuples, str, int, bool, None and float (NaN and the
    infinities spelled as json spells them). Anything else, and a key that
    is not a str, raises TypeError."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


# float.__repr__ of the floats that json spells otherwise
_FLOAT_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(o: float) -> str:
    text = float.__repr__(o)
    return _FLOAT_SPELLING.get(text, text)


# the encoder of each scalar type, looked up by exact type; a subclass,
# such as numpy's float64, takes its base's, in json's order of bases
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _write(o, newline: str, out: list) -> None:
    """Append the encoding of o to out; newline is the line break and
    indent that close o's containers. Lists and dicts take separate loops,
    which keeps the per-item work of the common case small."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            encode = _SCALARS.get(type(item))
            if encode is None:
                out.append(sep)
                _write(item, inner, out)
            else:
                out.append(sep + encode(item))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            value = o[key]
            head = sep + encode_basestring_ascii(key) + ": "
            encode = _SCALARS.get(type(value))
            if encode is None:
                out.append(head)
                _write(value, inner, out)
            else:
                out.append(head + encode(value))
            sep = "," + inner
        out.append(newline + "}")
    else:
        for base in (type(o), str, int, float):
            if base in _SCALARS and isinstance(o, base):
                out.append(_SCALARS[base](o))
                return
        raise TypeError(f"Object of type {type(o).__name__} is not JSON "
                        f"serializable")
