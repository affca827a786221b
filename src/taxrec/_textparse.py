"""The reply grammar: one decoder for every model reply.

Providers answer in the taxonomy's ``feature: value`` format, often as a
JSON object, and wrap it in prose, code fences, bullets and numbering.
:func:`reply_entries` reads either form into ``(key, [values])`` entries;
callers normalize and filter what comes back.
"""
from __future__ import annotations

import json
import re

Entry = tuple[str, list[str]]

# Leading whitespace, then a code-fence marker (group 1) or a bullet or number.
_PREFIX_RE = re.compile(r"\s*(?:(```)|(?:[-*•]|\d+[.)])\s+)?")


def iter_content_lines(text: str) -> list[str]:
    """Non-empty lines with code-fence markers and bullet/number prefixes removed."""
    lines: list[str] = []
    for raw_line in text.splitlines():
        prefix = _PREFIX_RE.match(raw_line)
        if prefix.group(1):
            continue
        line = raw_line[prefix.end() :].strip()
        if line:
            lines.append(line)
    return lines


def extract_json_object(text: str) -> tuple[dict, int, int] | None:
    """First well-formed JSON object embedded anywhere in ``text`` and its
    ``start, end`` span, or None.

    Scans balanced ``{...}`` spans so surrounding prose and code fences are
    tolerated. Nothing before the first ``{`` can change the scan, so it
    starts there, and a reply without one costs a single search.
    """
    first = text.find("{")
    if first == -1:
        return None
    depth = 0
    start = -1
    in_string = False
    escaped = False
    for pos, ch in enumerate(text[first:], first):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"' and depth > 0:
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = pos
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                candidate = text[start : pos + 1]
                # Nesting deeper than the interpreter's recursion limit
                # makes json.loads raise RecursionError: not an object.
                try:
                    obj = json.loads(candidate)
                except (json.JSONDecodeError, RecursionError):
                    continue
                if isinstance(obj, dict):
                    return obj, start, pos + 1
    return None


def _split_values(value_text: str) -> list[str]:
    """Split a multi-valued right-hand side ("v1, v2") into raw values."""
    return [part for part in map(str.strip, value_text.split(",")) if part]


def reply_entries(text: str) -> list[Entry]:
    """``(key, [values])`` entries of a model reply, in order of appearance.

    An embedded JSON object that holds at least one entry wins (a JSON blob
    read as lines would shred); otherwise the reply around the object is
    read as lines.
    """
    found = extract_json_object(text)
    if found is None:
        return line_entries(text)
    obj, start, end = found
    return _json_entries(obj) or line_entries(f"{text[:start]}\n{text[end:]}")


def _json_entries(obj: dict) -> list[Entry]:
    """Entries of a flat mapping, of a mapping or feature list under one
    ``taxonomy``/``features`` wrapper key, or of a ``features`` list of
    ``{"name", "values"}`` objects."""
    body: dict | list = obj
    if len(obj) == 1:
        ((key, inner),) = obj.items()
        if key in ("taxonomy", "features") and (isinstance(inner, dict) or _is_feature_list(inner)):
            body = inner
    if isinstance(body, dict) and _is_feature_list(body.get("features")):
        body = body["features"]
    if isinstance(body, dict):
        pairs = body.items()
    else:
        pairs = [
            (entry.get("name") or entry.get("feature"), entry.get("values") or entry.get("value"))
            for entry in body
            if isinstance(entry, dict)
        ]
    entries: list[Entry] = []
    for key, value in pairs:
        key = "" if key is None else str(key).strip()
        values = _json_values(value)
        if key and values:
            entries.append((key, values))
    return entries


def _is_feature_list(value: object) -> bool:
    return isinstance(value, list) and any(isinstance(entry, dict) for entry in value)


def _json_values(value: object) -> list[str]:
    """Raw values of one JSON entry: lists flatten, a dict gives its keys,
    and a scalar is split on commas like a line's right-hand side.

    Flattens with an explicit stack, so nesting as deep as json.loads
    accepts cannot exhaust the interpreter's recursion limit.
    """
    raw: list[str] = []
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            value = list(value)
        if isinstance(value, list):
            stack.extend(reversed(value))
        elif value is not None:
            raw += _split_values(str(value))
    return raw


def line_entries(text: str) -> list[Entry]:
    """Entries of ``key: v1, v2`` lines.

    Fences are skipped, bullets and numbering stripped, and several
    ``key: value`` segments may share a line, joined by semicolons.
    Segments without a colon, a key or any value are skipped.
    """
    entries: list[Entry] = []
    for line in iter_content_lines(text):
        for segment in line.split(";"):
            key, colon, value_text = segment.partition(":")
            key = key.strip()
            # A plausible feature key is short. A prose line whose key has
            # six words or fewer ("note: the following...") still slips
            # through: replies drop it with the taxonomy-name filter, but a
            # line-form taxonomy keeps it as a feature.
            if not colon or not key or len(key.split()) > 6:
                continue
            values = _split_values(value_text)
            if values:
                entries.append((key, values))
    return entries
