"""Tolerant extraction of structured content from LLM free text.

Providers wrap useful output in prose, code fences, bullets, and numbering.
These helpers strip the wrapping and surface either a JSON object or
key-value pairs; callers normalize and filter what comes back.
"""
from __future__ import annotations

import json
import re

_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s+")
_FENCE_RE = re.compile(r"^\s*```")


def iter_content_lines(text: str) -> list[str]:
    """Non-empty lines with code-fence markers and bullet/number prefixes removed."""
    lines: list[str] = []
    for raw_line in text.splitlines():
        if _FENCE_RE.match(raw_line):
            continue
        line = _BULLET_RE.sub("", raw_line).strip()
        if line:
            lines.append(line)
    return lines


def extract_json_object(text: str) -> dict | None:
    """First well-formed JSON object embedded anywhere in ``text``, or None.

    Scans balanced ``{...}`` spans so surrounding prose and code fences are
    tolerated.
    """
    depth = 0
    start = -1
    in_string = False
    escaped = False
    for pos, ch in enumerate(text):
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
                try:
                    obj = json.loads(candidate)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict):
                    return obj
    return None


def split_values(value_text: str) -> list[str]:
    """Split a multi-valued right-hand side ("v1, v2") into raw values."""
    return [part for part in (p.strip() for p in value_text.split(",")) if part]


def feature_lines(text: str) -> list[tuple[str, list[str]]]:
    """``name: v1, v2`` lines as (name, values), in order of appearance.

    This is the canonical taxonomy rendering. Lines without a colon, a name
    or any value are skipped.
    """
    features: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        name, _, values_text = line.partition(":")
        values = split_values(values_text)
        if name.strip() and values:
            features.append((name.strip(), values))
    return features


def extract_kv_pairs(text: str) -> list[tuple[str, str]]:
    """Key-value pairs from free text, in order of appearance.

    Accepts ``key: value`` lines, bulleted and numbered variants, several
    ``key: value`` segments joined by semicolons on one line, and
    multi-valued ``key: v1, v2`` right-hand sides (one pair per value).
    Lines without a usable colon are skipped.
    """
    pairs: list[tuple[str, str]] = []
    for line in iter_content_lines(text):
        for segment in line.split(";"):
            segment = segment.strip()
            if ":" not in segment:
                continue
            key, _, value_text = segment.partition(":")
            key = key.strip()
            # A plausible feature key is short; sentences with a stray
            # colon ("note: the following...") still slip through and are
            # dropped later by the taxonomy-name filter.
            if not key or len(key.split()) > 6:
                continue
            for value in split_values(value_text):
                pairs.append((key, value))
    return pairs


def pairs_from_json(text: str) -> list[tuple[str, str]]:
    """Key-value pairs from an embedded JSON object, if any.

    Values may be scalars or arrays; arrays expand to one pair per element.
    """
    obj = extract_json_object(text)
    if obj is None:
        return []
    pairs: list[tuple[str, str]] = []
    for key, value in obj.items():
        if isinstance(value, (list, tuple)):
            for element in value:
                pairs.append((str(key), str(element)))
        elif isinstance(value, (str, int, float, bool)):
            pairs.append((str(key), str(value)))
    return pairs


def extract_pairs(text: str) -> list[tuple[str, str]]:
    """Key-value pairs from free text, preferring an embedded JSON object.

    A well-formed JSON object wins over line parsing (a JSON blob read as
    lines would shred); otherwise fall back to key-value lines.
    """
    json_pairs = pairs_from_json(text)
    return json_pairs if json_pairs else extract_kv_pairs(text)
