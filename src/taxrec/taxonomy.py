"""The taxonomy dictionary: generate once per domain, parse, truncate, persist.

The taxonomy is the condensed stand-in for the item pool that gets embedded
into categorization and recommendation prompts.
"""
from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import gateway
from ._textparse import reply_entries
from .core import Feature, Taxonomy, normalize_text
from .errors import ParseError

_generation_locks: dict[str, threading.Lock] = {}
_locks_guard = threading.Lock()


@dataclass(frozen=True)
class TaxonomyDocument:
    """A generated taxonomy plus enough provenance to reproduce and cache it."""

    taxonomy: Taxonomy
    source_text: str
    created_at: str
    provider_fingerprint: tuple[str, str]  # (model_name, template hash)


def parse_taxonomy(text: str, domain_label: str = "") -> Taxonomy:
    """Extract a Taxonomy from provider output.

    The reply is read by :func:`reply_entries`: a JSON object in any of its
    shapes, or ``name: v1, v2`` lines. All names and values are normalized;
    duplicate feature names merge in first-seen order.
    """
    raw_features = reply_entries(text)
    if not raw_features:
        raise ParseError("no structured taxonomy found in provider output", raw_text=text)

    merged: dict[str, list[str]] = {}
    for raw_name, raw_values in raw_features:
        name = normalize_text(raw_name)
        if not name:
            continue
        bucket = merged.setdefault(name, [])
        for raw_value in raw_values:
            value = normalize_text(raw_value)
            if value and value not in bucket:
                bucket.append(value)

    features = tuple(
        Feature(name=name, values=tuple(values)) for name, values in merged.items() if values
    )
    if not features:
        raise ParseError("taxonomy has zero usable features", raw_text=text)
    return Taxonomy(domain_label=domain_label, features=features)


def truncate_features(t: Taxonomy, n: int) -> Taxonomy:
    """Keep the first ``min(n, |features|)`` features in generation order.

    The truncation to each ``n`` is built once and kept on ``t``, so every
    request truncating to ``n`` shares one taxonomy, with one prompt text
    and one pair table (see :func:`catalog.canonical_pairs`).
    """
    if n < 1:
        raise ValueError("feature count must be >= 1")
    if n >= len(t.features):
        return t
    # setdefault, atomic on a dict, gives threads truncating at once one taxonomy.
    truncations = t.__dict__.setdefault("_truncations", {})
    truncated = truncations.get(n)
    if truncated is None:
        truncated = truncations.setdefault(
            n, Taxonomy(domain_label=t.domain_label, features=t.features[:n])
        )
    return truncated


def taxonomy_to_prompt_text(t: Taxonomy) -> str:
    """Canonical rendering: one ``name: v1, v2`` line per feature.

    Feature order is preserved; parsing the rendering reproduces the
    taxonomy (values are normalized and never contain the line delimiters).
    The text is :attr:`Taxonomy.prompt_text`, rendered once per taxonomy.
    """
    return t.prompt_text


def taxonomy_fingerprint(model_name: str, t: Taxonomy) -> str:
    """Content address for caches derived from this (model, taxonomy) pair.

    Changing the categorization template, the model, the feature count, or
    any feature content changes the fingerprint.
    """
    payload = "|".join(
        (model_name, gateway.template_hash("categorization"), taxonomy_to_prompt_text(t))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _taxonomy_path(cache_dir: Path, domain_label: str) -> Path:
    return Path(cache_dir) / domain_label / "taxonomy.json"


def store_taxonomy(doc: TaxonomyDocument, cache_dir: Path) -> Path:
    path = _taxonomy_path(cache_dir, doc.taxonomy.domain_label)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "domain_label": doc.taxonomy.domain_label,
        "source_text": doc.source_text,
        "created_at": doc.created_at,
        "provider_fingerprint": list(doc.provider_fingerprint),
        "features": [{"name": f.name, "values": list(f.values)} for f in doc.taxonomy.features],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_taxonomy(cache_dir: Path, domain_label: str) -> TaxonomyDocument | None:
    """The stored document for a domain, or None when none is stored or the
    file is not a readable document (torn, not JSON, fields missing)."""
    path = _taxonomy_path(cache_dir, domain_label)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        features = tuple(
            Feature(name=f["name"], values=tuple(f["values"])) for f in payload["features"]
        )
        return TaxonomyDocument(
            taxonomy=Taxonomy(domain_label=payload["domain_label"], features=features),
            source_text=payload["source_text"],
            created_at=payload["created_at"],
            provider_fingerprint=tuple(payload["provider_fingerprint"]),
        )
    except (KeyError, TypeError, ValueError):  # json.JSONDecodeError is a ValueError
        return None


def _provider_fingerprint(provider: gateway.Provider) -> tuple[str, str]:
    return (provider.model_name, gateway.template_hash("taxonomy_generation"))


def cached_taxonomy(
    provider: gateway.Provider, domain_label: str, cache_dir: Path
) -> TaxonomyDocument | None:
    """The cached taxonomy for a domain, if ``provider`` generated it.

    Returns None when nothing readable is cached, or when the cached
    document's provider fingerprint (model name, generation-template hash)
    differs from ``provider``'s, so a taxonomy from another model is never
    reused.
    """
    cached = load_taxonomy(cache_dir, domain_label)
    if cached is None or cached.provider_fingerprint != _provider_fingerprint(provider):
        return None
    return cached


def generate_taxonomy(
    provider: gateway.Provider,
    domain_label: str,
    cache_dir: Path | None,
) -> TaxonomyDocument:
    """Generate (or load) the one-time taxonomy for a domain.

    Renders the generation prompt, asks the provider through
    :func:`gateway.ask` (one re-ask with a format reminder on parse
    failure), and persists the document before returning. A cached document
    is reused only if its provider fingerprint matches ``provider``;
    otherwise it is regenerated and overwritten. Concurrent calls for the
    same domain are single-flight; the loser returns the winner's document.
    """
    if not domain_label:
        raise ValueError("domain_label must be non-empty")
    with _locks_guard:
        lock = _generation_locks.setdefault(domain_label, threading.Lock())
    with lock:
        if cache_dir is not None:
            cached = cached_taxonomy(provider, domain_label, cache_dir)
            if cached is not None:
                return cached

        request = gateway.LlmRequest(
            prompt=gateway.render_taxonomy_prompt(domain_label), max_output_tokens=2048
        )
        taxonomy, source_text = gateway.ask(
            provider,
            request,
            lambda text: (parse_taxonomy(text, domain_label), text),
            reminder=gateway.JSON_REMINDER,
        )
        doc = TaxonomyDocument(
            taxonomy=taxonomy,
            source_text=source_text,
            created_at=datetime.now(timezone.utc).isoformat(),
            provider_fingerprint=_provider_fingerprint(provider),
        )
        if cache_dir is not None:
            store_taxonomy(doc, cache_dir)
        return doc
