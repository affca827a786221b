"""Provider-agnostic chat-completion access.

Covers prompt rendering for the three pipeline templates (plus the
taxonomy-free direct variant), the one HTTP+JSON client that the chat
provider and the embedder share (retries and typed errors), and a
deterministic mock provider that stands in for a real model in tests and
desk-scale experiments.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, TypeVar

from .errors import AuthError, ContentError, NetworkError, ParseError
from ._textparse import line_entries

T = TypeVar("T")

_TEMPLATE_DIR = Path(__file__).parent / "templates"
_SLOT_RE = re.compile(r"\{(\w+)\}")

# Section headers used when filling the taxonomy/item/history slots. The
# mock provider relies on them to locate the embedded content.
TAXONOMY_HEADER = "Taxonomy:"
ITEM_HEADER = "Item:"
HISTORY_HEADER = "History:"

# Separator between a history item's title and its feature list.
TITLE_SEPARATOR = " — "

# Appended to the prompt on the single re-ask after a parse failure: the
# taxonomy is asked for as JSON, item categories and recommendations as lines.
JSON_REMINDER = (
    "Respond with only a JSON object that maps each feature name to an array of values."
)
LINE_REMINDER = "Respond with one 'feature: value' line per feature of the taxonomy."

# HTTP retry policy: request timeout, attempts per post, first backoff (doubling).
_TIMEOUT_S = 60.0
_MAX_ATTEMPTS = 4
_BACKOFF_BASE_S = 0.5


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt template loaded from a text asset.

    ``slots`` lists the placeholder names in order of first appearance.
    :meth:`render` is the one check of slot values: every slot must be given
    and non-empty, and an int slot must be >= 1.
    """

    name: str
    text: str

    @cached_property
    def slots(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(_SLOT_RE.findall(self.text)))

    def render(self, **values: object) -> str:
        for slot in self.slots:
            value = values.get(slot)
            if not value or isinstance(value, int) and value < 1:
                raise ValueError(f"template {self.name!r}: slot {slot!r} is missing, empty or < 1")
        return self.text.format(**{slot: values[slot] for slot in self.slots})


@cache
def load_template(name: str) -> PromptTemplate:
    """The named template asset, read from disk once per process."""
    path = _TEMPLATE_DIR / f"{name}.txt"
    if not path.exists():
        raise FileNotFoundError(f"prompt template not found: {path}")
    return PromptTemplate(name=name, text=path.read_text(encoding="utf-8"))


@cache
def template_hash(name: str) -> str:
    """Stable fingerprint of a template asset, for cache addressing."""
    text = load_template(name).text
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def render_taxonomy_prompt(domain_label: str) -> str:
    return load_template("taxonomy_generation").render(domain=domain_label)


def render_categorization_prompt(domain_label: str, taxonomy_text: str, item_text: str) -> str:
    return load_template("categorization").render(
        domain=domain_label, taxonomy=taxonomy_text, item=item_text
    )


def render_recommendation_prompt(
    domain_label: str, taxonomy_text: str, categorized_history_text: str, k: int
) -> str:
    return load_template("recommendation").render(
        domain=domain_label, taxonomy=taxonomy_text, history=categorized_history_text, k=k
    )


def render_direct_recommendation_prompt(domain_label: str, history_text: str, k: int) -> str:
    """Taxonomy-free variant: raw titles in, free-text recommendation out."""
    return load_template("direct_recommendation").render(
        domain=domain_label, history=history_text, k=k
    )


@dataclass(frozen=True)
class LlmRequest:
    prompt: str
    max_output_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    usage: tuple[int, int] | None = None


class Provider(Protocol):
    """Anything that can answer a chat-completion request."""

    model_name: str

    def complete(self, request: LlmRequest) -> LlmResponse: ...


def ask(
    provider: Provider, request: LlmRequest, parse: Callable[[str], T], *, reminder: str
) -> T:
    """Complete ``request`` and return ``parse`` of the reply text.

    If ``parse`` raises :class:`ParseError`, the request is sent once more
    with ``reminder`` appended to the prompt (other fields kept); a second
    :class:`ParseError` propagates.
    """
    text = provider.complete(request).text
    try:
        return parse(text)
    except ParseError:
        retry = replace(request, prompt=f"{request.prompt}\n\n{reminder}")
        return parse(provider.complete(retry).text)


class HttpJsonClient:
    """One HTTP+JSON endpoint family serving ``model_name``, behind a single :meth:`post`.

    Owns the session, the headers and the retry policy: network errors,
    5xx, and 408/429 (rate limits) are retried up to ``_MAX_ATTEMPTS`` with
    exponential backoff, or after the ``Retry-After`` seconds a 408/429
    response gives. 401/403 raise :class:`AuthError`, other 4xx
    :class:`ContentError`, and exhausted attempts :class:`NetworkError`.
    Concurrency is bounded only by the caller's worker threads.
    """

    def __init__(
        self,
        base_url: str,
        model_name: str,
        api_key: str | None = None,
        *,
        session: Any = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key = api_key
        self._sleep = sleep
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def post(self, path: str, body: Mapping[str, Any]) -> Any:
        """POST ``body`` as JSON to ``<base_url><path>`` and return the decoded reply."""
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                backoff = _BACKOFF_BASE_S * (2 ** (attempt - 1))
                self._sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            try:
                response = self._session.post(
                    f"{self.base_url}{path}", json=body, headers=headers, timeout=_TIMEOUT_S
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            status = response.status_code
            if status in (401, 403):
                raise AuthError(f"provider rejected credentials (HTTP {status})")
            if status in (408, 429):
                retry_after = _retry_after_seconds(response.headers.get("Retry-After"))
                last_error = NetworkError(f"provider asked to retry (HTTP {status})")
                continue
            if 400 <= status < 500:
                raise ContentError(f"provider rejected request (HTTP {status}): {response.text[:200]}")
            if status >= 500:
                last_error = NetworkError(f"provider failure (HTTP {status})")
                continue
            try:
                return response.json()
            except ValueError as exc:
                raise ContentError(f"malformed provider response: {exc}")
        raise NetworkError(f"provider unreachable after {_MAX_ATTEMPTS} attempts: {last_error}")


class HttpChatProvider(HttpJsonClient):
    """Chat-completion over HTTP+JSON, OpenAI-wire-compatible.

    POSTs ``{model, messages, temperature, max_tokens}`` to
    ``<base_url>/chat/completions`` with temperature 0 (greedy decoding)
    and reads the first choice's message content; retries and errors are
    :class:`HttpJsonClient`'s.
    """

    def complete(self, request: LlmRequest) -> LlmResponse:
        data = self.post("/chat/completions", {
            "model": self.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0.0,
            "max_tokens": request.max_output_tokens,
        })
        usage = None
        try:
            text = data["choices"][0]["message"]["content"]
            usage_obj = data.get("usage") or {}
            if "prompt_tokens" in usage_obj and "completion_tokens" in usage_obj:
                usage = (int(usage_obj["prompt_tokens"]), int(usage_obj["completion_tokens"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ContentError(f"malformed provider response: {exc}")
        return LlmResponse(text=text, usage=usage)


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` header given in seconds; None if absent or a date."""
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


# Fixed feature table for the mock provider: 10 features, 4 values each.
# Per-seed rotation of each value list keeps output deterministic per seed
# while varying across seeds.
_MOCK_FEATURES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Genre", ("Fiction", "Non-fiction", "Mystery", "Fantasy")),
    ("Theme", ("Power", "Love", "Survival", "Identity")),
    ("Tone", ("Dark", "Light", "Serious", "Humorous")),
    ("Era", ("Classic", "Modern", "Contemporary", "Ancient")),
    ("Audience", ("Adult", "Young Adult", "Children", "Scholar")),
    ("Setting", ("Urban", "Rural", "Frontier", "Imaginary")),
    ("Style", ("Narrative", "Descriptive", "Experimental", "Minimalist")),
    ("Pacing", ("Fast", "Slow", "Steady", "Varied")),
    ("Language", ("English", "French", "Spanish", "German")),
    ("Format", ("Novel", "Anthology", "Series", "Standalone")),
)


def _section(lines: list[str], header: str, stop_header: str | None = None) -> list[str]:
    """The lines after the first ``header`` line, up to the next ``stop_header`` line."""
    try:
        start = lines.index(header) + 1
    except ValueError:
        return []
    try:
        return lines[start : lines.index(stop_header, start)]
    except ValueError:
        return lines[start:]


def _section_text(lines: list[str]) -> str:
    return "\n".join(lines).strip()


@lru_cache(maxsize=64)
def _taxonomy_table(taxonomy_text: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """A prompt's taxonomy section as ``(name, values)`` entries."""
    return tuple((name, tuple(values)) for name, values in line_entries(taxonomy_text))


@lru_cache(maxsize=64)
def _segment_table(taxonomy_text: str) -> tuple[dict[str, int], tuple[str, ...], tuple] | None:
    """A slot per taxonomy value, in order: its segment forms ``name: value`` and `` name: value``,
    its reply line, and each feature's ``(start, stop)`` slots. None if a feature or value repeats.
    Names and values are stripped and a name holds no ":", so a form parses back to its own pair.
    """
    table = _taxonomy_table(taxonomy_text)
    replies = tuple(f"{name}: {value}" for name, values in table for value in values)
    if len(set(replies)) < len(replies) or len({name for name, _ in table}) < len(table):
        return None
    forms = {form: slot for slot, reply in enumerate(replies) for form in (reply, f" {reply}")}
    bounds = list(accumulate([len(values) for _, values in table], initial=0))
    return forms, replies, tuple(zip(bounds, bounds[1:]))


def _stable_int(*parts: object) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class MockProvider:
    """Deterministic stand-in for a chat model.

    Contract:

    * taxonomy prompts yield a fixed 10-feature taxonomy derived from the
      seed (feature names fixed, per-feature value order seed-rotated);
    * categorization prompts yield one value per feature, chosen by a
      stable hash of (seed, embedded item text, feature name) over that
      feature's value list;
    * recommendation prompts yield, per feature, the plurality value among
      the categorized history items embedded in the prompt, ties broken by
      value order in the embedded taxonomy, as ``key: value`` lines;
    * taxonomy-free recommendation prompts yield invented titles that do
      not occur in any catalog (the unconstrained-generation failure mode).

    Anything else raises :class:`ContentError`. Identical prompt text maps
    to identical response text; the instance is stateless. Each prompt is
    split into lines once. The memos are two bounded ``lru_cache`` tables per
    taxonomy text: the parsed taxonomy, and its canonical ``name: value``
    segments, through which a history made only of them is tallied. Replies
    are byte-for-byte those of parsing every prompt afresh.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.model_name = f"mock-{seed}"

    # -- taxonomy -----------------------------------------------------

    def taxonomy_features(self) -> list[tuple[str, list[str]]]:
        """The (name, values) table this seed generates, pre-normalization."""
        features = []
        for name, values in _MOCK_FEATURES:
            shift = _stable_int(self.seed, name) % len(values)
            rotated = list(values[shift:]) + list(values[:shift])
            features.append((name, rotated))
        return features

    def _taxonomy_response(self) -> str:
        features = self.taxonomy_features()
        body = ",\n".join(f'  "{name}": {json.dumps(values)}' for name, values in features)
        return f"Here is a taxonomy for this dataset:\n\n```json\n{{\n{body}\n}}\n```"

    # -- categorization -----------------------------------------------

    def _categorization_response(self, lines: list[str]) -> str:
        taxonomy_text = _section_text(_section(lines, TAXONOMY_HEADER, ITEM_HEADER))
        item_text = _section_text(_section(lines, ITEM_HEADER))
        if not taxonomy_text or not item_text:
            raise ContentError("categorization prompt missing taxonomy or item section")
        replies = []
        for name, values in _taxonomy_table(taxonomy_text):
            choice = values[_stable_int(self.seed, item_text, name) % len(values)]
            replies.append(f"{name}: {choice}")
        if not replies:
            raise ContentError("categorization prompt carried an empty taxonomy")
        return "\n".join(replies)

    # -- recommendation -----------------------------------------------

    def _recommendation_response(self, lines: list[str]) -> str:
        taxonomy_text = _section_text(_section(lines, TAXONOMY_HEADER, HISTORY_HEADER))
        history = list(map(str.strip, _section(lines, HISTORY_HEADER)))
        if not taxonomy_text or not any(history):
            raise ContentError("recommendation prompt missing taxonomy or history section")
        # A line votes with its ";" segments after the title; each distinct segment is read once.
        segments: list[str] = []
        for line in history:
            title, separator, features = line.partition(TITLE_SEPARATOR)
            segments += (features if separator else title).split(";")
        tally = Counter(segments)
        table = _segment_table(taxonomy_text)
        if table is not None and tally.keys() <= table[0].keys():
            # Only canonical forms: each voted feature replies with its first slot of the top count.
            forms, slot_replies, bounds = table
            slots = [0] * len(slot_replies)
            for segment, count in tally.items():
                slots[forms[segment]] += count
            replies = []
            for start, stop in bounds:
                top = max(slots[start:stop])
                if top:
                    replies.append(slot_replies[slots.index(top, start, stop)])
            return "\n".join(replies)
        votes: defaultdict[str, dict[str, int]] = defaultdict(dict)
        for segment, count in tally.items():
            key, _, value = segment.partition(":")
            key, value = key.strip(), value.strip()
            if key and value:
                counts = votes[key]
                counts[value] = counts.get(value, 0) + count
        replies = []
        for name, values in _taxonomy_table(taxonomy_text):
            counts = votes.get(name)
            if not counts:
                continue
            best = max(counts.values())
            tied = [value for value, count in counts.items() if count == best]
            choice = tied[0] if len(tied) == 1 else next((value for value in values if value in tied), min(tied))
            replies.append(f"{name}: {choice}")
        if not replies:
            raise ContentError("recommendation prompt carried an unreadable history")
        return "\n".join(replies)

    def _direct_response(self, lowered: bytes, lines: list[str]) -> str:
        history_text = _section_text(_section(lines, HISTORY_HEADER))
        match = re.search(rb"recommend (\d+)", lowered)
        k = int(match.group(1)) if match else 10
        digest = hashlib.sha256(f"{self.seed}|{history_text}".encode("utf-8")).hexdigest()[:8]
        return "\n".join(f"Uncharted Shelf Vol. {i + 1} [{digest}]" for i in range(k))

    # -- dispatch -------------------------------------------------------

    def complete(self, request: LlmRequest) -> LlmResponse:
        prompt = request.prompt
        # Lowering the UTF-8 bytes dispatches as prompt.lower() would: only
        # U+0130 and U+212A lowercase to ASCII, and neither can complete a
        # phrase below. It skips a wide-string copy of every prompt; a lone
        # surrogate encodes to non-ASCII bytes, as it does not lower.
        lowered = prompt.encode("utf-8", "surrogatepass").lower()
        lines = prompt.splitlines()
        if b"generate a taxonomy" in lowered:
            text = self._taxonomy_response()
        elif b"please classify" in lowered:
            text = self._categorization_response(lines)
        elif b"please recommend" in lowered:
            if TAXONOMY_HEADER in lines:
                text = self._recommendation_response(lines)
            else:
                text = self._direct_response(lowered, lines)
        else:
            raise ContentError("mock provider does not recognize this prompt")
        usage = (len(prompt.split()), len(text.split()))
        return LlmResponse(text=text, usage=usage)

