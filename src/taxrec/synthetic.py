"""Seeded synthetic dataset: fake titles and concentrated user preferences.

Real-model experiment numbers are not reproducible offline, so the
evaluation harness runs end to end on this generator plus the mock
provider. Items fall into clusters; each user interacts mostly within one
cluster, so histories carry a learnable signal.
"""
from __future__ import annotations

import random

from .catalog import Interaction, ItemPool
from .core import Item

_ADJECTIVES = (
    "Silent", "Crimson", "Forgotten", "Luminous", "Restless", "Hollow",
    "Gilded", "Wandering", "Shattered", "Quiet", "Burning", "Distant",
    "Velvet", "Iron", "Paper", "Midnight",
)
_NOUNS = (
    "River", "Archive", "Orchard", "Signal", "Harbor", "Cartographer",
    "Meridian", "Lantern", "Tide", "Labyrinth", "Sparrow", "Engine",
    "Garden", "Frontier", "Letter", "Mirror",
)
_CLUSTERS = 8


def make_synthetic_dataset(
    n_items: int = 240,
    n_users: int = 80,
    interactions_per_user: int = 25,
    seed: int = 0,
    concentration: float = 0.8,
    domain_label: str = "book",
) -> tuple[ItemPool, list[Interaction]]:
    """Generate a seeded item pool and interaction log.

    Items are dealt round-robin into 8 clusters. ``concentration`` is the
    probability that an interaction stays inside the user's preferred
    cluster; timestamps are the per-user step index, and no user interacts
    with the same item twice.
    """
    if not 0.0 <= concentration <= 1.0:
        raise ValueError("concentration must be in [0, 1]")
    if interactions_per_user > n_items:
        raise ValueError("interactions_per_user cannot exceed n_items")
    rng = random.Random(seed)

    items = []
    for index in range(n_items):
        adjective = _ADJECTIVES[rng.randrange(len(_ADJECTIVES))]
        noun = _NOUNS[rng.randrange(len(_NOUNS))]
        items.append(Item(id=f"s{index:04d}", title=f"The {adjective} {noun} {index + 1}"))
    pool = ItemPool(domain_label=domain_label, items=tuple(items))

    clusters: list[list[str]] = [[] for _ in range(_CLUSTERS)]
    for index, item in enumerate(items):
        clusters[index % _CLUSTERS].append(item.id)

    interactions = []
    for user_index in range(n_users):
        user_id = f"u{user_index:04d}"
        preferred = clusters[rng.randrange(_CLUSTERS)]
        seen: set[str] = set()
        step = 0
        while step < interactions_per_user:
            if rng.random() < concentration:
                candidate = preferred[rng.randrange(len(preferred))]
            else:
                candidate = items[rng.randrange(n_items)].id
            if candidate in seen:
                # Fall back to the first unseen item to guarantee progress.
                candidate = next(item.id for item in items if item.id not in seen)
            seen.add(candidate)
            interactions.append(
                Interaction(user_id=user_id, item_id=candidate, rating=1.0, timestamp=step)
            )
            step += 1
    return pool, interactions
