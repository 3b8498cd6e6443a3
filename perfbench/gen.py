"""Seeded relation pairs for the benchmark's join workloads.

Each side's join values come from one disjoint sample, so any domain
size works (1000 and above included) for integer and string keys alike.
The program under test receives only the generated relations.

The sampled values are sorted and dealt to "shared", "R1 only" and "R2
only" in a fixed, evenly interleaved order.  The seed still draws every
value and payload, but the two sides' range partitions (DAS equi-depth
buckets) overlap the same way on every seed, so a run's cost does not
depend on how the seed happened to align the buckets.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeType, Schema

#: Characters of a string join key and the key length: 26**8 keys.
KEY_ALPHABET = string.ascii_lowercase
KEY_CHARS = 8
PAYLOAD_ALPHABET = string.ascii_letters + string.digits
PAYLOAD_CHARS = 8
KEY_TYPES = {"int": AttributeType.INT, "string": AttributeType.STRING}


@dataclass(frozen=True)
class RelationPair:
    """R1 and R2 over join attribute ``k``, plus the row the writes toggle."""

    relation_1: Relation
    relation_2: Relation
    shared: tuple
    #: A row of R1 that is not in R1: writes insert it, then delete it.
    write_row: tuple


def _word(code: int) -> str:
    letters = []
    for _ in range(KEY_CHARS):
        code, digit = divmod(code, len(KEY_ALPHABET))
        letters.append(KEY_ALPHABET[digit])
    return "".join(letters)


def join_values(rng: random.Random, count: int, key_type: str) -> list:
    """``count`` distinct join values, drawn as one sample."""
    if key_type == "int":
        return rng.sample(range(max(10 * count, 100)), count)
    if key_type == "string":
        codes = rng.sample(range(len(KEY_ALPHABET) ** KEY_CHARS), count)
        return [_word(code) for code in codes]
    raise ValueError(f"unknown key type {key_type!r}")


def _interleaved(counts: list[int]) -> list[int]:
    """Class labels spread evenly: class ``c`` appears ``counts[c]`` times."""
    slots = sorted(
        ((position + 0.5) / count, label)
        for label, count in enumerate(counts)
        for position in range(count)
    )
    return [label for _, label in slots]


def _payload(rng: random.Random, width: int = PAYLOAD_CHARS) -> str:
    return "".join(rng.choices(PAYLOAD_ALPHABET, k=width))


def _relation(name: str, key_type: str, values: list, rows_per_value: int,
              rng: random.Random) -> Relation:
    schema = Schema(name, [
        Attribute("k", KEY_TYPES[key_type]),
        Attribute(f"{name.lower()}_p0", AttributeType.STRING),
    ])
    rows = [
        (value, _payload(rng)) for value in values for _ in range(rows_per_value)
    ]
    return Relation(schema, rows)


def relation_pair(domain: int, overlap: int, rows_per_value: int,
                  key_type: str, seed: int) -> RelationPair:
    """Two relations with ``domain`` join values each, ``overlap`` shared."""
    if not 0 < overlap <= domain:
        raise ValueError("need 0 < overlap <= domain")
    rng = random.Random(seed)
    values = sorted(join_values(rng, 2 * domain - overlap, key_type))
    sides: tuple[list, list, list] = ([], [], [])
    for value, label in zip(values, _interleaved(
            [overlap, domain - overlap, domain - overlap])):
        sides[label].append(value)
    shared, only_1, only_2 = sides
    relation_1 = _relation("R1", key_type, shared + only_1, rows_per_value, rng)
    relation_2 = _relation("R2", key_type, shared + only_2, rows_per_value, rng)
    # One character wider than every generated payload, so never present.
    write_row = (shared[0], _payload(rng, PAYLOAD_CHARS + 1))
    return RelationPair(relation_1, relation_2, tuple(shared), write_row)
