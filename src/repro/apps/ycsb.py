"""YCSB-style workload generator (Table VI).

Generates the four operation mixes the paper runs against SQLite, with
a uniform random request distribution as stated in the table caption:

* 100 % INSERT
* 50 % SELECT / 50 % UPDATE
* 95 % SELECT /  5 % UPDATE
* 100 % SELECT

Each operation is rendered as a SQL statement against the canonical
``usertable(ycsb_key TEXT PRIMARY KEY, field0 TEXT)`` schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

SCHEMA_SQL = ("CREATE TABLE usertable "
              "(ycsb_key TEXT PRIMARY KEY, field0 TEXT)")

#: The paper's four mixes, in Table VI row order.
MIXES = {
    "100% INSERT": {"insert": 1.0},
    "50% SELECT & 50% UPDATE": {"select": 0.5, "update": 0.5},
    "95% SELECT & 5% UPDATE": {"select": 0.95, "update": 0.05},
    "100% SELECT": {"select": 1.0},
}


@dataclass(frozen=True)
class Operation:
    kind: str   # insert | select | update
    sql: str


def _key(i: int) -> str:
    return f"user{i:08d}"


_LETTERS = "abcdefghijklmnopqrstuvwxyz"

#: ``rng.choice(_LETTERS)`` takes the top 5 bits of one 32-bit word and
#: redraws values of 26 or more.  Indexed by a word's top byte ``b``:
#: the letter ``b >> 3`` picks; bytes from 208 up are the rejects.
_TOP_BYTE_LETTER = bytes(ord(_LETTERS[b >> 3]) if b < 208 else 0
                         for b in range(256))
_REJECTED = bytes(range(208, 256))


def _value(rng: random.Random, nbytes: int = 100) -> str:
    """``nbytes`` letters of ``rng.choice(_LETTERS)``, drawn word for
    word: ``getrandbits(32 * need)`` yields the same words, first word
    least significant, so the same string comes out and the generator
    ends in the same state."""
    out = b""
    while len(out) < nbytes:
        need = nbytes - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(_TOP_BYTE_LETTER, _REJECTED)
    return out.decode()


def load_statements(record_count: int, seed: int = 7) -> list[str]:
    """The load phase: schema + ``record_count`` initial inserts."""
    rng = random.Random(seed)
    statements = [SCHEMA_SQL]
    for i in range(record_count):
        statements.append(
            f"INSERT INTO usertable VALUES "
            f"('{_key(i)}', '{_value(rng)}')")
    return statements


def workload(mix_name: str, operation_count: int, record_count: int,
             seed: int = 13) -> Iterator[Operation]:
    """The run phase: ``operation_count`` ops drawn from a mix, keys
    uniform-random over the loaded records (inserts append new keys)."""
    if mix_name not in MIXES:
        raise ValueError(f"unknown YCSB mix {mix_name!r}")
    mix = MIXES[mix_name]
    rng = random.Random(seed)
    kinds = list(mix)
    weights = [mix[k] for k in kinds]
    next_insert_key = record_count
    for _ in range(operation_count):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "insert":
            sql = (f"INSERT INTO usertable VALUES "
                   f"('{_key(next_insert_key)}', '{_value(rng)}')")
            next_insert_key += 1
        elif kind == "select":
            key = _key(rng.randrange(record_count))
            sql = f"SELECT * FROM usertable WHERE ycsb_key = '{key}'"
        else:
            key = _key(rng.randrange(record_count))
            sql = (f"UPDATE usertable SET field0 = '{_value(rng)}' "
                   f"WHERE ycsb_key = '{key}'")
        yield Operation(kind=kind, sql=sql)
