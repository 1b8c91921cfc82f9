"""SQL tokenizer for minidb.

minidb is the repo's stand-in for SQLite in case study §VI-B / Table VI:
a small but real SQL engine (lexer → recursive-descent parser → executor
with tables and indexes).  This module produces the token stream.

One compiled master regex matches a token (after any whitespace and
``--`` comments) per step, so the base64 ciphertext literals the inner
enclave writes into every rewritten statement cost one C-level scan
instead of a Python loop per character.  The classes follow ``str``:
a digit is anything ``str.isdigit`` accepts, a word starts with
``isalpha()`` or ``_`` and continues with ``isalnum()`` or ``_``.  On
ASCII input ``\\d`` and ``[^\\W\\d]`` are exactly those classes; beyond
ASCII they are not (``²`` is a digit but not ``\\d``, ``½`` is ``\\w``
but cannot start a word), so non-ASCII input uses the same pattern with
exact classes, built from one scan of every code point on first use.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from typing import NamedTuple

from repro.errors import ReproError


class SqlError(ReproError):
    """Any SQL-level failure: syntax, unknown table/column, type clash."""


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE",
    "SET", "DELETE", "CREATE", "TABLE", "AND", "OR", "NOT", "NULL",
    "INTEGER", "TEXT", "REAL", "PRIMARY", "KEY", "ORDER", "BY", "ASC",
    "DESC", "LIMIT", "COUNT", "DROP", "INDEX", "ON", "BEGIN", "COMMIT",
    "ROLLBACK", "SUM", "AVG", "MIN", "MAX", "LIKE",
}

SYMBOLS = ("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", "*",
           ";", ".")


class Token(NamedTuple):
    kind: str       # KEYWORD | IDENT | INT | FLOAT | STRING | SYMBOL | EOF
    value: str
    position: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value!r}"


#: A leading '-' begins a number only where a value can appear: at the
#: start, or after one of these (kind, value) tokens.
_VALUE_AFTER = frozenset(
    [("SYMBOL", s) for s in ("(", ",", "=", "<", ">", "<=", ">=", "!=",
                             "<>")]
    + [("KEYWORD", k) for k in ("VALUES", "WHERE", "AND", "OR", "SET",
                                "LIMIT")])

# Group numbers are what ``tokenize`` dispatches on (``lastindex``).
_STRING, _FLOAT, _INT, _WORD, _SYMBOL, _OTHER = range(1, 7)

_MASTER = r"""
    (?:\s+|--[^\n]*)*                   # whitespace and comments
    (?:
        ('[^']*(?:''[^']*)*')(?!')      # 1 string; '' is a quote
      | (-?{digit}+\.{digit}*)          # 2 float: one '.'
      | (-?{digit}+)                    # 3 int
      | ({word_start}\w*)               # 4 keyword or identifier
      | ({symbols})                     # 5 symbol, longest first
      | (.)                             # 6 anything else: an error
    )?                                  # none: end of input
"""


def _compile(digit: str, word_start: str) -> re.Pattern:
    symbols = "|".join(re.escape(s) for s in
                       sorted(SYMBOLS, key=len, reverse=True))
    return re.compile(_MASTER.format(digit=digit, word_start=word_start,
                                     symbols=symbols),
                      re.VERBOSE | re.DOTALL)


_ASCII = _compile(r"\d", r"[^\W\d]")


@lru_cache(maxsize=None)
def _unicode() -> re.Pattern:
    """The master with exact ``isdigit``/``isalpha`` classes.  ``\\s``
    and ``\\w`` already equal ``isspace`` and ``isalnum() or '_'`` on
    every code point; ``\\d`` misses the non-decimal digits and
    ``[^\\W\\d]`` admits the other non-alphabetic numerics."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    digits = re.sub(r"\d", "", "".join(filter(str.isdigit, every)))
    numerics = "".join(c for c in re.findall(r"[^\W\d]", every)
                       if not c.isalpha() and c != "_")
    return _compile(rf"[\d{digits}]", rf"[^\W\d{numerics}]")


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    master = _ASCII if sql.isascii() else _unicode()
    for match in master.finditer(sql):
        group = match.lastindex
        if group is None:
            break
        text = match[group]
        position = match.start(group)
        if group == _WORD:
            upper = text.upper()
            if upper in KEYWORDS:
                append(new(Token, ("KEYWORD", upper, position)))
            else:
                append(new(Token, ("IDENT", text, position)))
        elif group == _SYMBOL:
            append(new(Token, ("SYMBOL", text, position)))
        elif group == _STRING:
            append(new(Token, ("STRING", text[1:-1].replace("''", "'"),
                               position)))
        elif group != _OTHER:
            if text[0] == "-" and tokens \
                    and tokens[-1][:2] not in _VALUE_AFTER:
                raise SqlError(f"unexpected character '-' at {position}")
            append(new(Token, ("FLOAT" if group == _FLOAT else "INT",
                               text, position)))
        elif text == "'":
            raise SqlError(f"unterminated string at {position}")
        else:
            raise SqlError(f"unexpected character {text!r} at {position}")
    append(new(Token, ("EOF", "", len(sql))))
    return tokens
