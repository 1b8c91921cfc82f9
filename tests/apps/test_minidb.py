"""minidb SQL engine tests: lexer, parser, executor, indexes,
transactions."""

import ast as python_ast
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.minidb import Database, SqlError, parse, tokenize
from repro.apps.minidb import ast_nodes as ast
from repro.apps.minidb import parser as parser_module
from repro.apps.minidb.lexer import KEYWORDS, SYMBOLS, Token


def reference_tokenize(sql: str) -> list[Token]:
    """The character-loop tokenizer the master regex replaced, kept as
    the oracle for tokens, error messages and positions."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql[i:i + 2] == "--":      # comment to EOL
            while i < n and sql[i] != "\n":
                i += 1
            continue
        if ch == "'":                               # string literal
            j = i + 1
            chunks = []
            while True:
                if j >= n:
                    raise SqlError(f"unterminated string at {i}")
                if sql[j] == "'":
                    if sql[j:j + 2] == "''":        # escaped quote
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(sql[j])
                j += 1
            tokens.append(Token("STRING", "".join(chunks), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit()
                            and _reference_number_context(tokens)):
            j = i + 1
            is_float = False
            while j < n and (sql[j].isdigit() or sql[j] == "."):
                if sql[j] == ".":
                    if is_float:
                        break
                    is_float = True
                j += 1
            text = sql[i:j]
            tokens.append(Token("FLOAT" if is_float else "INT", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = j
            continue
        for sym in SYMBOLS:
            if sql.startswith(sym, i):
                tokens.append(Token("SYMBOL", sym, i))
                i += len(sym)
                break
        else:
            raise SqlError(f"unexpected character {ch!r} at {i}")
    tokens.append(Token("EOF", "", n))
    return tokens


def _reference_number_context(tokens: list[Token]) -> bool:
    """A leading '-' begins a number only where a value can appear."""
    if not tokens:
        return True
    prev = tokens[-1]
    return (prev.kind == "SYMBOL" and prev.value in ("(", ",", "=", "<",
                                                     ">", "<=", ">=",
                                                     "!=", "<>")) \
        or (prev.kind == "KEYWORD" and prev.value in ("VALUES", "WHERE",
                                                      "AND", "OR", "SET",
                                                      "LIMIT"))


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, "
        "score REAL)")
    database.execute("INSERT INTO users VALUES (1, 'alice', 9.5)")
    database.execute("INSERT INTO users VALUES (2, 'bob', 7.0)")
    database.execute("INSERT INTO users VALUES (3, 'carol', 8.25)")
    return database


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT * FROM t WHERE x = 1")
        kinds = [t.kind for t in tokens]
        assert kinds == ["KEYWORD", "SYMBOL", "KEYWORD", "IDENT",
                         "KEYWORD", "IDENT", "SYMBOL", "INT", "EOF"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("INSERT INTO t VALUES ('o''brien')")
        strings = [t for t in tokens if t.kind == "STRING"]
        assert strings[0].value == "o'brien"

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("SELECT 'oops")

    def test_negative_numbers_in_value_position(self):
        tokens = tokenize("INSERT INTO t VALUES (-5, -2.5)")
        numbers = [t.value for t in tokens if t.kind in ("INT", "FLOAT")]
        assert numbers == ["-5", "-2.5"]

    def test_comments_ignored(self):
        tokens = tokenize("SELECT * FROM t -- trailing comment\n")
        assert tokens[-1].kind == "EOF"
        assert len(tokens) == 5

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select * from t")
        assert tokens[0].kind == "KEYWORD" and tokens[0].value == "SELECT"

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("SELECT @ FROM t")


class TestLexerMatchesReference:
    """``tokenize`` against ``reference_tokenize``: the same (kind, value,
    position) list, or the same ``SqlError`` message."""

    PIECES = ("SELECT", "select", "FROM", "WHERE", "VALUES", "LIMIT",
              "AND", "x", "_y9", "é", "ß", "0", "7", "12", ".", "-",
              "--", "'", "''", "'a'", " ", "\n", "\t", "\x1c", "(", ")",
              ",", "=", "<", ">", "<=", ">=", "!=", "<>", "!", "*", ";",
              "@", "²", "½", "١", "enc:QUJD+/==")

    @staticmethod
    def _outcome(tokenizer, sql: str):
        try:
            return [(t.kind, t.value, t.position) for t in tokenizer(sql)]
        except SqlError as exc:
            return str(exc)

    def _check(self, sql: str) -> None:
        assert self._outcome(tokenize, sql) \
            == self._outcome(reference_tokenize, sql), repr(sql)

    @pytest.mark.parametrize("sql", [
        "'abc''", "''''", "1.2.3", "1..2", "--x\n1", "-5", "(-5", "x -5",
        "x = -5", "LIMIT -5", "²", "1²", "½", "x½", "é", "\x1c", "", "'",
        "--", "a'b''c'd", "SELECT 'oops"])
    def test_pinned(self, sql):
        self._check(sql)

    def test_pinned_outcomes(self):
        with pytest.raises(SqlError, match="^unterminated string at 0$"):
            tokenize("'abc''")
        assert tokenize("''''")[0] == Token("STRING", "'", 0)
        assert [t.value for t in tokenize("1.2.3")] == ["1.2", ".", "3", ""]
        assert [t.value for t in tokenize("1..2")] == ["1.", ".", "2", ""]
        assert tokenize("--x\n1")[0] == Token("INT", "1", 4)
        assert tokenize("(-5")[1] == Token("INT", "-5", 1)
        with pytest.raises(SqlError, match="^unexpected character '-' at 2$"):
            tokenize("x -5")
        assert tokenize("²")[0] == Token("INT", "²", 0)
        with pytest.raises(SqlError, match="^unexpected character '½' at 0$"):
            tokenize("½")
        assert tokenize("é")[0] == Token("IDENT", "é", 0)
        assert tokenize("\x1c") == [Token("EOF", "", 1)]

    @given(st.text())
    @settings(max_examples=400, deadline=None)
    def test_any_text(self, sql):
        self._check(sql)

    @given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
    @settings(max_examples=600, deadline=None)
    def test_sql_shaped(self, sql):
        self._check(sql)

    def test_every_code_point_where_ascii_classes_differ(self):
        """Beyond ASCII, ``\\d`` misses digits and ``[^\\W\\d]`` admits
        non-alphabetic numerics; try each such code point in every
        position a class decides."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        digits = set(filter(str.isdigit, every)) \
            - set(re.findall(r"\d", every))
        numerics = {c for c in re.findall(r"[^\W\d]", every)
                    if not c.isalpha() and c != "_"}
        assert digits and digits <= numerics
        for c in sorted(numerics):
            for sql in (c, "a" + c, "1" + c, "1." + c, "(-" + c, c + "a"):
                self._check(sql)

    def test_regex_classes_are_the_str_predicates(self):
        """The master regex relies on ``\\s`` and ``\\w`` being exactly
        ``isspace`` and ``isalnum() or '_'`` on every code point."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\s", every)) \
            == set(filter(str.isspace, every))
        assert set(re.findall(r"\w", every)) \
            == set(filter(str.isalnum, every)) | {"_"}

    def test_test_file_corpora(self):
        """Every string constant in the minidb test files."""
        for path in sorted(Path(__file__).parent.glob("test_minidb*.py")):
            tree = python_ast.parse(path.read_text(encoding="utf-8"))
            for node in python_ast.walk(tree):
                if isinstance(node, python_ast.Constant) \
                        and isinstance(node.value, str):
                    self._check(node.value)

    @staticmethod
    def _statements(monkeypatch, run) -> set:
        """Every statement ``parse`` saw during ``run()``: originals in
        the inner enclave, base64-rewritten ones in the database."""
        seen = set()
        real = parser_module.tokenize

        def recording(sql):
            seen.add(sql)
            return real(sql)

        monkeypatch.setattr(parser_module, "tokenize", recording)
        run()
        monkeypatch.undo()
        return seen

    def test_table6_quick_run(self, monkeypatch):
        from repro.experiments.registry import specs
        statements = self._statements(monkeypatch, specs()["table6"].quick)
        assert any("enc:" in sql for sql in statements)
        for sql in statements:
            self._check(sql)

    def test_ycsb_bench_run(self, monkeypatch):
        workloads = pytest.importorskip("bench.workloads")

        def run():
            workload = workloads.Ycsb(seed=1)
            for i in range(40):
                inp = workload.next_input(i)
                assert workload.check(inp, workload.op(inp))

        statements = self._statements(monkeypatch, run)
        assert any("enc:" in sql for sql in statements)
        for sql in statements:
            self._check(sql)


class TestTokens:
    def test_token_is_an_immutable_tuple(self):
        token = tokenize("x")[0]
        assert token == ("IDENT", "x", 0)
        assert repr(token) == "IDENT:'x'"
        with pytest.raises(AttributeError):
            token.value = "y"


class TestNonDecimalDigits:
    """``str.isdigit`` takes digits such as ``²`` that ``int``/``float``
    refuse: the lexer keeps them (as the reference does), and the parser
    raises a typed error at the token instead of a bare ValueError."""

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t LIMIT ²",
        "INSERT INTO t VALUES (1²)",
        "INSERT INTO t VALUES (1.2²)",
    ])
    def test_sql_error_at_the_token(self, sql):
        with pytest.raises(SqlError, match=r"^bad number '.*²' at 22$"):
            parse(sql)

    def test_database_reports_it_as_sql_error(self, db):
        with pytest.raises(SqlError):
            db.execute("INSERT INTO users VALUES (4², 'dave', 1.0)")


class TestParser:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].type_name == "TEXT"

    def test_two_primary_keys_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE TABLE t (a INTEGER PRIMARY KEY, "
                  "b INTEGER PRIMARY KEY)")

    def test_select_with_everything(self):
        stmt = parse("SELECT a, b FROM t WHERE a > 1 AND b = 'x' "
                     "ORDER BY a DESC LIMIT 5")
        assert stmt.columns == ("a", "b")
        assert isinstance(stmt.where, ast.BoolExpr)
        assert stmt.order_by == "a" and stmt.descending
        assert stmt.limit == 5

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        assert stmt.count

    def test_parenthesised_predicates(self):
        stmt = parse("SELECT * FROM t WHERE (a = 1 OR a = 2) AND b < 3")
        assert isinstance(stmt.where, ast.BoolExpr)
        assert stmt.where.op == "AND"
        assert stmt.where.left.op == "OR"

    def test_ne_spellings(self):
        for spelling in ("!=", "<>"):
            stmt = parse(f"SELECT * FROM t WHERE a {spelling} 1")
            assert stmt.where.op == "!="

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM t garbage")

    def test_unsupported_statement(self):
        with pytest.raises(SqlError):
            parse("VACUUM")

    def test_null_literal(self):
        stmt = parse("INSERT INTO t VALUES (1, NULL)")
        assert stmt.values == (1, None)


class TestExecutor:
    def test_select_star(self, db):
        rows = db.execute("SELECT * FROM users ORDER BY id")
        assert rows == [(1, "alice", 9.5), (2, "bob", 7.0),
                        (3, "carol", 8.25)]

    def test_projection(self, db):
        assert db.execute("SELECT name FROM users WHERE id = 2") \
            == [("bob",)]

    def test_where_combinations(self, db):
        rows = db.execute("SELECT id FROM users WHERE score >= 8.0 "
                          "AND name != 'alice'")
        assert rows == [(3,)]
        rows = db.execute("SELECT id FROM users WHERE id = 1 OR id = 3")
        assert rows == [(1,), (3,)]

    def test_order_and_limit(self, db):
        rows = db.execute("SELECT name FROM users ORDER BY score DESC "
                          "LIMIT 2")
        assert rows == [("alice",), ("carol",)]

    def test_count(self, db):
        assert db.execute("SELECT COUNT(*) FROM users") == [(3,)]
        assert db.execute(
            "SELECT COUNT(*) FROM users WHERE score < 8") == [(1,)]

    def test_update_returns_affected(self, db):
        assert db.execute("UPDATE users SET score = 1.0 "
                          "WHERE score < 9") == 2
        assert db.execute("SELECT COUNT(*) FROM users "
                          "WHERE score = 1.0") == [(2,)]

    def test_delete(self, db):
        assert db.execute("DELETE FROM users WHERE id = 2") == 1
        assert db.execute("SELECT COUNT(*) FROM users") == [(2,)]

    def test_duplicate_primary_key_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("INSERT INTO users VALUES (1, 'dup', 0.0)")

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("INSERT INTO users VALUES ('one', 'x', 0.0)")

    def test_int_coerced_to_real(self, db):
        db.execute("INSERT INTO users VALUES (4, 'dave', 5)")
        assert db.execute("SELECT score FROM users WHERE id = 4") \
            == [(5.0,)]

    def test_unknown_table(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT nope FROM users")

    def test_null_handling(self, db):
        db.execute("INSERT INTO users VALUES (5, NULL, NULL)")
        assert db.execute("SELECT name FROM users WHERE id = 5") \
            == [(None,)]
        # NULL never satisfies ordering comparisons.
        rows = db.execute("SELECT id FROM users WHERE score > 0")
        assert (5,) not in rows

    def test_drop_table(self, db):
        db.execute("DROP TABLE users")
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM users")


class TestIndexes:
    def test_pk_lookup_uses_index(self, db):
        table = db.table("users")
        # Sanity: the PK index exists and the planner uses it (no scan).
        assert "id" in table.indexes
        rows = db.execute("SELECT name FROM users WHERE id = 3")
        assert rows == [("carol",)]

    def test_secondary_index_consistency(self, db):
        db.execute("CREATE INDEX idx_name ON users (name)")
        db.execute("INSERT INTO users VALUES (10, 'bob', 2.0)")
        rows = db.execute("SELECT id FROM users WHERE name = 'bob'")
        assert sorted(rows) == [(2,), (10,)]
        db.execute("UPDATE users SET name = 'robert' WHERE id = 2")
        rows = db.execute("SELECT id FROM users WHERE name = 'bob'")
        assert rows == [(10,)]
        db.execute("DELETE FROM users WHERE name = 'bob'")
        assert db.execute("SELECT id FROM users WHERE name = 'bob'") == []

    def test_duplicate_index_rejected(self, db):
        db.execute("CREATE INDEX i1 ON users (name)")
        with pytest.raises(SqlError):
            db.execute("CREATE INDEX i2 ON users (name)")

    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.sampled_from("abcde")),
                    min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_index_matches_scan_property(self, pairs):
        """Indexed equality lookups agree with full scans."""
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        db.execute("CREATE INDEX iv ON t (v)")
        inserted = set()
        for key, value in pairs:
            if key in inserted:
                continue
            inserted.add(key)
            db.execute(f"INSERT INTO t VALUES ({key}, '{value}')")
        for value in "abcde":
            indexed = db.execute(f"SELECT k FROM t WHERE v = '{value}'")
            table = db.table("t")
            scan = sorted(
                (row[0],) for row in table.rows.values()
                if row[1] == value)
            assert sorted(indexed) == scan


class TestTransactions:
    def test_rollback_restores(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM users WHERE id = 1")
        db.execute("UPDATE users SET name = 'x' WHERE id = 2")
        db.execute("ROLLBACK")
        assert db.execute("SELECT name FROM users WHERE id = 1") \
            == [("alice",)]
        assert db.execute("SELECT name FROM users WHERE id = 2") \
            == [("bob",)]

    def test_commit_keeps(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM users WHERE id = 1")
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM users") == [(2,)]

    def test_nested_transaction_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(SqlError):
            db.execute("BEGIN")

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("COMMIT")

    def test_rollback_restores_indexes_too(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM users WHERE id = 2")
        db.execute("ROLLBACK")
        # Index-driven lookup still finds the restored row.
        assert db.execute("SELECT name FROM users WHERE id = 2") \
            == [("bob",)]
