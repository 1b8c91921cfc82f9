"""SQLite-service port (case study §VI-B, Table VI).

"A shared SQLite service runs in an outer enclave.  A client sends
queries to an inner enclave, the inner enclave parses the queries and
encrypts data, and the inner enclave sends query requests to the SQLite
service."

* ``MonolithicDbService`` — client front end and minidb in one enclave.
* ``NestedDbService``    — minidb in the outer enclave; one inner
  enclave per client that (a) receives the client's GCM-sealed query,
  (b) parses/validates it, (c) encrypts the privacy-sensitive literal
  values with the client's storage key before they leave the inner
  enclave, and (d) forwards the rewritten query to the shared service.

The value encryption in step (c) is the "inner enclave … encrypts data"
of the paper: the shared database only ever stores ciphertext for
client values, so neither the DB library nor other tenants can read
them; the inner enclave decrypts result rows on the way back.

Result cells cross the outer→inner boundary as ``repr`` text and come
back through ``ast.literal_eval``, never ``eval``: the inner enclave
trusts the shared service with ciphertext, not with code, so a cell
that is not a plain literal is a :class:`SqlError`.
"""

from __future__ import annotations

import base64
import re
from ast import literal_eval

from repro.apps.minidb import Database, SqlError, parse
from repro.apps.minidb import ast_nodes as ast
from repro.apps.ports import handle_state
from repro.crypto.gcm import AesGcm
from repro.errors import CryptoError, SdkError
from repro.perf.costmodel import NET_ROUND_TRIP_DB_NS
from repro.sdk import EnclaveBuilder, EnclaveHost, parse_edl
from repro.sdk.builder import developer_key

DB_EDL = """
enclave {
    trusted {
        public bytes db_execute(bytes sql);
    };
};
"""

CLIENT_EDL = """
enclave {
    trusted {
        public bytes query(bytes sealed_sql);
    };
    nested_untrusted {
        bytes db_execute(bytes sql);
    };
};
"""

MONO_EDL = """
enclave {
    trusted {
        public bytes query(bytes sealed_sql);
    };
};
"""


# -- shared service state ------------------------------------------------------

_DATABASES: dict[int, Database] = {}


def _db_for(ctx) -> Database:
    db = _DATABASES.get(id(ctx.handle))
    if db is None:
        db = handle_state(_DATABASES, ctx.handle,
                          Database(cost_model=ctx.host.machine.cost))
    return db


def _encode_result(result) -> bytes:
    """Flatten an execute() result into bytes for the call boundary."""
    if result is None:
        return b"OK"
    if isinstance(result, int):
        return f"COUNT {result}".encode()
    lines = []
    for row in result:
        lines.append("\x1f".join("NULL" if v is None else repr(v)
                                 for v in row))
    return ("ROWS\n" + "\n".join(lines)).encode()


#: ``repr`` of a str with nothing to unescape: a quote, then no quote,
#: backslash, control character or surrogate, then a quote.  For such a
#: cell ``literal_eval`` returns the text between the quotes (checked on
#: every code point), so it skips the Python parser.
_PLAIN_STR = re.compile(r"'[^'\\\x00-\x1f\x7f\ud800-\udfff]*'")


def _literal(text: str):
    """One result cell: a Python literal, or a typed error."""
    if _PLAIN_STR.fullmatch(text):
        return text[1:-1]
    try:
        return literal_eval(text)
    except (ValueError, TypeError, SyntaxError, MemoryError,
            RecursionError):
        raise SqlError(f"result cell is not a literal: {text[:40]!r}") \
            from None


def decode_result(raw: bytes):
    """Inverse of the service's wire encoding (client-side helper)."""
    text = raw.decode()
    if text == "OK":
        return None
    if text.startswith("COUNT "):
        return int(text[6:])
    assert text.startswith("ROWS")
    body = text[5:]
    rows = []
    if body:
        for line in body.split("\n"):
            row = tuple(None if cell == "NULL" else _literal(cell)
                        for cell in line.split("\x1f"))
            rows.append(row)
    return rows


def _db_execute(ctx, sql: bytes) -> bytes:
    db = _db_for(ctx)
    return _encode_result(db.execute(sql.decode()))


# -- client-side (inner-enclave) query rewriting ------------------------------

class _TenantConfig:
    key: bytes = bytes(16)
    encrypt_values: bool = True


_TENANTS: dict[int, _TenantConfig] = {}


def _seal_value(gcm: AesGcm, value) -> str:
    """Deterministically encrypt one literal so equality predicates still
    match (classic deterministic-encryption tradeoff, fine for keys)."""
    raw = repr(value).encode()
    import hashlib
    nonce = hashlib.sha256(raw).digest()[:12]
    sealed = gcm.seal(nonce, raw)
    return "enc:" + base64.b64encode(nonce + sealed).decode()


def _open_value(gcm: AesGcm, stored):
    if not isinstance(stored, str) or not stored.startswith("enc:"):
        return stored
    blob = base64.b64decode(stored[4:])
    try:
        raw = gcm.open(blob[:12], blob[12:])
    except CryptoError:
        # Another tenant's ciphertext: this tenant's key cannot open
        # it, so the cell stays opaque — the isolation property.
        return stored
    return _literal(raw.decode())


def _rewrite_sql(gcm: AesGcm, sql: str, machine) -> str:
    """Encrypt string literals in INSERT/UPDATE/WHERE positions."""
    statement = parse(sql)
    machine.cost.charge_work(5)

    def seal(v):
        if isinstance(v, str):
            machine.cost.charge_gcm(len(v))
            return _seal_value(gcm, v)
        return v

    def rewrite_pred(p):
        if p is None:
            return ""
        if isinstance(p, ast.Comparison):
            value = seal(p.value)
            rendered = f"'{value}'" if isinstance(value, str) else value
            return f"{p.column} {p.op} {rendered}"
        return (f"({rewrite_pred(p.left)}) {p.op} "
                f"({rewrite_pred(p.right)})")

    if isinstance(statement, ast.Insert):
        rendered = ", ".join(
            f"'{seal(v)}'" if isinstance(v, str) else str(v)
            for v in statement.values)
        return f"INSERT INTO {statement.table} VALUES ({rendered})"
    if isinstance(statement, ast.Update):
        sets = ", ".join(
            f"{c} = " + (f"'{seal(v)}'" if isinstance(v, str) else str(v))
            for c, v in statement.assignments)
        where = rewrite_pred(statement.where)
        suffix = f" WHERE {where}" if where else ""
        return f"UPDATE {statement.table} SET {sets}{suffix}"
    if isinstance(statement, (ast.Select, ast.Delete)):
        verb = ("SELECT " + ("COUNT(*)" if getattr(statement, "count",
                                                   False)
                             else ",".join(statement.columns))
                + f" FROM {statement.table}") \
            if isinstance(statement, ast.Select) \
            else f"DELETE FROM {statement.table}"
        where = rewrite_pred(statement.where)
        if where:
            verb += f" WHERE {where}"
        if isinstance(statement, ast.Select):
            if statement.order_by:
                verb += f" ORDER BY {statement.order_by}"
                if statement.descending:
                    verb += " DESC"
            if statement.limit is not None:
                verb += f" LIMIT {statement.limit}"
        return verb
    return sql  # DDL passes through


def _decrypt_rows(gcm: AesGcm, result, machine):
    if not isinstance(result, list):
        return result
    out = []
    for row in result:
        out.append(tuple(_open_value(gcm, v) for v in row))
        machine.cost.charge_work(len(row))
    return out


def _open_sealed_sql(ctx, sealed: bytes) -> str:
    config = _TENANTS[id(ctx.handle)]
    gcm = AesGcm(config.key)
    ctx.host.machine.cost.charge_gcm(max(len(sealed) - 28, 0))
    return gcm.open(sealed[:12], sealed[12:]).decode()


def _nested_query(ctx, sealed_sql: bytes) -> bytes:
    config = _TENANTS[id(ctx.handle)]
    gcm = AesGcm(config.key)
    sql = _open_sealed_sql(ctx, sealed_sql)
    rewritten = _rewrite_sql(gcm, sql, ctx.host.machine) \
        if config.encrypt_values else sql
    raw = ctx.n_ocall("db_execute", rewritten.encode())
    result = decode_result(raw)
    return _encode_result(_decrypt_rows(gcm, result, ctx.host.machine))


def _mono_query(ctx, sealed_sql: bytes) -> bytes:
    """Monolithic: parse and execute locally, same enclave as the DB."""
    config = _TENANTS[id(ctx.handle)]
    gcm = AesGcm(config.key)
    sql = _open_sealed_sql(ctx, sealed_sql)
    rewritten = _rewrite_sql(gcm, sql, ctx.host.machine) \
        if config.encrypt_values else sql
    db = _db_for(ctx)
    result = db.execute(rewritten)
    return _encode_result(_decrypt_rows(gcm, _to_plain(result), ctx.host.machine))


def _to_plain(result):
    if result is None or isinstance(result, int):
        return result
    return [tuple(row) for row in result]


# -- deployments ---------------------------------------------------------------

#: Client→service delivery cost per query (socket syscalls), as in the
#: echo deployment (calibrated in repro.perf.costmodel).
NET_ROUND_TRIP_NS = NET_ROUND_TRIP_DB_NS


class DbClientSession:
    """Client: seals SQL under its key, decodes results."""

    def __init__(self, handle, key: bytes) -> None:
        self.handle = handle
        self._gcm = AesGcm(key)
        self._nonce = 0

    def execute(self, sql: str):
        nonce = self._nonce.to_bytes(12, "little")
        self._nonce += 1
        sealed = nonce + self._gcm.seal(nonce, sql.encode())
        machine = self.handle.host.machine
        machine.cost.charge("net", NET_ROUND_TRIP_NS)
        return decode_result(self.handle.ecall("query", sealed))


class NestedDbService:
    """minidb in an outer enclave; one inner enclave per tenant."""

    def __init__(self, host: EnclaveHost, *,
                 encrypt_values: bool = True) -> None:
        self.host = host
        self.encrypt_values = encrypt_values
        key = developer_key("db-service")
        builder = EnclaveBuilder("db-lib", parse_edl(DB_EDL, name="db"),
                                 signing_key=key)
        builder.add_entry("db_execute", _db_execute)
        from repro.sgx.sigstruct import ANY_MRENCLAVE
        from repro.sgx.measure import mrsigner_of
        builder.expect_peer(ANY_MRENCLAVE,
                            mrsigner_of(key.public_key.to_bytes()))
        self.library = host.load(builder.build())
        self.tenants: list[DbClientSession] = []

    def add_tenant(self, tenant_key: bytes) -> DbClientSession:
        key = developer_key("db-service")
        builder = EnclaveBuilder(
            f"db-tenant-{len(self.tenants)}",
            parse_edl(CLIENT_EDL, name="tenant"), signing_key=key)
        builder.add_entry("query", _nested_query)
        builder.expect_peer(self.library.image.sigstruct.expected_mrenclave,
                            self.library.image.sigstruct.mrsigner)
        handle = self.host.load(builder.build())
        self.host.associate(handle, self.library)
        config = _TenantConfig()
        config.key = tenant_key
        config.encrypt_values = self.encrypt_values
        handle_state(_TENANTS, handle, config)
        session = DbClientSession(handle, tenant_key)
        self.tenants.append(session)
        return session

    def stored_cells(self) -> list:
        """Every value physically stored by the shared DB (attack
        surface: what the library/other tenants could read)."""
        db = _DATABASES.get(id(self.library))
        if db is None:
            return []
        return [value for table in db.tables.values()
                for row in table.rows.values() for value in row]


class MonolithicDbService:
    """Baseline: client front end + minidb in one enclave per tenant."""

    def __init__(self, host: EnclaveHost, *,
                 encrypt_values: bool = True) -> None:
        self.host = host
        self.encrypt_values = encrypt_values
        self.tenants: list[DbClientSession] = []
        self.handles: list = []

    def add_tenant(self, tenant_key: bytes) -> DbClientSession:
        builder = EnclaveBuilder(
            f"db-mono-{len(self.tenants)}",
            parse_edl(MONO_EDL, name="mono-tenant"),
            signing_key=developer_key("db-service"))
        builder.add_entry("query", _mono_query)
        handle = self.host.load(builder.build())
        config = _TenantConfig()
        config.key = tenant_key
        config.encrypt_values = self.encrypt_values
        handle_state(_TENANTS, handle, config)
        session = DbClientSession(handle, tenant_key)
        self.tenants.append(session)
        self.handles.append(handle)
        return session
