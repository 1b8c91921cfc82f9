"""Integration tests for the ML-service, DB-service, fastcomm and
library-sharing ports (case studies VI-B / VI-C)."""

import gc
import hashlib
from ast import literal_eval

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.minidb import SqlError
from repro.apps.minissl.client import SslClient
from repro.apps.ports import dbservice, echo, mlservice
from repro.apps.ports.dbservice import (MonolithicDbService,
                                        NestedDbService)
from repro.apps.ports.echo import MonolithicEchoServer, NestedEchoServer
from repro.apps.ports.fastcomm import (GcmChannelDeployment,
                                       NestedChannelDeployment)
from repro.apps.ports.mlservice import (MonolithicMlService,
                                        NestedMlService, pack_matrix,
                                        unpack_matrix)
from repro.apps.ports.sharing import (baseline_combined,
                                      baseline_separate, nested_shared)
from repro.core import NestedValidator, audit_machine
from repro.errors import AccessViolation
from repro.os import Kernel
from repro.sdk import EnclaveHost
from repro.sgx import Machine


def fresh_host():
    machine = Machine(validator_cls=NestedValidator)
    return EnclaveHost(machine, Kernel(machine))


def key_for(name: bytes) -> bytes:
    return hashlib.sha256(name).digest()[:16]


class TestMatrixCodec:
    def test_roundtrip_with_labels(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        y = np.array([1, 2, 1])
        x2, y2 = unpack_matrix(pack_matrix(x, y))
        assert np.array_equal(x, x2) and np.array_equal(y, y2)

    def test_roundtrip_without_labels(self):
        x = np.ones((2, 5))
        x2, y2 = unpack_matrix(pack_matrix(x))
        assert np.array_equal(x, x2) and y2 is None


class TestMlService:
    def _data(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(2, 1, (15, 5)),
                       rng.normal(-2, 1, (15, 5))])
        y = np.array([1] * 15 + [2] * 15)
        return x, y

    def test_nested_train_predict(self):
        service = NestedMlService(fresh_host(), private_columns=1)
        client = service.add_client(key_for(b"a"))
        x, y = self._data()
        model_id = client.train(x, y)
        labels = client.predict(model_id, x)
        assert np.mean(labels == y) > 0.9

    def test_two_clients_two_inner_enclaves(self):
        service = NestedMlService(fresh_host())
        a = service.add_client(key_for(b"a"))
        b = service.add_client(key_for(b"b"))
        assert a.handle.eid != b.handle.eid
        assert a.handle.outer is b.handle.outer is service.library

    def test_nested_sanitises_monolithic_does_not(self):
        x, y = self._data()
        nested = NestedMlService(fresh_host(), private_columns=2)
        nested.add_client(key_for(b"a")).train(x, y)
        assert all(np.all(m[:, :2] == 0.0)
                   for m in nested.library_observed())

        mono = MonolithicMlService(fresh_host(), private_columns=2)
        mono.add_client(key_for(b"a")).train(x, y)
        assert any(np.any(m[:, :2] != 0.0)
                   for m in mono.library_observed())

    def test_wrong_client_key_rejected(self):
        from repro.errors import CryptoError
        service = NestedMlService(fresh_host())
        client = service.add_client(key_for(b"a"))
        client._gcm = __import__(
            "repro.crypto.gcm", fromlist=["AesGcm"]).AesGcm(
                key_for(b"wrong"))
        x, y = self._data()
        with pytest.raises(CryptoError):
            client.train(x, y)


#: Flipped only if a result cell from the DB library runs as code.
_ROGUE_CALLS: list = []


def _rogue_db_execute(ctx, sql):
    """A compromised DB library: its reply carries a call, not data."""
    cell = f"__import__('sys').modules[{__name__!r}]._ROGUE_CALLS.append(1)"
    return f"ROWS\n{cell}".encode()


class TestDbService:
    def test_tenant_crud(self):
        service = NestedDbService(fresh_host())
        tenant = service.add_tenant(key_for(b"t"))
        tenant.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        tenant.execute("INSERT INTO t VALUES (1, 'one')")
        tenant.execute("UPDATE t SET v = 'uno' WHERE k = 1")
        assert tenant.execute("SELECT v FROM t WHERE k = 1") \
            == [("uno",)]
        assert tenant.execute("DELETE FROM t WHERE k = 1") == 1

    def test_values_stored_encrypted(self):
        service = NestedDbService(fresh_host())
        tenant = service.add_tenant(key_for(b"t"))
        tenant.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        tenant.execute("INSERT INTO t VALUES (1, 'plaintext-marker')")
        cells = [c for c in service.stored_cells() if isinstance(c, str)]
        assert cells and all(c.startswith("enc:") for c in cells)
        assert not any("plaintext-marker" in c for c in cells)

    def test_deterministic_encryption_preserves_equality(self):
        service = NestedDbService(fresh_host())
        tenant = service.add_tenant(key_for(b"t"))
        tenant.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        tenant.execute("INSERT INTO t VALUES (1, 'dup')")
        tenant.execute("INSERT INTO t VALUES (2, 'dup')")
        tenant.execute("INSERT INTO t VALUES (3, 'other')")
        assert sorted(tenant.execute(
            "SELECT k FROM t WHERE v = 'dup'")) == [(1,), (2,)]

    def test_tenants_isolated_by_keys(self):
        """Tenant B sharing the engine cannot decrypt A's values."""
        service = NestedDbService(fresh_host())
        a = service.add_tenant(key_for(b"a"))
        b = service.add_tenant(key_for(b"b"))
        a.execute("CREATE TABLE s (k INTEGER PRIMARY KEY, v TEXT)")
        a.execute("INSERT INTO s VALUES (1, 'a-secret')")
        rows = b.execute("SELECT v FROM s WHERE k = 1")
        # B reaches the shared table but sees only A's ciphertext (its
        # own key fails to open it, so the cell comes back undecrypted).
        assert rows != [("a-secret",)]

    def test_rogue_library_cannot_run_code_in_tenant(self, monkeypatch):
        """The outer enclave returns result cells to the inner one; they
        are decoded as literals, so a call expression is an error and
        never runs."""
        monkeypatch.setattr(dbservice, "_db_execute", _rogue_db_execute)
        service = NestedDbService(fresh_host())
        tenant = service.add_tenant(key_for(b"t"))
        with pytest.raises(SqlError, match="not a literal"):
            tenant.execute("SELECT v FROM t WHERE k = 1")
        assert _ROGUE_CALLS == []

    def test_monolithic_equivalent_results(self):
        mono = MonolithicDbService(fresh_host())
        tenant = mono.add_tenant(key_for(b"m"))
        tenant.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        tenant.execute("INSERT INTO t VALUES (5, 'val')")
        assert tenant.execute("SELECT v FROM t WHERE k = 5") \
            == [("val",)]


@pytest.mark.filterwarnings("ignore:invalid escape sequence")
class TestResultCells:
    """``dbservice._literal`` decodes a result cell exactly as
    ``ast.literal_eval`` does, its plain-string fast path included, and
    turns every refusal into ``SqlError``."""

    @staticmethod
    def _same_as_literal_eval(cell: str) -> None:
        try:
            expected = ("value", literal_eval(cell))
        except (ValueError, TypeError, SyntaxError, MemoryError,
                RecursionError):
            expected = ("error", None)
        try:
            got = ("value", dbservice._literal(cell))
        except SqlError:
            got = ("error", None)
        assert got == expected, repr(cell)
        if got[0] == "value":
            assert type(got[1]) is type(expected[1])

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        for cell in (repr(text), f"'{text}'", text):
            self._same_as_literal_eval(cell)

    def test_every_ascii_character_in_quotes(self):
        for code in range(128):
            for cell in (f"'{chr(code)}'", f"'a{chr(code)}b'"):
                self._same_as_literal_eval(cell)

    @pytest.mark.parametrize("cell", [
        "'enc:QUJD+/=='", "'it''s'", "'\\x41'", "''", "'\ud800'", "7",
        "-7", "2.5", "1e999", "'a' 'b'", "b'x'", "None", "[1, 2]",
        "print('x')", "__import__('os')", "x"])
    def test_pinned(self, cell):
        self._same_as_literal_eval(cell)


class TestPerHandleState:
    """The ports keep per-enclave state in module-level dicts keyed by
    ``id(handle)``.  An entry must go with its handle: otherwise the dicts
    grow with every deployment, and a recycled id hands a fresh enclave
    a dead one's state."""

    REGISTRIES = (mlservice._LIBRARIES, mlservice._CLIENT_CONFIGS,
                  dbservice._DATABASES, dbservice._TENANTS,
                  echo._SESSIONS, echo._PATCHED)
    X = np.array([[1.0, 1.0], [1.2, 0.8], [-1.0, -1.0], [-0.8, -1.2]])
    Y = np.array([1, 1, 2, 2])

    def _deploy_everything(self) -> list:
        """Use every port on its own host; return the handles' ids."""
        handles = []
        for cls in (NestedMlService, MonolithicMlService):
            service = cls(fresh_host())
            service.add_client(key_for(b"a")).train(self.X, self.Y)
            handles.extend(service.host.handles)
        for cls in (NestedDbService, MonolithicDbService):
            service = cls(fresh_host())
            tenant = service.add_tenant(key_for(b"t"))
            tenant.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
            handles.extend(service.host.handles)
        for cls in (MonolithicEchoServer, NestedEchoServer):
            server = cls(fresh_host())
            client = SslClient(psk=echo._PSK, nonce=bytes(32))
            server.client_finished(client.finish(
                server.accept(client.hello())))
            handles.extend(server.host.handles)
        keys = [id(handle) for handle in handles]
        assert all(any(key in registry for registry in self.REGISTRIES)
                   for key in keys)
        return keys

    def test_collected_handles_leave_every_registry(self):
        keys = self._deploy_everything()
        gc.collect()
        assert not [key for key in keys for registry in self.REGISTRIES
                    if key in registry]

    def test_fresh_service_starts_with_model_one(self):
        """Each service is freed before the next, so its handles' ids
        are free for reuse: none of its state may reach the next one."""
        for _ in range(20):
            service = NestedMlService(fresh_host())
            client = service.add_client(key_for(b"a"))
            assert client.train(self.X, self.Y) == 1
            assert len(service.library_observed()) == 1
            del service, client
            gc.collect()


class TestFastcomm:
    def test_nested_transfer_moves_all_bytes(self):
        deployment = NestedChannelDeployment(fresh_host(),
                                             footprint_bytes=1 << 16)
        elapsed = deployment.transfer(chunk_bytes=128,
                                      total_bytes=16 << 10)
        assert elapsed > 0

    def test_nested_faster_than_gcm_small_chunks(self):
        nested = NestedChannelDeployment(fresh_host(),
                                         footprint_bytes=1 << 16)
        gcm = GcmChannelDeployment(fresh_host(),
                                   footprint_bytes=1 << 16)
        total = 32 << 10
        assert nested.transfer(64, total) < gcm.transfer(64, total)

    def test_gcm_model_matches_real_path_costs(self):
        """model_only charging ~= the genuine sealed-channel charging."""
        real = GcmChannelDeployment(fresh_host(),
                                    footprint_bytes=1 << 16)
        modeled = GcmChannelDeployment(fresh_host(),
                                       footprint_bytes=1 << 16)
        total, chunk = 4 << 10, 512
        t_real = real.transfer(chunk, total, model_only=False)
        t_model = modeled.transfer(chunk, total, model_only=True)
        assert abs(t_real - t_model) / t_real < 0.25

    def test_invariants_after_transfer(self):
        host = fresh_host()
        deployment = NestedChannelDeployment(host,
                                             footprint_bytes=1 << 16)
        deployment.transfer(256, 8 << 10)
        assert audit_machine(host.machine) == []


class TestSharing:
    def test_shared_outer_cheaper_than_baselines(self):
        n, scale = 10, 0.05
        separate = baseline_separate(n, page_scale=scale)
        combined = baseline_combined(n, page_scale=scale)
        shared = nested_shared(n, 1, page_scale=scale)
        assert shared.epc_bytes < combined.epc_bytes
        assert shared.epc_bytes < separate.epc_bytes
        assert shared.load_time_ns < combined.load_time_ns

    def test_full_split_matches_separate_memory(self):
        n, scale = 8, 0.05
        separate = baseline_separate(n, page_scale=scale)
        full = nested_shared(n, n, page_scale=scale)
        assert abs(full.epc_bytes - separate.epc_bytes) \
            <= 4096 * n  # SECS pages etc.

    def test_nasso_count(self):
        shared = nested_shared(6, 2, page_scale=0.05)
        assert shared.nasso_count == 6
