"""The six benchmark workloads.

Each workload stresses one hot layer of the simulator, and for each
layer another workload bypasses it, so a change to that layer should
move one and leave the other alone (see ``bench/README.md`` for the
map).  All drive the simulator through its public APIs as one
closed-loop client: the next operation is issued only after the
previous one returned.

A workload object is built by its constructor (the timed set-up) from a
seed; ``next_input(i)`` derives the inputs of operation ``i`` from that
seed (untimed), ``op(inp)`` runs the operation (timed), ``check(inp,
out)`` is the per-operation oracle (untimed) and ``final_check()`` the
end-of-run oracle.  ``machine`` is the simulated machine whose
fingerprint pins the simulated results.

``checkpoint`` is the operation count after which the machine
fingerprint and every traced count are taken, so they repeat exactly
however many operations a timed run completes.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.apps.minissl.client import SslClient
from repro.apps.minissl.records import CT_APPLICATION
from repro.apps.ports.dbservice import NestedDbService
from repro.apps.ports.echo import NestedEchoServer
from repro.apps.ports.fastcomm import NestedChannelDeployment
from repro.apps.ports.mlservice import NestedMlService
from repro.experiments.common import nested_host
from repro.host.backends import make_backends
from repro.host.loadgen import Arrival, LoadProfile
from repro.host.service import HostConfig, HostService
from repro.perf.fingerprint import bulk_pair
from repro.sdk.builder import developer_key
from repro.sgx.constants import PAGE_SIZE


def _rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _key(seed: int, purpose: str) -> bytes:
    return hashlib.sha256(f"{purpose}:{seed}".encode()).digest()[:16]


class Ycsb:
    """Nested minidb service, one tenant, 100 records preloaded.  Each
    operation is one YCSB-A request pair: an UPDATE and a SELECT on
    independent uniform keys.  Pairs keep the 50/50 statement mix exact
    and every operation alike (a random 50/50 mix puts the median on
    the boundary between the two statements' costs).  Short requests,
    so per-call GCM set-up and the n_ocall into minidb dominate."""

    name = "ycsb"
    checkpoint = 50
    RECORDS = 100
    VALUE_LEN = 100

    def __init__(self, seed: int) -> None:
        self._rng = _rng(seed, "ycsb")
        host = nested_host()
        self.machine = host.machine
        service = NestedDbService(host)
        self.session = service.add_tenant(_key(seed, "ycsb-tenant"))
        self.session.execute("CREATE TABLE usertable "
                             "(ycsb_key TEXT PRIMARY KEY, field0 TEXT)")
        self.shadow: dict[str, str] = {}
        for i in range(self.RECORDS):
            key, value = self._record_key(i), self._value()
            self.session.execute(
                f"INSERT INTO usertable VALUES ('{key}', '{value}')")
            self.shadow[key] = value

    @staticmethod
    def _record_key(i: int) -> str:
        return f"user{i:08d}"

    def _value(self) -> str:
        return "".join(self._rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(self.VALUE_LEN))

    def next_input(self, i: int):
        updated = self._record_key(self._rng.randrange(self.RECORDS))
        value = self._value()
        selected = self._record_key(self._rng.randrange(self.RECORDS))
        return updated, value, selected

    def op(self, inp):
        updated, value, selected = inp
        count = self.session.execute(
            f"UPDATE usertable SET field0 = '{value}' "
            f"WHERE ycsb_key = '{updated}'")
        rows = self.session.execute(
            f"SELECT * FROM usertable WHERE ycsb_key = '{selected}'")
        return count, rows

    def check(self, inp, out) -> bool:
        updated, value, selected = inp
        count, rows = out
        if count != 1:
            return False
        self.shadow[updated] = value
        return rows == [(selected, self.shadow[selected])]

    def final_check(self) -> bool:
        return True


class Echo:
    """Nested minissl echo server, fixed 128 B records.  Fig. 7's worst
    case: n_ecall transitions and about four GCM set-ups per round
    trip.  The fixed size keeps p50/p90 inside one cost cluster."""

    name = "echo"
    checkpoint = 100
    RECORD = 128

    def __init__(self, seed: int) -> None:
        self._rng = _rng(seed, "echo")
        host = nested_host()
        self.machine = host.machine
        self.server = NestedEchoServer(host)
        self.client = SslClient(
            psk=hashlib.sha256(b"echo-demo-psk").digest(),
            nonce=hashlib.sha256(f"echo-nonce:{seed}".encode()).digest())
        response = self.server.accept(self.client.hello())
        self.server.client_finished(self.client.finish(response))

    def next_input(self, i: int) -> bytes:
        return self._rng.randbytes(self.RECORD)

    def op(self, payload: bytes) -> bytes:
        raw = self.server.handle_wire(
            self.client.seal_record(CT_APPLICATION, payload))
        return self.client.open_record(raw).payload

    def check(self, payload: bytes, out: bytes) -> bool:
        return out == payload

    def final_check(self) -> bool:
        return True


class Svm:
    """Nested minisvm service: each operation trains on a seeded
    two-class blob (16 x 8) and predicts 8 x 8.  Few calls moving large
    sealed matrices: per-byte AES, then SMO, with almost no GCM set-up
    (the contrast with ycsb and echo)."""

    name = "svm"
    checkpoint = 20
    TRAIN_PER_CLASS = 8
    TEST_PER_CLASS = 4
    FEATURES = 8
    ACCURACY_FLOOR = 0.75

    def __init__(self, seed: int) -> None:
        self._np_rng = np.random.default_rng(
            int.from_bytes(_key(seed, "svm-data")[:8], "little"))
        host = nested_host()
        self.machine = host.machine
        service = NestedMlService(host)
        self.client = service.add_client(_key(seed, "svm-client"))

    def _blob(self, per_class: int):
        # Private columns (the first two) are zeroed by the inner
        # enclave, so the classes differ in every feature.
        spread = 0.3
        x = np.vstack([
            self._np_rng.normal(-1.0, spread, (per_class, self.FEATURES)),
            self._np_rng.normal(1.0, spread, (per_class, self.FEATURES))])
        y = np.array([1] * per_class + [2] * per_class)
        return x, y

    def next_input(self, i: int):
        return self._blob(self.TRAIN_PER_CLASS), \
            self._blob(self.TEST_PER_CLASS)

    def op(self, inp):
        (train_x, train_y), (test_x, _test_y) = inp
        model_id = self.client.train(train_x, train_y)
        return self.client.predict(model_id, test_x)

    def check(self, inp, out) -> bool:
        test_y = inp[1][1]
        if out.shape != test_y.shape or not set(out.tolist()) <= {1, 2}:
            return False
        return float(np.mean(out == test_y)) >= self.ACCURACY_FLOOR

    def final_check(self) -> bool:
        return True


class Ring:
    """Two inner enclaves exchanging 16 KiB per operation through a
    shared ring in their outer enclave's EPC.  The 1 MiB ring is twice
    the 512 KiB LLC, so the MEE stays active; chunk sizes are drawn from
    {64, 256, 1024}.  The warm memory path dominates: Core.read/write,
    the access plan, the LLC and the MEE.  No crypto."""

    name = "ring"
    checkpoint = 500
    TRANSFER = 16 << 10
    CHUNKS = (64, 256, 1024)

    def __init__(self, seed: int) -> None:
        self._rng = _rng(seed, "ring")
        host = nested_host(llc_bytes=512 << 10)
        self.machine = host.machine
        self.deployment = NestedChannelDeployment(host,
                                                  footprint_bytes=1 << 20)

    def next_input(self, i: int) -> int:
        return self._rng.choice(self.CHUNKS)

    def op(self, chunk: int):
        # One burst of NestedChannelDeployment.transfer, with both ends'
        # byte counts kept for the oracle.
        d = self.deployment
        sent = d.producer.ecall("produce", d.ring_base, d.ring_cap, chunk,
                                self.TRANSFER)
        received = d.consumer.ecall("consume", d.ring_base, d.ring_cap,
                                    chunk, sent)
        return sent, received

    def check(self, chunk: int, out) -> bool:
        return out == (self.TRANSFER, self.TRANSFER)

    def final_check(self) -> bool:
        return True


class Epc:
    """EPC paging churn on a bulk-copy pair: each operation copies six
    pages, EWBs all 16 heap pages and ELDBs 15 back, leaving one seeded
    span page out so the next copy takes the #PF -> ELDB -> ecall-retry
    path.  The access plan is always cold, so invalidation, eviction
    and MEE hashing dominate: the same memory layer as ring, used the
    opposite way."""

    name = "epc"
    checkpoint = 50
    SPAN_PAGES = 6
    DST_PAGE = 8
    HEAP_PAGES = 16

    def __init__(self, seed: int) -> None:
        self._rng = _rng(seed, "epc")
        host, self.outer, _inner = bulk_pair(epc_bytes=2 << 20)
        self.machine = host.machine
        self.driver = host.kernel.driver
        self.span = self.SPAN_PAGES * PAGE_SIZE
        self.dst = self.DST_PAGE * PAGE_SIZE
        self.page0 = self.outer.heap.base & ~(PAGE_SIZE - 1)
        self.outer.ecall("fill", 0, self.span, self._rng.randrange(256))
        # Pages every copy touches: the source and destination spans.
        self.span_pages = [*range(self.SPAN_PAGES),
                           *range(self.DST_PAGE,
                                  self.DST_PAGE + self.SPAN_PAGES)]

    def next_input(self, i: int) -> int:
        return self._rng.choice(self.span_pages)

    def op(self, left_out: int) -> int:
        secs = self.outer.secs
        copied = self.outer.ecall("blast", 0, self.dst, self.span, 1)
        for page in range(self.HEAP_PAGES):
            self.driver.evict_page(secs, self.page0 + page * PAGE_SIZE)
        for page in range(self.HEAP_PAGES):
            if page != left_out:
                self.driver.reload_page(secs,
                                        self.page0 + page * PAGE_SIZE)
        return copied

    def check(self, left_out: int, out: int) -> bool:
        return out == self.span

    def final_check(self) -> bool:
        return (self.outer.ecall("checksum", 0, self.span)
                == self.outer.ecall("checksum", self.dst, self.span))


class Serving:
    """The host-serving configuration: echo/minidb/minisvm backends, 16
    zipfian tenants, open-loop arrivals at 8k sessions/s of virtual
    time.  Each session is issued as ``HostService.run([s])``, so the
    admission queue drains on every call.  The only workload that runs
    the host layer, HashAead, ReliableLink and the attestation
    handshake (tenants enrol on their first session).

    Sessions come in blocks of ``BLOCK`` in which every tenant has
    exactly its zipf share (largest remainder), in seeded order: the
    seed varies order, timing and payloads, but not how many sessions
    reach the costly minidb/minisvm backends, which would otherwise
    move throughput by several percent from seed to seed."""

    name = "serving"
    checkpoint = 2000
    BLOCK = 2000
    PROFILE = LoadProfile(tenants=16, rate_per_s=8_000.0, db_tenants=1,
                          svm_tenants=1)
    ECHO_SIZES = (32, 64, 128, 256)

    def __init__(self, seed: int) -> None:
        self._rng = _rng(seed, "serving")
        host = nested_host()
        self.machine = host.machine
        self.service = HostService(
            host, make_backends(host, ("echo", "minidb", "minisvm")),
            HostConfig(workers=4, queue_depth=128, rate_per_s=100_000.0,
                       burst=64.0))
        weights = [1.0 / (rank + 1) ** self.PROFILE.zipf_s
                   for rank in range(self.PROFILE.tenants)]
        shares = [self.BLOCK * w / sum(weights) for w in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(len(shares)),
                              key=lambda t: counts[t] - shares[t])
        for tenant in by_remainder[:self.BLOCK - sum(counts)]:
            counts[tenant] += 1
        self._block = [t for t, n in enumerate(counts) for _ in range(n)]
        self._order: list[int] = []
        self._now_ns = 0.0
        self._db_serial = 0

    def next_input(self, i: int) -> Arrival:
        if not self._order:
            self._order = list(self._block)
            self._rng.shuffle(self._order)
        tenant = self._order.pop()
        self._now_ns += self._rng.expovariate(self.PROFILE.rate_per_s) * 1e9
        backend = self.PROFILE.backend_of(tenant)
        if backend == "echo":
            op = bytes([i & 0xFF]) * self._rng.choice(self.ECHO_SIZES)
        elif backend == "minidb":
            self._db_serial += 1
            serial = self._db_serial
            op = (f"INSERT INTO kv VALUES ({serial}, 'v{serial}')"
                  if serial % 2 else
                  f"SELECT v FROM kv WHERE k = {serial - 1}").encode()
        else:
            op = (1 + self._rng.randrange(4)).to_bytes(2, "little")
        return Arrival(self._now_ns, tenant, backend, op)

    def op(self, arrival: Arrival) -> int:
        before = self.service.stats.served
        self.service.run([arrival])
        return self.service.stats.served - before

    def check(self, arrival: Arrival, out: int) -> bool:
        return out == 1

    def final_check(self) -> bool:
        stats = self.service.stats
        return stats.accounted() == stats.offered


#: name -> workload class, in run order.
WORKLOADS = {cls.name: cls for cls in (Ycsb, Echo, Svm, Ring, Epc,
                                       Serving)}


def fresh_setup(cls, seed: int):
    """Build one workload as a fresh process would: the memoised
    developer signing keys are dropped first, so their RSA generation
    is part of every set-up."""
    developer_key.cache_clear()
    return cls(seed)
