"""Per-layer span tracing from outside the simulator.

:class:`Tracer` wraps the public functions at each layer boundary of
``repro`` (the table :data:`BOUNDARIES`), records a span per call and
attributes *self time* — a span's duration minus its child spans — to
the layer that owns it.  The layers are the ``repro`` packages; the
benchmark's own operation loop is the ``bench`` layer.

Hot leaf boundaries (``leaf=True``: memory accesses, validation, GCM,
transitions, ...) are called hundreds of times per operation, so they
store no span of their own: their call count and time are folded into
the enclosing stored span, which bounds memory.  Every other call is
stored as ``[name, layer, start_ns, end_ns, parent_id, op_id, leaves,
id]`` and can be written out as a Chrome trace-event file.

A boundary is patched in every place that holds it: a method on its
class, a module function in every ``repro.*`` namespace that imported
it by name.  :meth:`Tracer.uninstall` restores every original, including
copies a module imported while tracing was on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: Layers in report order.
LAYERS = ("crypto", "sgx", "core", "os", "sdk", "apps", "host", "bench")

_MISSING = object()


def _sealed_bytes(tracer: "Tracer", args) -> int:
    # AesGcm.seal(self, nonce, plaintext) / open(self, nonce, sealed)
    return len(args[2])


def _repeat_key(tracer: "Tracer", args) -> int:
    # AesGcm(key): 1 when this key's schedule and tables were built
    # before (wasted work a per-key cache would save).
    key = bytes(args[1])
    if key in tracer.keys_seen:
        return 1
    tracer.keys_seen.add(key)
    return 0


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: ``target`` is ``module:function`` or
    ``module:Class.method``; ``key`` groups calls for the metrics, and
    its first component is the layer."""

    target: str
    key: str
    leaf: bool = False
    observe: Callable | None = None


def _group(key: str, module: str, names: str, leaf: bool = False,
           observe=None) -> list:
    return [Boundary(f"{module}:{name}", key, leaf, observe)
            for name in names.split()]


BOUNDARIES = (
    _group("crypto.gcm_setup", "repro.crypto.gcm", "AesGcm.__init__",
           leaf=True, observe=_repeat_key)
    + _group("crypto.gcm", "repro.crypto.gcm", "AesGcm.seal AesGcm.open",
             leaf=True, observe=_sealed_bytes)
    + _group("crypto.hashaead", "repro.crypto.hashaead",
             "HashAead.seal HashAead.open", leaf=True)
    + _group("crypto.kdf", "repro.crypto.kdf", "hkdf mac mac_verify",
             leaf=True)
    + _group("crypto.rsa", "repro.crypto.rsa",
             "generate_keypair RsaPrivateKey.sign RsaPublicKey.verify",
             leaf=True)
    + _group("sgx.access", "repro.sgx.cpu", "Core.read Core.write",
             leaf=True)
    + _group("sgx.transition", "repro.sgx.isa", "eenter eexit aex eresume",
             leaf=True)
    + _group("sgx.isa", "repro.sgx.isa",
             "ecreate eadd eextend einit eremove ereport egetkey "
             "verify_report", leaf=True)
    + _group("sgx.paging", "repro.sgx.eviction", "ewb eldb", leaf=True)
    + _group("sgx.eviction", "repro.sgx.eviction", "eblock etrack",
             leaf=True)
    # Every workload runs the nested (Fig. 6) validator; it inherits
    # validate() and is patched on its own class.
    + _group("core.validate", "repro.core.access",
             "NestedValidator.validate", leaf=True)
    + _group("core.ntransition", "repro.core.nested_isa",
             "neenter neexit neexit_call neexit_return", leaf=True)
    + _group("core.isa", "repro.core.nested_isa",
             "nereport verify_nested_report", leaf=True)
    + _group("core.association", "repro.core.association", "nasso")
    + _group("core.channel", "repro.core.channel",
             "SharedRing.initialise SharedRing.try_send "
             "SharedRing.try_recv", leaf=True)
    + _group("os.driver", "repro.os.driver",
             "SgxDriver.load_enclave SgxDriver.associate "
             "SgxDriver.unload_enclave SgxDriver.evict_page "
             "SgxDriver.reload_page SgxDriver.reclaim_epc")
    + _group("os.pf_retry", "repro.os.driver",
             "SgxDriver.handle_page_fault")
    + _group("os.ipc", "repro.os.ipc",
             "IpcRouter.send IpcRouter.try_recv IpcRouter.recv", leaf=True)
    + _group("sdk.ecall", "repro.sdk.runtime", "EnclaveHandle.ecall")
    + _group("sdk.ncall", "repro.sdk.runtime",
             "EnclaveContext.n_ecall EnclaveContext.n_ocall")
    + _group("sdk.ocall", "repro.sdk.runtime", "EnclaveContext.ocall")
    + _group("sdk.host", "repro.sdk.runtime",
             "EnclaveHost.load EnclaveHost.associate")
    + _group("sdk.build", "repro.sdk.builder", "EnclaveBuilder.build")
    + _group("sdk.heap", "repro.sdk.heap",
             "EnclaveHeap.malloc EnclaveHeap.free", leaf=True)
    + _group("sdk.link", "repro.sdk.secure_channel", "ReliableLink.call")
    + _group("sdk.link_pump", "repro.sdk.secure_channel",
             "ReliableResponder.pump")
    + _group("sdk.channel", "repro.sdk.secure_channel",
             "GcmChannel.send GcmChannel.recv GcmChannel.try_recv")
    + _group("sdk.attest", "repro.sdk.attest", "mutual_attest")
    + _group("apps.minidb", "repro.apps.minidb.engine", "Database.execute")
    + _group("apps.minidb_parse", "repro.apps.minidb.parser", "parse")
    + _group("apps.minisvm", "repro.apps.minisvm.svc",
             "svm_train SvcModel.predict")
    + _group("apps.minissl", "repro.apps.minissl.session",
             "SslSession.accept SslSession.client_finished "
             "SslSession.open_record SslSession.seal_record "
             "SslSession.handle_heartbeat")
    + _group("apps.minissl", "repro.apps.minissl.client",
             "SslClient.hello SslClient.finish SslClient.seal_record "
             "SslClient.open_record")
    + _group("apps.ports", "repro.apps.ports.dbservice",
             "DbClientSession.execute decode_result")
    + _group("apps.ports", "repro.apps.ports.mlservice",
             "MlClientSession.train MlClientSession.predict pack_matrix "
             "unpack_matrix")
    + _group("apps.ports", "repro.apps.ports.echo",
             "NestedEchoServer.accept NestedEchoServer.client_finished "
             "NestedEchoServer.handle_wire")
    + _group("host.service", "repro.host.service", "HostService.run")
    + _group("host.handshake", "repro.host.handshake",
             "HostGateway.enroll HostGateway.resume")
    + _group("host.backend", "repro.host.backends",
             "EchoBackend.handle DbBackend.handle SvmBackend.handle")
)


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Spans and per-layer self time for one traced pass."""

    def __init__(self) -> None:
        #: key -> calls / observed units (cumulative until reset_counts).
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        #: Raw host ns, sampling pauses excluded: inclusive per key,
        #: self per layer.
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.records: list[list] = []
        self.keys_seen: set[bytes] = set()
        root = ["root", "bench", 0, 0, -1, -1, None, -1]
        #: Open frames: [start_ns, child_ns, stored span, paused_ns].
        self._stack: list[list] = [[0, 0, root, 0]]
        self._patches: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        for boundary in BOUNDARIES:
            module_name, qual = boundary.target.split(":")
            module = importlib.import_module(module_name)
            if "." in qual:
                class_name, attr = qual.split(".")
                owners = [(getattr(module, class_name), attr)]
                original = getattr(owners[0][0], attr)
            else:
                original = getattr(module, qual)
                owners = [(m, name) for m in _repro_modules()
                          for name, value in list(vars(m).items())
                          if value is original]
            wrapper = self._wrap(original, boundary, qual)
            self._wrappers[id(wrapper)] = (wrapper, original)
            for owner, attr in owners:
                self._patches.append(
                    (owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        # A module imported while tracing was on may have copied a
        # wrapper into its namespace.
        for owner, attr in self.leftovers():
            setattr(owner, attr, self._wrappers[id(vars(owner)[attr])][1])
        self._patches.clear()

    def leftovers(self) -> list[tuple]:
        """Every ``(namespace, name)`` in ``repro`` still holding a
        wrapper (empty once uninstalled)."""
        found = []
        classes = {id(owner): owner for owner, _attr, _saved
                   in self._patches if isinstance(owner, type)}
        for boundary in BOUNDARIES:
            module_name, qual = boundary.target.split(":")
            if "." in qual:
                owner = getattr(sys.modules[module_name],
                                qual.split(".")[0])
                classes[id(owner)] = owner
        for owner in [*_repro_modules(), *classes.values()]:
            for attr, value in list(vars(owner).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    found.append((owner, attr))
        return found

    def _wrap(self, fn, boundary: Boundary, name: str):
        key = boundary.key
        layer = key.split(".")[0]
        observe = boundary.observe
        stack = self._stack
        records = self.records
        calls, units = self.calls, self.units
        incl_ns, self_ns = self.incl_ns, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        if boundary.leaf:
            def wrapper(*args, **kwargs):
                if observe is not None:
                    units[key] += observe(tracer, args)
                parent = stack[-1]
                frame = [0, 0, parent[2], 0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    paused = frame[3]
                    dur = clock() - start - paused
                    stack.pop()
                    self_ns[layer] += dur - frame[1]
                    parent[1] += dur
                    parent[3] += paused
                    calls[key] += 1
                    incl_ns[key] += dur
                    span = frame[2]
                    leaves = span[6]
                    if leaves is None:
                        leaves = span[6] = {}
                    agg = leaves.get(name)
                    if agg is None:
                        leaves[name] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
        else:
            def wrapper(*args, **kwargs):
                if observe is not None:
                    units[key] += observe(tracer, args)
                parent = stack[-1]
                up = parent[2]
                span = [name, layer, 0, 0, up[7], up[5], None, len(records)]
                records.append(span)
                frame = [0, 0, span, 0]
                stack.append(frame)
                start = span[2] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = span[3] = clock()
                    paused = frame[3]
                    dur = end - start - paused
                    stack.pop()
                    self_ns[layer] += dur - frame[1]
                    parent[1] += dur
                    parent[3] += paused
                    calls[key] += 1
                    incl_ns[key] += dur

        return functools.wraps(fn)(wrapper)

    # -- the operation loop --------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        span = ["op", "bench", 0, 0, -1, op_id, None, len(self.records)]
        self.records.append(span)
        self._stack.append([0, 0, span, 0])
        span[2] = self._stack[-1][0] = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        start, child_ns, span, paused = self._stack.pop()
        span[3] = end
        self.self_ns["bench"] += end - start - paused - child_ns

    def exclude(self, ns: int) -> None:
        """Take ``ns`` of host time spent outside the program (speed
        sampling) out of every open span."""
        self._stack[-1][3] += ns

    def reset_counts(self) -> None:
        """Start counting from zero (after set-up)."""
        for table in (self.calls, self.units, self.incl_ns, self.self_ns):
            table.clear()

    def counts(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.units)

    def take_times(self) -> tuple[dict, dict]:
        """Raw self ns per layer and inclusive ns per key accumulated
        since reset_counts()."""
        return dict(self.self_ns), dict(self.incl_ns)

    # -- export --------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The stored spans as a Chrome trace-event document (raw host
        microseconds from the first span)."""
        origin = self.records[0][2] if self.records else 0
        events = []
        for name, layer, start, end, parent, op_id, leaves, ident \
                in self.records:
            args = {"id": ident, "parent": parent, "op_id": op_id}
            if leaves:
                args["leaves"] = {
                    leaf: {"calls": count, "us": ns / 1e3}
                    for leaf, (count, ns) in sorted(leaves.items())}
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": (start - origin) / 1e3,
                           "dur": (end - start) / 1e3,
                           "pid": 1, "tid": 1, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}
