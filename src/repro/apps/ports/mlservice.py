"""Machine-learning-as-a-service port (case study §VI-B, Fig. 8/9).

The service provider runs minisvm behind train/predict APIs.  Clients
feed privacy-sensitive data and must not expose it to the provider's
shared library:

* ``MonolithicMlService`` — client filter code and the SVM library share
  one enclave per client (the paper's baseline "runs all operations in
  an enclave").
* ``NestedMlService`` — the shared minisvm library runs in an **outer**
  enclave; each client gets an **inner** enclave that decrypts the
  client's data with a per-client key, strips the private columns, and
  only then hands the sanitised matrix to the library (Fig. 8: "the
  inner enclaves decrypt data and filter private data not to expose
  them to the outer enclave").

Client data arrives GCM-encrypted under the client's key; the first
``private_columns`` features are the privacy-sensitive part that must
never reach the library.  Tests verify the *library-visible* matrix in
the nested layout has those columns zeroed while the monolithic layout
exposes them to library-resident code.
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from repro.apps.minisvm import SvcModel, SvmError, svm_train
from repro.apps.ports import handle_state
from repro.crypto.gcm import AesGcm
from repro.sdk import EnclaveBuilder, EnclaveHost, parse_edl
from repro.sdk.builder import developer_key

LIB_EDL = """
enclave {
    trusted {
        public int svc_train(bytes matrix);
        public bytes svc_predict(int model_id, bytes matrix);
    };
};
"""

CLIENT_INNER_EDL = """
enclave {
    trusted {
        public int client_train(bytes sealed);
        public bytes client_predict(int model_id, bytes sealed);
    };
    nested_untrusted {
        int svc_train(bytes matrix);
        bytes svc_predict(int model_id, bytes matrix);
    };
};
"""

MONO_EDL = """
enclave {
    trusted {
        public int client_train(bytes sealed);
        public bytes client_predict(int model_id, bytes sealed);
    };
};
"""


# -- serialisation helpers (numpy <-> bytes across the call boundary) ------

def pack_matrix(x: np.ndarray, y: np.ndarray | None = None) -> bytes:
    header = np.array([x.shape[0], x.shape[1],
                       1 if y is not None else 0], dtype=np.int64)
    parts = [header.tobytes(), np.ascontiguousarray(
        x, dtype=np.float64).tobytes()]
    if y is not None:
        parts.append(np.ascontiguousarray(y, dtype=np.int64).tobytes())
    return b"".join(parts)


def unpack_matrix(data: bytes) -> tuple[np.ndarray, np.ndarray | None]:
    rows, cols, has_y = np.frombuffer(data[:24], dtype=np.int64)
    x_bytes = rows * cols * 8
    x = np.frombuffer(data[24:24 + x_bytes],
                      dtype=np.float64).reshape(rows, cols)
    y = None
    if has_y:
        y = np.frombuffer(data[24 + x_bytes:24 + x_bytes + rows * 8],
                          dtype=np.int64)
    return x, y


# -- library-side state -------------------------------------------------------

#: How many of the most recent matrices, and of the most recently used
#: models, one library keeps.  Unbounded, both grew by an entry per
#: train or predict for as long as the service ran.
_LIBRARY_KEEP = 64


class _ModelTable:
    """``model_id -> model``, least recently used first, holding at most
    :data:`_LIBRARY_KEEP` models.  An unknown or evicted id raises
    :class:`SvmError`."""

    def __init__(self) -> None:
        self._models: OrderedDict[int, SvcModel] = OrderedDict()

    def __setitem__(self, model_id: int, model: SvcModel) -> None:
        self._models[model_id] = model
        if len(self._models) > _LIBRARY_KEEP:
            self._models.popitem(last=False)

    def __getitem__(self, model_id: int) -> SvcModel:
        try:
            self._models.move_to_end(model_id)
        except KeyError:
            raise SvmError(
                f"no model {model_id}: never trained or evicted") from None
        return self._models[model_id]


class _LibraryState:
    """Models + a record of the most recent matrices the library code
    observed.

    ``observed`` is the attack surface: in the monolithic layout it
    contains raw client features; in the nested layout it only ever sees
    sanitised ones.  (A compromised library could exfiltrate exactly
    this.)
    """

    def __init__(self) -> None:
        self.models = _ModelTable()
        self.next_id = 1
        self.observed: deque[np.ndarray] = deque(maxlen=_LIBRARY_KEEP)


_LIBRARIES: dict[int, _LibraryState] = {}


def _library_for(handle) -> _LibraryState:
    state = _LIBRARIES.get(id(handle))
    if state is None:
        state = handle_state(_LIBRARIES, handle, _LibraryState())
    return state


def _svc_train(ctx, matrix: bytes) -> int:
    state = _library_for(ctx.handle)
    x, y = unpack_matrix(matrix)
    state.observed.append(x.copy())
    ctx.host.machine.cost.charge_work(x.size * 40)  # SMO compute
    gamma = 1.0 / max(x.shape[1], 1)
    model = svm_train(x, y, kernel="rbf", gamma=gamma,
                      max_iterations=2000)
    model_id = state.next_id
    state.next_id += 1
    state.models[model_id] = model
    return model_id


def _svc_predict(ctx, model_id: int, matrix: bytes) -> bytes:
    state = _library_for(ctx.handle)
    x, _ = unpack_matrix(matrix)
    state.observed.append(x.copy())
    ctx.host.machine.cost.charge_work(x.size * 4)  # kernel evaluations
    labels = state.models[model_id].predict(x)
    return np.ascontiguousarray(labels, dtype=np.int64).tobytes()


# -- client-side (inner-enclave) code --------------------------------------

def _sanitize(x: np.ndarray, private_columns: int) -> np.ndarray:
    """Strip the privacy-sensitive leading features before sharing."""
    cleaned = x.copy()
    cleaned[:, :private_columns] = 0.0
    return cleaned


class _ClientConfig:
    """Per-deployment constants the entry functions need."""

    key: bytes = bytes(16)
    private_columns: int = 0


_CLIENT_CONFIGS: dict[int, _ClientConfig] = {}


def _config_for(handle) -> _ClientConfig:
    return _CLIENT_CONFIGS[id(handle)]


def _open_sealed(ctx, sealed: bytes) -> bytes:
    config = _config_for(ctx.handle)
    gcm = AesGcm(config.key)
    ctx.host.machine.cost.charge_gcm(max(len(sealed) - 28, 0))
    return gcm.open(sealed[:12], sealed[12:])


def _nested_client_train(ctx, sealed: bytes) -> int:
    config = _config_for(ctx.handle)
    x, y = unpack_matrix(_open_sealed(ctx, sealed))
    cleaned = _sanitize(x, config.private_columns)
    return ctx.n_ocall("svc_train", pack_matrix(cleaned, y))


def _nested_client_predict(ctx, model_id: int, sealed: bytes) -> bytes:
    config = _config_for(ctx.handle)
    x, _ = unpack_matrix(_open_sealed(ctx, sealed))
    cleaned = _sanitize(x, config.private_columns)
    return ctx.n_ocall("svc_predict", model_id, pack_matrix(cleaned))


def _mono_client_train(ctx, sealed: bytes) -> int:
    """Monolithic: the library call is a local call in the same enclave;
    the raw (unsanitised) features sit in the same protection domain as
    the library, which is exactly the exposure the paper criticises.
    The client code still filters before *explicitly* passing data — but
    the decrypted raw matrix lives on the shared heap where library code
    (e.g. a compromised parser) can read it; we model that by recording
    the raw matrix as library-observed."""
    config = _config_for(ctx.handle)
    x, y = unpack_matrix(_open_sealed(ctx, sealed))
    state = _library_for(ctx.handle)
    state.observed.append(x.copy())   # same domain: library sees raw data
    ctx.host.machine.cost.charge_work(x.size * 40)
    gamma = 1.0 / max(x.shape[1], 1)
    model = svm_train(x, y, kernel="rbf", gamma=gamma,
                      max_iterations=2000)
    model_id = state.next_id
    state.next_id += 1
    state.models[model_id] = model
    return model_id


def _mono_client_predict(ctx, model_id: int, sealed: bytes) -> bytes:
    x, _ = unpack_matrix(_open_sealed(ctx, sealed))
    state = _library_for(ctx.handle)
    state.observed.append(x.copy())
    ctx.host.machine.cost.charge_work(x.size * 4)
    labels = state.models[model_id].predict(x)
    return np.ascontiguousarray(labels, dtype=np.int64).tobytes()


# -- deployments ---------------------------------------------------------------

class MlClientSession:
    """Client-side helper: seals matrices under the client key."""

    def __init__(self, service, enclave_handle, key: bytes) -> None:
        self.service = service
        self.handle = enclave_handle
        self._gcm = AesGcm(key)
        self._nonce = 0

    def _seal(self, data: bytes) -> bytes:
        nonce = self._nonce.to_bytes(12, "little")
        self._nonce += 1
        return nonce + self._gcm.seal(nonce, data)

    def train(self, x: np.ndarray, y: np.ndarray) -> int:
        return self.handle.ecall("client_train",
                                 self._seal(pack_matrix(x, y)))

    def predict(self, model_id: int, x: np.ndarray) -> np.ndarray:
        raw = self.handle.ecall("client_predict", model_id,
                                self._seal(pack_matrix(x)))
        return np.frombuffer(raw, dtype=np.int64)


class NestedMlService:
    """Shared minisvm library (outer) + one inner enclave per client."""

    def __init__(self, host: EnclaveHost, *,
                 private_columns: int = 2) -> None:
        self.host = host
        self.private_columns = private_columns
        key = developer_key("ml-service")
        lib_builder = EnclaveBuilder(
            "svc-lib", parse_edl(LIB_EDL, name="svc-lib"),
            signing_key=key)
        lib_builder.add_entry("svc_train", _svc_train)
        lib_builder.add_entry("svc_predict", _svc_predict)
        self._lib_builder = lib_builder
        self._lib_probe = lib_builder.build()
        self.library = None
        self.clients: list[MlClientSession] = []
        self._client_images: list = []

    def add_client(self, client_key: bytes) -> MlClientSession:
        """Provision an inner enclave for a new client."""
        key = developer_key("ml-service")
        builder = EnclaveBuilder(
            f"client-{len(self.clients)}",
            parse_edl(CLIENT_INNER_EDL, name="client"),
            signing_key=key)
        builder.add_entry("client_train", _nested_client_train)
        builder.add_entry("client_predict", _nested_client_predict)
        builder.expect_peer(self._lib_probe.sigstruct.expected_mrenclave,
                            self._lib_probe.sigstruct.mrsigner)
        image = builder.build()
        self._client_images.append(image)

        if self.library is None:
            # Library accepts any inner from the service signer.
            from repro.sgx.sigstruct import ANY_MRENCLAVE
            self._lib_builder.expect_peer(
                ANY_MRENCLAVE, image.sigstruct.mrsigner)
            self.library = self.host.load(self._lib_builder.build())
        handle = self.host.load(image)
        self.host.associate(handle, self.library)
        config = _ClientConfig()
        config.key = client_key
        config.private_columns = self.private_columns
        handle_state(_CLIENT_CONFIGS, handle, config)
        session = MlClientSession(self, handle, client_key)
        self.clients.append(session)
        return session

    def library_observed(self) -> list[np.ndarray]:
        """The most recent matrices that reached library-domain code."""
        if self.library is None:
            return []
        return list(_library_for(self.library).observed)


class MonolithicMlService:
    """Baseline: each client gets one enclave holding library + client
    code together."""

    def __init__(self, host: EnclaveHost, *,
                 private_columns: int = 2) -> None:
        self.host = host
        self.private_columns = private_columns
        self.clients: list[MlClientSession] = []
        self.handles: list = []

    def add_client(self, client_key: bytes) -> MlClientSession:
        builder = EnclaveBuilder(
            f"mono-client-{len(self.clients)}",
            parse_edl(MONO_EDL, name="mono-client"),
            signing_key=developer_key("ml-service"))
        builder.add_entry("client_train", _mono_client_train)
        builder.add_entry("client_predict", _mono_client_predict)
        handle = self.host.load(builder.build())
        config = _ClientConfig()
        config.key = client_key
        config.private_columns = self.private_columns
        handle_state(_CLIENT_CONFIGS, handle, config)
        session = MlClientSession(self, handle, client_key)
        self.clients.append(session)
        self.handles.append(handle)
        return session

    def library_observed(self) -> list[np.ndarray]:
        observed = []
        for handle in self.handles:
            observed.extend(_library_for(handle).observed)
        return observed
