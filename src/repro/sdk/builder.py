"""Enclave image builder and signing tool.

Produces the *signed enclave file* of paper §IV-C: a page-by-page memory
layout (code, TCS, data/heap pages), the author-signed SIGSTRUCT over the
expected measurement, and — for nested enclaves — the expected
measurements of the peers this enclave is willing to associate with.

"Code" in this simulator is a table of named Python callables (the entry
points the EDL declares).  To keep measurement meaningful, each code page
contains a digest of the corresponding function's source: editing the
function body (as the tamper tests do, by swapping in a different
function) changes the page content, hence MRENCLAVE, hence breaks EINIT
against the old SIGSTRUCT — the same property real measurement gives.

The builder computes the expected MRENCLAVE by *replaying* exactly the
measurement records the ISA will accumulate at load time (same
MeasurementLog code), so a correct loader always reproduces it and any
deviating loader fails EINIT.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass
from typing import Callable

from repro.crypto.rsa import RsaPrivateKey
from repro.errors import SdkError
from repro.sdk.edl import EdlSpec
from repro.sgx.constants import PAGE_SIZE, PERM_RW, PERM_RX, PT_REG, PT_TCS
from repro.sgx.measure import MeasurementLog
from repro.sgx.sigstruct import Sigstruct, sign_sigstruct


@dataclass(frozen=True)
class ImagePage:
    """One page of the enclave image, in layout order."""

    offset: int              # byte offset from the enclave base
    content: bytes
    perms: int
    is_tcs: bool = False
    tcs_entry: str | None = None
    measured: bool = True    # heap pages are added but not EEXTENDed


def _function_fingerprint(func: Callable) -> bytes:
    """Stable digest of a callable's identity + implementation."""
    try:
        source = inspect.getsource(func)
    except (OSError, TypeError):
        source = getattr(func, "__qualname__", repr(func))
    return hashlib.sha256(source.encode()).digest()


@dataclass
class EnclaveImage:
    """A built, signed, loadable enclave image."""

    name: str
    edl: EdlSpec
    entries: dict[str, Callable]
    pages: list[ImagePage]
    sigstruct: Sigstruct
    attributes: int
    code_bytes: int
    heap_bytes: int
    stack_bytes: int
    tcs_offsets: list[int]
    heap_offset: int

    @property
    def size_bytes(self) -> int:
        """Static image bytes (the pages the loader EADDs)."""
        return len(self.pages) * PAGE_SIZE

    def iter_pages(self):
        return iter(self.pages)

    def entry(self, name: str) -> Callable:
        func = self.entries.get(name)
        if func is None:
            raise SdkError(f"enclave {self.name!r} has no entry {name!r}")
        return func


class EnclaveBuilder:
    """Author-side tool: lay out, measure and sign an enclave image."""

    def __init__(self, name: str, edl: EdlSpec, *,
                 signing_key: RsaPrivateKey,
                 heap_bytes: int = 16 * PAGE_SIZE,
                 stack_bytes: int = 4 * PAGE_SIZE,
                 num_tcs: int = 2,
                 extra_code_bytes: int = 0,
                 isv_prod_id: int = 0, isv_svn: int = 1,
                 attributes: int = 0) -> None:
        self.name = name
        self.edl = edl
        self.signing_key = signing_key
        self.heap_bytes = _page_round(heap_bytes)
        self.stack_bytes = _page_round(stack_bytes)
        self.num_tcs = num_tcs
        #: Models statically linked library bulk (Fig. 10 varies footprint
        #: by linking a ~4 MiB SSL library vs a ~1 MiB app).
        self.extra_code_bytes = _page_round(extra_code_bytes)
        self.isv_prod_id = isv_prod_id
        self.isv_svn = isv_svn
        self.attributes = attributes
        self._entries: dict[str, Callable] = {}
        self._expected_peers: list[tuple[bytes, bytes]] = []

    # -- authoring API -----------------------------------------------------
    def add_entry(self, name: str, func: Callable) -> "EnclaveBuilder":
        """Register the implementation of an EDL-declared entry point."""
        declared = (name in self.edl.trusted
                    or name in self.edl.nested_trusted)
        if not declared:
            raise SdkError(
                f"{name!r} is not declared in the EDL trusted or "
                f"nested_trusted sections")
        self._entries[name] = func
        return self

    def expect_peer(self, mrenclave: bytes, mrsigner: bytes) -> "EnclaveBuilder":
        """Authorise a future NASSO peer by its digests (paper §IV-C)."""
        self._expected_peers.append((mrenclave, mrsigner))
        return self

    # -- building ------------------------------------------------------------
    def _code_pages(self) -> list[bytes]:
        blobs = []
        for name in sorted(self._entries):
            blobs.append(name.encode().ljust(64, b"\x00")
                         + _function_fingerprint(self._entries[name]))
        code = b"".join(blobs)
        pages = [code[i:i + PAGE_SIZE]
                 for i in range(0, max(len(code), 1), PAGE_SIZE)]
        # Static-library bulk: deterministic filler pages.
        for i in range(self.extra_code_bytes // PAGE_SIZE):
            pages.append(hashlib.sha256(
                f"{self.name}-lib-{i}".encode()).digest().ljust(
                    PAGE_SIZE, b"\x00")[:PAGE_SIZE])
        return pages

    def build(self) -> EnclaveImage:
        missing = [n for n in list(self.edl.trusted)
                   + list(self.edl.nested_trusted)
                   if n not in self._entries]
        if missing:
            raise SdkError(f"EDL functions without implementation: {missing}")

        pages: list[ImagePage] = []
        offset = 0
        # 1) code pages (RX, measured)
        for content in self._code_pages():
            pages.append(ImagePage(offset, content, PERM_RX))
            offset += PAGE_SIZE
        code_bytes = offset
        # 2) TCS pages: one per thread, cycling through declared entries.
        #    The entry point recorded in the TCS is a dispatcher slot; the
        #    runtime passes the target function name through the ABI.
        tcs_offsets = []
        for i in range(self.num_tcs):
            pages.append(ImagePage(offset, b"TCS".ljust(PAGE_SIZE, b"\x00"),
                                   PERM_RW, is_tcs=True,
                                   tcs_entry="__dispatch__"))
            tcs_offsets.append(offset)
            offset += PAGE_SIZE
        # 3) stack pages (RW, measured as zeroes)
        for _ in range(self.stack_bytes // PAGE_SIZE):
            pages.append(ImagePage(offset, b"", PERM_RW))
            offset += PAGE_SIZE
        # 4) heap pages (RW, added but not measured — like SDK heap init)
        heap_offset = offset
        for _ in range(self.heap_bytes // PAGE_SIZE):
            pages.append(ImagePage(offset, b"", PERM_RW, measured=False))
            offset += PAGE_SIZE

        expected_mrenclave = self._replay_measurement(pages, offset)
        sigstruct = sign_sigstruct(
            self.signing_key, self.name, expected_mrenclave,
            isv_prod_id=self.isv_prod_id, isv_svn=self.isv_svn,
            attributes=self.attributes,
            expected_peer_digests=tuple(self._expected_peers))
        return EnclaveImage(
            name=self.name, edl=self.edl, entries=dict(self._entries),
            pages=pages, sigstruct=sigstruct, attributes=self.attributes,
            code_bytes=code_bytes, heap_bytes=self.heap_bytes,
            stack_bytes=self.stack_bytes, tcs_offsets=tcs_offsets,
            heap_offset=heap_offset)

    @staticmethod
    def _replay_measurement(pages: list[ImagePage], total: int) -> bytes:
        """Compute the MRENCLAVE a faithful loader will produce.

        Measurement records use ELRANGE-relative offsets (matching the
        ISA), so the digest is independent of where the OS maps the
        enclave — a requirement for sharing one signed image across many
        instances, as the Fig. 10 experiment does.
        """
        log = MeasurementLog()
        log.ecreate(0, _page_round(total))
        for page in pages:
            log.eadd(page.offset, PT_TCS if page.is_tcs else PT_REG,
                     page.perms)
            if page.measured:
                log.eextend(page.offset, page.content)
        return log.digest()


def _page_round(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


#: Deterministic developer keys for examples/tests.  The keypair is a
#: pure function of ``owner`` (seeded prime search), so it is memoised —
#: experiment sweeps that rebuild a deployment per data point would
#: otherwise redo the identical prime search every time.
@functools.lru_cache(maxsize=None)
def developer_key(owner: str) -> RsaPrivateKey:
    from repro.crypto.rsa import generate_keypair
    return generate_keypair(f"devkey:{owner}".encode(), bits=768)
