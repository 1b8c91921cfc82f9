"""Property tests for translation staleness and TLB recency on the hot path.

The single-page fast path of :class:`repro.sgx.cpu.Core` serves a
TLB-resident page without calling ``Tlb.lookup`` or ``Core._translate``;
it performs the LRU promotion inline instead.  The security argument of
paper §II-B (validate once at fill time, flush on every security
transition) extends to that path *iff*

* every flush-bearing operation (EENTER, EEXIT, NEENTER, NEEXIT, AEX,
  ERESUME and EWB shootdowns) empties the translations a core may
  serve — the TLB loses the page immediately, before any refill — and
* between flushes the inline promotion leaves the TLB in exactly the
  recency order ``Tlb.lookup`` would, so a later capacity eviction
  picks the same victim.

The directed tests check the first point one flush source at a time,
and that a TLB-resident page really is served without a translation;
the random walks check both points by running each seed on an
inline-serve machine and on a ``reference_paths`` machine (every access
through ``Tlb.lookup``) and comparing every core's TLB, LRU order
included, after every step.  Each step also audits the four §VII-A
invariants via :mod:`repro.core.invariants`.
"""

import random

import pytest

from repro.core import NestedValidator, audit_machine, neenter, neexit
from repro.os import Kernel
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine, isa
from repro.sgx.constants import PAGE_SHIFT, PAGE_SIZE, SmallMachineConfig

EDL = """
enclave {
    trusted {
        public int bump(int addr);
    };
};
"""

#: TLB capacity for the random walks: below the walk's four-page working
#: set, so touches capacity-evict and LRU order decides the victim.
TINY_TLB = 2


def _bump(ctx, addr):
    value = int.from_bytes(ctx.read(addr, 8), "little") + 1
    ctx.write(addr, value.to_bytes(8, "little"))
    return value


def _audit(machine) -> None:
    assert audit_machine(machine) == []


def _assert_stale(core) -> None:
    """The core may serve no translation until the next refill."""
    assert len(core.tlb) == 0, (
        f"core{core.core_id}: TLB survived a flush-bearing operation")


def _assert_mru(core, vaddr) -> None:
    """The page just accessed is the TLB's MRU entry."""
    assert core.tlb.capture()[-1][0] == vaddr >> PAGE_SHIFT


def _build_world(**config_overrides):
    machine = Machine(SmallMachineConfig(num_cores=2, **config_overrides),
                      validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("microcache")
    outer_builder = EnclaveBuilder("mc-outer", parse_edl(EDL),
                                   signing_key=key, num_tcs=4,
                                   heap_bytes=8 * PAGE_SIZE)
    outer_builder.add_entry("bump", _bump)
    outer_probe = outer_builder.build()

    inner_builder = EnclaveBuilder("mc-inner", parse_edl(EDL),
                                   signing_key=key, num_tcs=4)
    inner_builder.add_entry("bump", _bump)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)

    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    for core in machine.cores:
        core.address_space = host.proc.space
    return machine, host, outer, inner


@pytest.fixture
def world():
    return _build_world()


class TestDirectedInvalidation:
    """One explicit warm → flush → stale check per flush source."""

    def test_every_transition_invalidates(self, world):
        machine, host, outer, inner = world
        core = machine.cores[0]
        heap = outer.heap.base + 128

        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        _assert_stale(core)
        core.write(heap, b"\xAA" * 8)           # fill: walk + validate
        core.write(heap, b"\xBB" * 8)           # served from the TLB
        _assert_mru(core, heap)

        neenter(machine, core, inner.secs, inner.idle_tcs())
        _assert_stale(core)
        core.read(heap, 8)                      # inner touching outer heap
        _assert_mru(core, heap)

        neexit(machine, core)
        _assert_stale(core)
        assert core.read(heap, 8) == b"\xBB" * 8
        _assert_mru(core, heap)

        tcs_vaddr = core.tcs_stack[0]
        isa.aex(machine, core)
        _assert_stale(core)
        isa.eresume(machine, core, outer.secs, tcs_vaddr)
        _assert_stale(core)
        core.read(heap, 8)
        _assert_mru(core, heap)

        isa.eexit(machine, core)
        _assert_stale(core)
        _audit(machine)

    def test_ewb_shootdown_invalidates_all_cores(self, world):
        machine, host, outer, inner = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + 2 * PAGE_SIZE
        outer.ecall("bump", target)
        core0, core1 = machine.cores

        tcs0_vaddr = outer.idle_tcs()
        isa.eenter(machine, core0, outer.secs, tcs0_vaddr)
        core0.read(target, 8)
        tcs_vaddr = inner.idle_tcs()
        isa.eenter(machine, core1, inner.secs, tcs_vaddr)
        core1.read(target, 8)
        for core in machine.cores:
            _assert_mru(core, target)

        host.kernel.driver.evict_page(outer.secs, target)
        for core in machine.cores:
            _assert_stale(core)
        _audit(machine)

        assert host.kernel.driver.handle_page_fault(outer.secs, target)
        # Both cores were AEX'd by the eviction; resume, finish, exit.
        assert not core0.in_enclave_mode
        assert not core1.in_enclave_mode
        isa.eresume(machine, core1, inner.secs, tcs_vaddr)
        isa.eexit(machine, core1)
        isa.eresume(machine, core0, outer.secs, tcs0_vaddr)
        assert core0.read(target, 8) == (1).to_bytes(8, "little")
        isa.eexit(machine, core0)
        _audit(machine)


class TestInlineServe:
    def test_tlb_resident_page_skips_translate(self, world, monkeypatch):
        """Fill page A, then page B, then read A: A is still in the TLB,
        so the read is served inline with no ``_translate`` call."""
        machine, host, outer, inner = world
        core = machine.cores[0]
        page_a = (outer.heap.base & ~(PAGE_SIZE - 1)) + PAGE_SIZE
        page_b = page_a + PAGE_SIZE
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        core.write(page_a, b"\xA1" * 8)
        core.write(page_b, b"\xB2" * 8)
        assert page_a >> PAGE_SHIFT in core.tlb

        calls = []
        translate = core._translate
        monkeypatch.setattr(core, "_translate",
                            lambda *args: calls.append(args)
                            or translate(*args))
        assert core.read(page_a, 8) == b"\xA1" * 8
        assert calls == []
        _assert_mru(core, page_a)
        isa.eexit(machine, core)
        _audit(machine)


def _walk(world, seed) -> list:
    """Drive one random transition/access/eviction walk.

    Audits every step and returns its trace: per step, the op, the data
    read and every core's TLB contents in LRU order.
    """
    machine, host, outer, inner = world
    rng = random.Random(0xC0FFEE + seed)
    heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
    targets = [heap_page + PAGE_SIZE * i + 64 for i in range(1, 5)]
    flushers = ("enter", "neenter", "neexit", "eexit", "aex")
    trace = []

    for _ in range(120):
        core = rng.choice(machine.cores)
        op = rng.choice(("enter", "neenter", "neexit", "eexit",
                         "aex", "touch", "touch", "touch", "evict"))
        data = None
        if op == "enter" and not core.in_enclave_mode:
            handle = rng.choice((outer, inner))
            isa.eenter(machine, core, handle.secs, handle.idle_tcs())
        elif op == "neenter" and core.current_eid == outer.secs.eid:
            neenter(machine, core, inner.secs, inner.idle_tcs())
        elif op == "neexit" and len(core.enclave_stack) >= 2:
            neexit(machine, core)
        elif op == "eexit" and len(core.enclave_stack) == 1:
            isa.eexit(machine, core)
        elif op == "aex" and len(core.enclave_stack) == 1:
            eid = core.enclave_stack[0]
            tcs_vaddr = core.tcs_stack[0]
            isa.aex(machine, core)
            _assert_stale(core)
            _audit(machine)
            isa.eresume(machine, core, machine.enclave(eid), tcs_vaddr)
        elif op == "touch" and core.current_eid == outer.secs.eid:
            addr = rng.choice(targets) + rng.randrange(32)
            if rng.random() < 0.5:
                data = core.read(addr, rng.choice((1, 8, 16)))
            else:
                core.write(addr, bytes(rng.choice((1, 8, 16))))
        elif (op == "touch" and core.enclave_stack
              and core.current_eid == inner.secs.eid):
            # Inner touching the associated outer's heap (inv. 4).
            data = core.read(rng.choice(targets), 8)
        elif op == "evict" and all(len(c.enclave_stack) <= 1
                                   for c in machine.cores):
            target = rng.choice(targets) & ~(PAGE_SIZE - 1)
            suspended = [(c, c.enclave_stack[0], c.tcs_stack[0])
                         for c in machine.cores if c.in_enclave_mode]
            host.kernel.driver.evict_page(outer.secs, target)
            for c in machine.cores:
                _assert_stale(c)
            _audit(machine)
            assert host.kernel.driver.handle_page_fault(outer.secs, target)
            for c, eid, tcs_vaddr in suspended:
                if not c.in_enclave_mode:   # AEX'd by the shootdown
                    isa.eresume(machine, c, machine.enclave(eid),
                                tcs_vaddr)
        else:
            continue
        if op in flushers:
            _assert_stale(core)
        _audit(machine)
        trace.append((core.core_id, op, data,
                      tuple(c.tlb.capture() for c in machine.cores)))

    # Unwind whatever the walk left running.
    for core in machine.cores:
        while core.enclave_stack:
            if len(core.enclave_stack) >= 2:
                neexit(machine, core)
            else:
                isa.eexit(machine, core)
    _audit(machine)
    return trace


class TestRandomWalk:
    """Random walks, inline serve vs reference, audited and compared per
    step."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sequence(self, seed):
        fast = _walk(_build_world(tlb_entries=TINY_TLB), seed)
        ref = _walk(_build_world(tlb_entries=TINY_TLB,
                                 reference_paths=True), seed)
        assert any(op == "touch" for _core, op, _d, _tlb in fast)
        assert any(len(tlb) == TINY_TLB
                   for *_rest, tlbs in fast for tlb in tlbs)
        for step, (f, r) in enumerate(zip(fast, ref)):
            assert f == r, f"inline and reference diverge at step {step}"
        assert len(fast) == len(ref)
