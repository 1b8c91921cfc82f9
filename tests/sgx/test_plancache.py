"""Property tests for the per-core access plan, the only translation cache.

The plan cache (:class:`repro.sgx.cpu.Core`) may serve a single-page
access without re-walking the Fig. 6 automaton or probing the TLB only
while its snapshot of ``Tlb.content_gen`` is current — so the validate-once
security argument extends to it *iff* every event that can change a
validation outcome also moves the content epoch: transition flushes
(EENTER/NEENTER/NEEXIT/EEXIT/AEX), explicit flushes, IPI shootdowns,
and the EWB/ELDB eviction protocol.  (A NASSO *grant* is monotone — it
only adds rights, so plans validated before it stay valid; the
teardown path, ``disassociate``, performs a full shootdown.)

Random transition/eviction/flush walks with bulk accesses audit, after
every step,

* the four §VII-A invariants via :mod:`repro.core.invariants`, and
* the plan cache's structural invariant: while its stamp matches
  ``content_gen``, every compiled record is backed by the *same*
  validated TLB entry object for its page — the exact condition under
  which serving from the plan is unobservable.

Run-boundary equivalence is pinned separately: runs crossing cache-line
and page boundaries must return per-byte-identical data, with the LLC
warm and cold and with MEE byte encryption on and off, and runs
crossing into an EWB'd page must fault, recharge, and reload exactly
like the reference replay (``MachineConfig.reference_paths``, access
plan disabled).
"""

import random

import pytest

from repro.core import NestedValidator, audit_machine, neenter, neexit
from repro.errors import PageFault
from repro.os import Kernel
from repro.perf.fingerprint import machine_fingerprint
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine, isa
from repro.sgx.constants import (PAGE_SHIFT, PAGE_SIZE,
                                 SmallMachineConfig)

EDL = """
enclave {
    trusted {
        public int bump(int addr);
    };
};
"""


def _bump(ctx, addr):
    value = int.from_bytes(ctx.read(addr, 8), "little") + 1
    ctx.write(addr, value.to_bytes(8, "little"))
    return value


def plan_violations(core) -> list[str]:
    """Audit one core's plan cache against its TLB.

    A stale plan (content-epoch mismatch) is always fine — the fast
    path refuses it and ``_plan_add`` clears it before reuse.  A *live*
    one must be a subset of the TLB's current content: same entry
    object, consistent physical base.
    """
    tlb = core.tlb
    if core._plan_gen != tlb.content_gen:
        return []
    errs = []
    for vpn, (entry, base, _prm, _crypto) in core._plan.items():
        backing = tlb._entries.get(vpn)
        if backing is not entry:
            errs.append(
                f"core{core.core_id}: plan[{vpn:#x}] is not backed by "
                f"the TLB's entry for that page")
        elif base != entry.pfn << PAGE_SHIFT:
            errs.append(
                f"core{core.core_id}: plan[{vpn:#x}] base {base:#x} "
                f"disagrees with pfn {entry.pfn:#x}")
    return errs


def _cold_llc(machine) -> None:
    """Drop every LLC line in place (the cores alias the set list)."""
    for lru in machine.llc._sets:
        lru.clear()


def _audit(machine) -> None:
    assert audit_machine(machine) == []
    for core in machine.cores:
        assert plan_violations(core) == []


def _assert_plan_stale(core) -> None:
    """The core's plan cache must be unusable until recompiled."""
    assert core._plan_gen != core.tlb.content_gen, (
        f"core{core.core_id}: access plan survived a TLB content change")


def _assert_plan_live(core) -> None:
    assert core._plan_gen == core.tlb.content_gen
    assert core._plan, f"core{core.core_id}: no pages compiled"


def _build_world(**config_overrides):
    machine = Machine(SmallMachineConfig(num_cores=2, **config_overrides),
                      validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("plancache")
    outer_builder = EnclaveBuilder("pc-outer", parse_edl(EDL),
                                   signing_key=key, num_tcs=4,
                                   heap_bytes=8 * PAGE_SIZE)
    outer_builder.add_entry("bump", _bump)
    outer_probe = outer_builder.build()

    inner_builder = EnclaveBuilder("pc-inner", parse_edl(EDL),
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
    """One explicit compile → event → stale check per epoch mover."""

    def test_every_transition_invalidates(self, world):
        machine, host, outer, inner = world
        core = machine.cores[0]
        heap = outer.heap.base
        span = 2 * PAGE_SIZE

        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        _assert_plan_stale(core)
        core.read(heap, span)                   # compile the plan
        _assert_plan_live(core)
        core.read(heap, span)                   # served from the plan
        _assert_plan_live(core)
        _audit(machine)

        neenter(machine, core, inner.secs, inner.idle_tcs())
        _assert_plan_stale(core)
        core.read(heap, span)                   # inner over outer heap
        _assert_plan_live(core)

        neexit(machine, core)
        _assert_plan_stale(core)
        core.read(heap, span)
        _assert_plan_live(core)

        tcs_vaddr = core.tcs_stack[0]
        isa.aex(machine, core)
        _assert_plan_stale(core)
        isa.eresume(machine, core, outer.secs, tcs_vaddr)
        _assert_plan_stale(core)
        core.read(heap, span)
        _assert_plan_live(core)

        core.flush_tlb()
        _assert_plan_stale(core)
        core.read(heap, span)
        _assert_plan_live(core)

        machine.flush_all_tlbs()
        for c in machine.cores:
            _assert_plan_stale(c)
        core.read(heap, span)
        _assert_plan_live(core)

        isa.eexit(machine, core)
        _assert_plan_stale(core)
        _audit(machine)

    def test_ewb_shootdown_invalidates_all_cores(self, world):
        machine, host, outer, inner = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + 2 * PAGE_SIZE
        outer.ecall("bump", target)
        core0, core1 = machine.cores

        tcs0_vaddr = outer.idle_tcs()
        isa.eenter(machine, core0, outer.secs, tcs0_vaddr)
        core0.read(target, PAGE_SIZE)
        tcs_vaddr = inner.idle_tcs()
        isa.eenter(machine, core1, inner.secs, tcs_vaddr)
        core1.read(target, PAGE_SIZE)
        _assert_plan_live(core0)
        _assert_plan_live(core1)

        host.kernel.driver.evict_page(outer.secs, target)
        for core in machine.cores:
            _assert_plan_stale(core)
        _audit(machine)

        assert host.kernel.driver.handle_page_fault(outer.secs, target)
        # ELDB mints a fresh frame: any plan compiled before the round
        # trip must stay dead even though the page is resident again.
        for core in machine.cores:
            _assert_plan_stale(core)
        isa.eresume(machine, core1, inner.secs, tcs_vaddr)
        isa.eexit(machine, core1)
        isa.eresume(machine, core0, outer.secs, tcs0_vaddr)
        assert core0.read(target, 8) == (1).to_bytes(8, "little")
        isa.eexit(machine, core0)
        _audit(machine)

    def test_reference_cores_never_compile(self):
        machine, host, outer, inner = _build_world(reference_paths=True)
        core = machine.cores[0]
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        core.read(outer.heap.base, 2 * PAGE_SIZE)
        assert core._plan == {}
        _assert_plan_stale(core)   # the -2 pin never matches any epoch
        isa.eexit(machine, core)


class TestRandomWalk:
    """Random transition/bulk-access/eviction/flush sequences, audited
    per step."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sequence(self, world, seed):
        machine, host, outer, inner = world
        rng = random.Random(0xBEEF00 + seed)
        heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
        targets = [heap_page + PAGE_SIZE * i for i in range(1, 5)]
        sizes = (8, 96, PAGE_SIZE, 2 * PAGE_SIZE + 24)
        flushers = ("enter", "neenter", "neexit", "eexit", "aex",
                    "flush", "shootdown")

        for _ in range(120):
            core = rng.choice(machine.cores)
            op = rng.choice(("enter", "neenter", "neexit", "eexit",
                             "aex", "flush", "shootdown",
                             "touch", "touch", "touch", "evict"))
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
                _assert_plan_stale(core)
                _audit(machine)
                isa.eresume(machine, core, machine.enclave(eid),
                            tcs_vaddr)
            elif op == "flush":
                core.flush_tlb()
            elif op == "shootdown":
                machine.flush_all_tlbs()
                for c in machine.cores:
                    _assert_plan_stale(c)
            elif op == "touch" and core.current_eid == outer.secs.eid:
                # Bulk runs over the outer heap: recompile after any
                # flush above, then serve from the plan.
                addr = rng.choice(targets) + rng.randrange(64)
                size = rng.choice(sizes)
                if rng.random() < 0.5:
                    core.read(addr, size)
                else:
                    core.write(addr, bytes(size))
                _assert_plan_live(core)
            elif (op == "touch" and core.enclave_stack
                  and core.current_eid == inner.secs.eid):
                # Inner bulk-reading the associated outer's heap
                # (inv. 4) compiles plans across the association edge.
                core.read(rng.choice(targets), rng.choice(sizes))
                _assert_plan_live(core)
            elif op == "evict" and all(len(c.enclave_stack) <= 1
                                       for c in machine.cores):
                target = rng.choice(targets)
                suspended = [(c, c.enclave_stack[0], c.tcs_stack[0])
                             for c in machine.cores if c.in_enclave_mode]
                host.kernel.driver.evict_page(outer.secs, target)
                for c in machine.cores:
                    _assert_plan_stale(c)
                _audit(machine)
                assert host.kernel.driver.handle_page_fault(outer.secs,
                                                            target)
                for c, eid, tcs_vaddr in suspended:
                    if not c.in_enclave_mode:   # AEX'd by the shootdown
                        isa.eresume(machine, c, machine.enclave(eid),
                                    tcs_vaddr)
            else:
                continue
            if op in flushers:
                _assert_plan_stale(core)
            _audit(machine)

        # Unwind whatever the walk left running.
        for core in machine.cores:
            while core.enclave_stack:
                if len(core.enclave_stack) >= 2:
                    neexit(machine, core)
                else:
                    isa.eexit(machine, core)
        _audit(machine)


#: Spans (offset into the heap, size) crossing every boundary the memory
#: path must charge exactly: inside one line, across a cache line,
#: across a page, multi-page unaligned, multi-page aligned.
BOUNDARY_SPANS = (
    (3, 5),
    (64 - 3, 6),
    (PAGE_SIZE - 5, 10),
    (17, 2 * PAGE_SIZE + 31),
    (0, 4 * PAGE_SIZE),
)

#: TLB capacity for the reference comparison: below the sequence's
#: five-page working set, so it capacity-evicts, but large enough for
#: the warm passes over pages 0-3 to hit, keeping the plan live.
TINY_TLB = 4


class TestRunBoundaryEquivalence:
    def _sequence(self, machine, core, outer):
        """The fixed boundary-crossing access sequence both paths run.

        The LLC-cold passes drop every line (both machines alike), so
        the plan-served single-page accesses miss to PRM: reads through
        the MEE decrypt, the write-back of the same bytes through its
        encrypt.  Returns the data read and the final TLB contents, LRU
        order included."""
        heap = outer.heap.base
        pattern = bytes(i & 0xFF for i in range(5 * PAGE_SIZE))
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        core.write(heap, pattern)
        out = []
        for offset, size in BOUNDARY_SPANS:
            out.append(core.read(heap + offset, size))
        core.flush_tlb()              # force a recompile mid-sequence
        for _ in range(2):            # the second pass runs warm
            for offset, size in BOUNDARY_SPANS:
                out.append(core.read(heap + offset, size))
        _cold_llc(machine)
        cold = [core.read(heap + offset, size)
                for offset, size in BOUNDARY_SPANS]
        out += cold
        _cold_llc(machine)
        for (offset, _size), data in zip(BOUNDARY_SPANS, cold):
            core.write(heap + offset, data)
        out.append(core.read(heap + 8, 8))     # promote page 0 from LRU
        out.append(core.read(heap + 4 * PAGE_SIZE, 8))  # evicts the LRU
        tlb = core.tlb.capture()
        isa.eexit(machine, core)
        return out, tlb

    def test_bulk_reads_equal_per_byte_reads(self, world):
        machine, host, outer, inner = world
        core = machine.cores[0]
        heap = outer.heap.base
        runs, _tlb = self._sequence(machine, core, outer)
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        for (offset, size), data in zip(BOUNDARY_SPANS, runs):
            per_byte = b"".join(core.read(heap + offset + i, 1)
                                for i in range(size))
            assert per_byte == data
        isa.eexit(machine, core)
        _audit(machine)

    def _assert_matches_reference(self, mee_bytes):
        fast_m, _h, fast_outer, _i = _build_world(
            tlb_entries=TINY_TLB, mee_encrypt_bytes=mee_bytes)
        ref_m, _h2, ref_outer, _i2 = _build_world(
            tlb_entries=TINY_TLB, mee_encrypt_bytes=mee_bytes,
            reference_paths=True)
        fast, fast_tlb = self._sequence(fast_m, fast_m.cores[0],
                                        fast_outer)
        ref, ref_tlb = self._sequence(ref_m, ref_m.cores[0], ref_outer)
        assert fast == ref
        assert fast_tlb == ref_tlb
        assert len(fast_tlb) == TINY_TLB
        assert fast_m.counters.get("mee_line_encrypt") > 0
        assert fast_m.counters.get("mee_line_decrypt") > 0
        assert machine_fingerprint(fast_m) == machine_fingerprint(ref_m)

    def test_boundary_runs_match_reference_bit_for_bit(self):
        """Same sequence, compiled vs ``reference_paths``: data, clock,
        counters, breakdown, ciphertext, MEE root, and TLB contents in
        LRU order all identical.  The TLB is small enough that the
        sequence capacity-evicts, so a plan hit that skipped (or
        misordered) its LRU promotion would evict a different page."""
        self._assert_matches_reference(mee_bytes=True)

    def test_boundary_runs_match_reference_with_mee_bytes_off(self):
        """The same comparison with ``mee_encrypt_bytes=False``, the
        configuration every performance experiment runs: MEE time is
        charged, DRAM holds plaintext."""
        self._assert_matches_reference(mee_bytes=False)

    def test_run_into_an_ewbed_page_matches_reference(self):
        """EPC-section boundary: a run whose tail page was EWB'd must
        abort with the same #PF, charge the same partial work, and
        complete identically after ELDB — on both paths."""
        outcomes = []
        for overrides in ({}, {"reference_paths": True}):
            machine, host, outer, _inner = _build_world(**overrides)
            core = machine.cores[0]
            heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
            target = heap_page + PAGE_SIZE          # second heap page
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
            core.write(outer.heap.base, bytes(range(256)) * 32)
            isa.eexit(machine, core)

            host.kernel.driver.evict_page(outer.secs, target)
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
            with pytest.raises(PageFault) as excinfo:
                core.read(outer.heap.base, 2 * PAGE_SIZE)
            assert host.kernel.driver.handle_page_fault(outer.secs,
                                                        target)
            data = core.read(outer.heap.base, 2 * PAGE_SIZE)
            isa.eexit(machine, core)
            outcomes.append((excinfo.value.vaddr, data,
                             machine_fingerprint(machine)))
        assert outcomes[0] == outcomes[1]
