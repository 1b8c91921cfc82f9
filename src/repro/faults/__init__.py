"""Seeded, deterministic fault injection for the nested-enclave simulator.

The package provides one injection mechanism for every disturbance the
repo previously modelled ad hoc:

* **AEX/ERESUME** at arbitrary instruction boundaries (via the per-core
  memory-access hook installed on :class:`repro.sgx.cpu.Core`);
* **EPC pressure** — a forced mid-ecall EWB/ELDB round trip through the
  real driver protocol (EBLOCK → ETRACK → IPI → EWB → ELDB);
* **DRAM bit flips** behind the MEE, which authenticated decryption must
  surface as a typed :class:`repro.errors.IntegrityViolation`;
* **lossy IPC** — drop / duplicate / delay / reorder, applied through
  the delivery ``policy`` of the OS message router
  (:class:`repro.os.ipc.IpcRouter`), the hook ``attacks/ipc_drop.py``
  sets to drop.

Every run is replayable from a single integer seed: a :class:`FaultPlan`
is generated with a seeded RNG, serialises to JSON, and the engine fires
each :class:`FaultSpec` at a deterministic trigger point (the N-th
enclave memory access, or the N-th IPC delivery).  No raw ``random`` or
``time`` calls exist on any injection path (enforced by simlint SIM006).

Benign faults (AEX, eviction, IPC delay/duplicate/reorder) are designed
to be *result-transparent*: the engine snapshots and restores the
simulated clock, counters, cost breakdown and cache/TLB state around
each injection, so a chaos replay of an experiment reproduces the
fault-free ``result_fingerprint`` byte for byte.  Malicious faults (bit
flips, message drops past the retry budget) must instead fail loudly
with typed errors.  ``python -m repro.runner --chaos K`` enforces both
properties over the registered experiment suite, and a serialized plan
replays through the plain runner:
``REPRO_FAULT_PLAN="$(cat plan.json)" python -m repro.runner NAMES``.
"""

from repro.faults.plan import FaultPlan, FaultSpec

__all__ = ["FaultPlan", "FaultSpec"]
