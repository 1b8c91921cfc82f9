"""Host-time benchmark of the nested-enclave simulator.

Six seeded workloads, one per hot layer of the simulator, measured end
to end with tracing off and split by layer in a separate traced pass.
Run it from the repository root::

    python3 -m bench                          # all six workloads
    python3 -m bench --workload ycsb --seed 3 --seconds 12 --trace 0

See ``bench/README.md`` for the workloads, metrics and noise model.
"""
