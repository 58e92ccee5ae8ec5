"""Host-time benchmark of the attestation simulator (see README.md).

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
