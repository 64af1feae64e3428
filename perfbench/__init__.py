"""End-to-end and per-layer benchmark of the repro system.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; compare two result files with
``python3 perfbench/compare.py A.jsonl B.jsonl``.  See ``perfbench/README.md``.
"""
