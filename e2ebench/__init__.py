"""End-to-end campaign benchmark: whole campaigns through the public entry points.

``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints one JSON result line; ``e2ebench/README.md``
describes the workloads, the metrics and the span file.
"""
