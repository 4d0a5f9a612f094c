"""Repository benchmark: workloads, span probes and the runner (see README.md)."""
