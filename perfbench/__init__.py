"""Repository benchmark: workloads, tracing and checks (see README.md)."""
