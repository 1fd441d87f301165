"""The repository benchmark: four workloads, end-to-end and per-layer
metrics, and a comparison of two sets of runs.  See README.md."""
