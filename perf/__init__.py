"""Performance ledger for the MGS reproduction: see perf/README.md."""
