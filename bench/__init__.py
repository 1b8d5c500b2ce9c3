"""Suite benchmark over the 22 workload queries (see bench/README.md).

Self-contained: imports only ``repro.*``, the standard library and NumPy,
and drives the engine through its public facade alone.
"""
