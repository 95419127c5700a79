"""A stub kept for the benchmark's tracer; see :mod:`repro.exec.pool`."""
