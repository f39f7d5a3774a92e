"""annembed benchmark: workloads, outside-in tracer and run entry point."""
