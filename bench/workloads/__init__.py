"""The five workloads.  Each module exposes ``setup(seed, scale, trace,
**options) -> Context``, ``iterate(context, tracer) -> Sample`` and
``teardown(context)``; ``bench.harness`` imports them inside the forked
round, so importing the library is part of every set-up."""
