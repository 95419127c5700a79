"""A serial ``SolvePool.map``, kept only because the benchmark traces it.

Refine rounds run in-process and nothing under ``src/`` calls this.  The
span table of ``benchmarks/e2e/tracing.py`` names ``SolvePool.map`` and reads
it from the class on every traced run, so the class stays until ROADMAP
item 3 moves the trace into the engine and deletes ``tracing.py``; this
module goes with it.
"""


class SolvePool:
    def map(self, fn, items):
        return [fn(item) for item in items]
