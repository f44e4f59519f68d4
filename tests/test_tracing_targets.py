"""The benchmark's tracer rebinds names under ``src/``; each must still exist.

``perfbench/tracing.py`` replaces every ``(owner, attr)`` of ``targets()``
by looking it up in ``owner.__dict__``, so a rename under ``src/`` breaks
every traced benchmark pass.  This test only reads that file.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in tracing["targets"]()
               if attr not in owner.__dict__]
    assert not missing
