"""Re-importing xfo frees the import before it: no process-wide cache
(``typing``'s subscription cache, say) keeps an xfo class, and through
its methods its module's globals, alive once xfo leaves ``sys.modules``.

A child interpreter imports xfo four times the way ``bench/run.py``'s
set-up does: it deletes every ``xfo``/``xfo.*`` entry from
``sys.modules``, then imports the nine modules. It keeps weakrefs to four
classes of the first import and prints, as JSON, whether each is dead
after ``gc.collect()`` and the count of GC-tracked objects after each
later import. Every weakref must be dead, and the count after the fourth
import within ``SLACK`` of the count after the second. A child, because
dropping xfo from ``sys.modules`` in this process would give the other
test modules two copies of each class.

Run as a script, this file prints that report:  python tests/test_reimport.py
"""
from __future__ import annotations

import gc
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

MODULES = ("dsl", "loader", "ontology", "relations", "dynamics", "microworld", "trace", "render", "errors")
KEPT = (("dynamics", "Wildcard"), ("dynamics", "RunSpec"), ("relations", "World"), ("trace", "TraceEvent"))
# one leaked import keeps about 1,300 GC-tracked objects alive
SLACK = 100


def import_xfo() -> dict:
    for name in [m for m in sys.modules if m == "xfo" or m.startswith("xfo.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"xfo.{m}") for m in MODULES}


def report() -> dict:
    first = import_xfo()
    refs = {f"{m}.{c}": weakref.ref(getattr(first[m], c)) for m, c in KEPT}
    del first
    counts = []
    for _ in range(3):
        import_xfo()
        gc.collect()
        counts.append(len(gc.get_objects()))
    return {"alive": sorted(name for name, ref in refs.items() if ref() is not None), "counts": counts}


def test_a_reimport_frees_the_import_before_it():
    # the child imports xfo from where this process would
    src = Path(importlib.util.find_spec("xfo").origin).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0 and child.stderr == "", child.stderr
    got = json.loads(child.stdout)
    assert got["alive"] == []
    second, _, fourth = got["counts"]
    assert abs(fourth - second) <= SLACK, got["counts"]


if __name__ == "__main__":
    print(json.dumps(report()))
