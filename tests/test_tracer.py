"""The benchmark's tracer still finds what it wraps in the package."""
import sys
from pathlib import Path

import diskdyn
import diskdyn.cli  # noqa: F401  (the tracer walks diskdyn.cli too)
from diskdyn.ifs import MapDescriptor

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    call, vet = MapDescriptor.__call__, MapDescriptor.__post_init__
    t = tracer.Tracer()
    try:
        t.install(diskdyn)
        assert MapDescriptor.__call__ is not call
        assert MapDescriptor.__call__.__wrapped__ is call
        assert MapDescriptor.__post_init__.__wrapped__ is vet
        MapDescriptor((diskdyn.Squaring(),))(0.5)
        t.fold()
        assert t.calls["ifs.map_apply"] == 1 and t.calls["ifs.map_vet"] == 1
    finally:
        t.uninstall()
    assert MapDescriptor.__call__ is call
    assert MapDescriptor.__post_init__ is vet
