"""The benchmark's traced run wraps library functions by name; they must exist."""
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracing_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    undo = []
    try:
        # A name in WRAPPED that the library no longer defines raises here.
        undo = tracing.install(tracing.Recorder())
    finally:
        tracing.uninstall(undo)
    assert len(undo) >= len(tracing.WRAPPED)
    for owner, key, orig in undo:
        assert vars(owner)[key] is orig, (owner, key)
