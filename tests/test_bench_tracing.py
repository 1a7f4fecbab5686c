from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_targets_resolve(monkeypatch):
    # the traced benchmark run wraps these names; renaming or removing one
    # in the package must fail here, not only in a traced run
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    for owner, attr, name, _ in tracing.TARGETS:
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, f"{name}: {owner.__name__}.{attr} does not exist"
        assert callable(getattr(owner, attr)), f"{name}: {owner.__name__}.{attr} is not callable"
