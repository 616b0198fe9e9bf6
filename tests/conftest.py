import pytest


@pytest.fixture
def record(monkeypatch):
    """``record(owner, name)`` wraps ``owner.name`` for the test so that each
    call appends its ``(args, result)`` to the list returned: what the call
    was given and gave back.  Counts that a ``perm.Trace`` holds are read
    from a trace instead."""
    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append((args, original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(owner, name, wrapper)
        return calls
    return install
