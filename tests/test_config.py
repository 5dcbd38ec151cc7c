import pytest

from rieszlab.config import thread_count


def test_thread_count_explicit_wins():
    assert thread_count(5) == 5
    for threads in (0, -1):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            thread_count(threads)


def test_thread_count_env(monkeypatch):
    # nothing reads RIESZ_LAB_THREADS: setting it leaves the count unchanged
    monkeypatch.delenv("RIESZ_LAB_THREADS", raising=False)
    default = thread_count()
    assert default >= 1
    monkeypatch.setenv("RIESZ_LAB_THREADS", "1")
    assert thread_count() == default
