import multiprocessing
from unittest import mock

import pytest

from priorlda import _kernels

# The eight-line wonderland passage used as a tiny real-text fixture.
ALICE_TEXTS = [
    "Alice was beginning to get very tired of sitting",
    "by her sister on the bank ,",
    "and of having nothing to do :",
    "once or twice she had peeped into the book her sister was reading",
    "but it had no pictures or conversations in it",
    "' and what is the use of a book , '",
    "thought Alice",
    "' without pictures or conversations ? '",
]

ALICE_KEYWORDS = ["book", "pictures", "conversations"]


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """run_grid joins its worker processes before it returns."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def child_runs_first(monkeypatch):
    """Call it to make run_grid's calling process start its first run only
    once a forked child has started one. A 2-job grid's child then surely
    runs one of the plan's first two runs, whichever the caller draws."""
    from priorlda import experiments

    def install():
        started = multiprocessing.get_context("fork").Event()
        run = experiments._run

        def child_first(*args):
            if multiprocessing.parent_process() is None:
                assert started.wait(timeout=60), "no child started a run"
            else:
                started.set()
            return run(*args)

        monkeypatch.setattr(experiments, "_run", child_first)
    return install


@pytest.fixture
def alice_texts():
    return list(ALICE_TEXTS)


@pytest.fixture
def alice_corpus():
    from priorlda.corpus import build_corpus

    return build_corpus(ALICE_TEXTS)


@pytest.fixture
def alice_stats(alice_corpus):
    from priorlda.corpus import compute_stats

    return compute_stats(alice_corpus)


def python_twins():
    """Switch every C entry point off, so each kernel runs on its Python twin,
    as it does where no compiler is present: the handle of each entry of
    ``_kernels._ENTRIES``, ``_<name>_c``, becomes None."""
    return mock.patch.multiple(_kernels, **{f"_{name}_c": None for name in _kernels._ENTRIES})


@pytest.fixture(params=["c", "numpy"])
def backend(request):
    """Run the test against each kernel backend."""
    if request.param == "numpy":
        with python_twins():
            yield request.param
        return
    if _kernels.BACKEND != "c":
        pytest.skip("C kernel not built: no compiler")
    yield request.param
