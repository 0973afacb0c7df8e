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
    """Switch every C entry point off, so the sweep, the log fold and the JSON
    float writer run on their Python twins, as they do where no compiler is
    present."""
    return mock.patch.multiple(_kernels, _sweep_c=None, _log_sum_c=None,
                               _dedup_c=None, _reprs_c=None, _splice_c=None)


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
