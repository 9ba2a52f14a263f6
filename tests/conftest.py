import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from finsent.augment import SynonymLexicon
from finsent.corpus import Dataset, HeadlineRecord, SentimentLabel

POS = SentimentLabel.POSITIVE
NEU = SentimentLabel.NEUTRAL
NEG = SentimentLabel.NEGATIVE


@pytest.fixture(autouse=True)
def time_bound():
    """Fails a test that runs past 120 s, where SIGALRM exists, instead of
    letting it hang the suite (a forked peer that waits on a pipe end still
    open elsewhere never exits).  A forked child does not inherit the alarm."""
    if not hasattr(signal, "alarm"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("test ran past its 120 s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_dataset(rows):
    """rows: iterable of (text, label)."""
    return Dataset(tuple(HeadlineRecord(t, lab) for t, lab in rows))


@pytest.fixture
def five_line_corpus():
    """2 positive / 2 neutral / 1 negative."""
    return make_dataset([
        ("Profit rose clearly", POS),
        ("Orders grew in all regions", POS),
        ("The meeting is on Monday", NEU),
        ("The firm operates in Finland", NEU),
        ("Sales fell sharply", NEG),
    ])


@pytest.fixture
def small_lexicon():
    return SynonymLexicon({
        "profit": ("gain",),
        "shares": ("stock",),
        "rose": ("climbed", "increased"),
        "fell": ("dropped",),
    })
