import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from finsent.augment import SynonymLexicon
from finsent.corpus import Dataset, HeadlineRecord, SentimentLabel

POS = SentimentLabel.POSITIVE
NEU = SentimentLabel.NEUTRAL
NEG = SentimentLabel.NEGATIVE


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
