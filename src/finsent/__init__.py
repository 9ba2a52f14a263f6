"""finsent: financial news headline sentiment toolkit.

Corpus handling, token-level augmentation, TF-IDF features,
a logistic-regression baseline, a from-scratch transformer encoder with
low-rank-adapter fine-tuning, prompt-driven prediction against pluggable
generation backends, and a three-class evaluation suite.
"""
from . import analysis, augment, corpus, encoder, features, linear_model, metrics, promptkit
from .corpus import (
    LABELS,
    Dataset,
    HeadlineRecord,
    SentimentLabel,
    class_counts,
    load_corpus,
    parse_corpus,
    serialize_dataset,
    stratified_split,
    upsample,
    write_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "LABELS", "Dataset", "HeadlineRecord", "SentimentLabel", "analysis",
    "augment", "class_counts", "corpus", "encoder", "features", "linear_model",
    "load_corpus", "metrics", "parse_corpus", "promptkit", "serialize_dataset",
    "stratified_split", "upsample", "write_corpus",
]
