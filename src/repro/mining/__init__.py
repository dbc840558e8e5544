"""Trace mining: learn gesture-transition models from recorded session corpora.

An offline loop.  :class:`TraceCorpus` stores recorded traces as
append-only JSONL; :func:`mine_corpus` folds a corpus into a per-object
order-k Markov :class:`GestureTransitionModel` (a versioned JSON
checkpoint artifact); :func:`heldout_hit_rate` scores the model's
next-gesture predictions on unseen traces against the
:func:`persistence_hit_rate` baseline (assume the last gesture kind
repeats).
"""

from repro.mining.corpus import TraceCorpus
from repro.mining.model import (
    GestureTransitionModel,
    heldout_hit_rate,
    mine_corpus,
    persistence_hit_rate,
)

__all__ = [
    "GestureTransitionModel",
    "TraceCorpus",
    "heldout_hit_rate",
    "mine_corpus",
    "persistence_hit_rate",
]
