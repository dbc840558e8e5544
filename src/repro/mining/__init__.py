"""Trace mining: learn gesture policies from recorded session corpora.

The fleet-scale adaptive loop.  :class:`TraceCorpus` stores recorded
traces as append-only JSONL; :func:`mine_corpus` folds a corpus into a
per-object order-k Markov :class:`GestureTransitionModel` (a versioned
JSON checkpoint artifact); :class:`SpeculativePolicy` ships the mined
model back into serving, predicting each object's next gesture and
driving speculative background warm-ups — without ever changing gesture
results (see :mod:`repro.mining.policy`).
"""

from repro.mining.corpus import TraceCorpus
from repro.mining.model import (
    GestureTransitionModel,
    heldout_hit_rate,
    mine_corpus,
    persistence_hit_rate,
)
from repro.mining.policy import SpeculationPlan, SpeculativePolicy

__all__ = [
    "GestureTransitionModel",
    "SpeculationPlan",
    "SpeculativePolicy",
    "TraceCorpus",
    "heldout_hit_rate",
    "mine_corpus",
    "persistence_hit_rate",
]
