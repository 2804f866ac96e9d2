"""Workbench for learned and table-driven cache prefetchers.

The pipeline goes: synthetic (or recorded) access traces -> set-associative
cache simulation -> miss delta streams -> delta vocabularies or address
clusters -> LSTM sequence models and hardware-style baselines, scored by
precision@10 / recall@10 over predicted delta sets.
"""

__version__ = "0.1.0"
