"""Zero-shot room labeling for 3D scene graphs.

Rooms are labeled by selecting their most semantically informative
contained objects (lowest co-occurrence entropy), rendering one candidate
sentence per room label, and scoring those sentences with an
autoregressive language model: the highest-scoring label wins.

The interface is the ``roomsense`` command and its file formats
(:mod:`roomsense.cli`); the package itself exports no names.
"""
