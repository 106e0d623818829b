"""softalign: a desk-scale laboratory for soft cross-modal alignment.

Softened targets from intra-modal self-similarity, negative
disentanglement, and symmetric KL objectives over toy dual-stream
encoders, with hand-derived gradients verified by finite differences and
synthetic many-to-many retrieval benchmarks. The namespace holds no
names: import the module that owns one (``from softalign import harness``).
"""

__version__ = "0.1.0"
