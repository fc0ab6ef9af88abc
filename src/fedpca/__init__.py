"""Memory-bounded streaming PCA for federated edge clients.

Clients track a rank-r principal subspace over column streams in O(d(r+b))
memory, optionally releasing only noise-masked covariance slabs for
differential privacy, and a fan-out tree merges client summaries into one
global estimate.
"""

__version__ = "0.1.0"
