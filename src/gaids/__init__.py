"""Batch network-intrusion classifier for KDD99-style connection records.

Two phases: a single training pass merges labeled records into chromosome
groups by proximity (prototype centroids with running spread), then each
test record is classified by a small genetic search whose surviving
candidate's nearest chromosome group gives the prediction.

The package re-exports nothing, so that importing one submodule (say
gaids.model) does not import the others.
"""

__version__ = "0.1.0"
