"""Shallow text-CNN fold ensembles with random search and top-K stacking."""

__version__ = "0.1.0"
