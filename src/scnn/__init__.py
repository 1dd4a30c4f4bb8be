"""Shallow text-CNN fold ensembles with random search and top-K stacking."""

__version__ = "0.1.0"

from .corpus import Example, FoldAssignment, TokenSeq, parse_dataset, stratified_kfold, tokenize
from .embeddings import EmbeddingTable, load_embeddings
from .ensemble import Trial, rank, stack_top_k, train_fold_ensemble
from .errors import DataError, NumericError, ScnnError
from .model import HyperParams, ShallowCNN, TrainSchedule, build_model, load_model, save_model, train
from .rng import Rng
from .search import SearchSpace, run_search, sample_config

__all__ = [
    "DataError", "EmbeddingTable", "Example", "FoldAssignment",
    "HyperParams", "NumericError", "Rng", "ScnnError", "SearchSpace",
    "ShallowCNN", "TokenSeq", "TrainSchedule", "Trial",
    "build_model", "load_embeddings", "load_model",
    "parse_dataset", "rank", "run_search", "sample_config", "save_model",
    "stack_top_k", "stratified_kfold", "tokenize", "train",
    "train_fold_ensemble",
]
