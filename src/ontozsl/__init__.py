"""Ontology-guided zero-shot class composition.

Parse lightweight description-logic ontologies, normalize them, embed
concepts as balls and as walk-trained word vectors, then map visual features
into the combined label space to recognize classes never seen in training.
"""

from .elembed import Ball, ElTrainConfig, EmbeddingSpace, total_loss, train_el
from .errors import (
    DataError,
    ElfError,
    NumericalError,
    OntozslError,
    UnknownNameError,
    UnsupportedAxiomError,
)
from .harness import ZslDataset, gen_synthetic, load_dataset, sample_accuracy
from .normalform import NormalizedOntology, classify, normalize
from .ontology import Ontology, parse_ontology, serialize_ontology, validate
from .pipeline import MetricsReport, RunConfig, run_pipeline
from .textwalk import (
    ProjectedGraph,
    SkipGramConfig,
    WalkConfig,
    lexicalize,
    project,
    random_walks,
    train_skipgram,
    word_encoding,
)
from .zslmap import (
    CandidateSet,
    Component,
    EncodingTable,
    encode_labels,
    predict,
    train_ridge,
    train_sae,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CandidateSet",
    "Component",
    "DataError",
    "ElTrainConfig",
    "ElfError",
    "EmbeddingSpace",
    "EncodingTable",
    "MetricsReport",
    "NormalizedOntology",
    "NumericalError",
    "Ontology",
    "OntozslError",
    "ProjectedGraph",
    "RunConfig",
    "SkipGramConfig",
    "UnknownNameError",
    "UnsupportedAxiomError",
    "WalkConfig",
    "ZslDataset",
    "classify",
    "encode_labels",
    "gen_synthetic",
    "lexicalize",
    "load_dataset",
    "normalize",
    "parse_ontology",
    "predict",
    "project",
    "random_walks",
    "run_pipeline",
    "sample_accuracy",
    "serialize_ontology",
    "total_loss",
    "train_el",
    "train_ridge",
    "train_sae",
    "train_skipgram",
    "validate",
    "word_encoding",
]
