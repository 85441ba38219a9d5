"""Walk-count link prediction on geolocated temporal networks.

The package scores ordered node pairs by damped walk counts over a
directed adjacency matrix (plain, distance-weighted, or pairwise
distance-decayed), evaluates the scores as a binary link predictor
under a chronological train/validation/test protocol, and ships a
seeded synthetic movement-network generator plus a batch CLI that runs
the whole pipeline from one config file.
"""

from .config import ALL_MODELS, RunConfig, load_run_config, parse_run_config
from .errors import (BetaDomainError, ConfigError, DataError,
                     DegenerateLabelsError, DegenerateScoreTableWarning,
                     EmptyNetworkError, EmptySplitError, GeokatzError,
                     NumericError, RowError, SchemaError,
                     UniverseMismatchError)
from .geo import (EARTH_RADIUS_KM, WEIGHT_TRANSFORMS, decay_weights,
                  haversine_km, pair_distances, transform_weights,
                  weighted_adjacency)
from .graphs import (IngestReport, NodeRegistry, PairUniverse, SplitSpec,
                     TemporalNetwork, build_adjacency, build_network,
                     candidate_pairs, ingest_movements, temporal_split)
from .katz import (KatzConfig, ScoreTable, SpectralRadius, combine,
                   edge_weighted_katz_scores, katz_scores, normalize,
                   resolve_beta, spectral_radius, write_score_table)
from .metrics import (ConfusionMatrix, Curve, EvaluationReport, confusion_at,
                      evaluate, f1, optimal_threshold, precision, recall,
                      write_curve, write_report)
from .pipeline import PipelineResult, run, run_scores_only
from .synth import SynthConfig, generate, write_movements, write_truth

__version__ = "0.1.0"

__all__ = [
    "ALL_MODELS", "BetaDomainError", "ConfigError", "ConfusionMatrix", "Curve",
    "DataError", "DegenerateLabelsError", "DegenerateScoreTableWarning",
    "EARTH_RADIUS_KM", "EmptyNetworkError", "EmptySplitError",
    "EvaluationReport", "GeokatzError", "IngestReport", "KatzConfig",
    "NodeRegistry", "NumericError", "PairUniverse", "PipelineResult",
    "RowError", "RunConfig", "SchemaError", "ScoreTable", "SpectralRadius",
    "SplitSpec", "SynthConfig", "TemporalNetwork", "UniverseMismatchError",
    "WEIGHT_TRANSFORMS", "build_adjacency", "build_network", "candidate_pairs",
    "combine", "confusion_at", "decay_weights", "edge_weighted_katz_scores",
    "evaluate", "f1", "generate", "haversine_km", "ingest_movements",
    "katz_scores", "load_run_config", "normalize", "optimal_threshold",
    "pair_distances", "parse_run_config", "precision", "recall",
    "resolve_beta", "run", "run_scores_only", "spectral_radius",
    "temporal_split", "transform_weights", "weighted_adjacency", "write_curve",
    "write_movements", "write_report", "write_score_table", "write_truth",
]
