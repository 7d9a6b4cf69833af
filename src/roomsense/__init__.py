"""Zero-shot room labeling for 3D scene graphs.

Rooms are labeled by selecting their most semantically informative
contained objects (lowest co-occurrence entropy), rendering one candidate
sentence per room label, and scoring those sentences with an
autoregressive language model: the highest-scoring label wins.
"""

from .cooccurrence import (
    CooccurrenceTable,
    build_proxy_table,
    count_ground_truth,
    entropy,
    read_table,
    select_informative,
    write_table,
)
from .evaluation import EvalReport, compare_conditions, emit_label_breakdown, evaluate
from .inference import (
    GraphClassification,
    RoomPrediction,
    TrialCondition,
    classify_graph,
    read_predictions,
    write_predictions,
)
from .ingest import (
    IngestConfig,
    apply_spelling_fixes,
    filter_graph,
    parse_scene_file,
    reassign_objects_by_bbox,
    resolve_label_space_conflicts,
    run_pipeline,
    write_scene_file,
)
from .lm_scoring import (
    CachingScorer,
    OfflineScorer,
    RemoteScorer,
    SentenceScore,
    SentenceScorer,
    TokenLogProb,
    TransportError,
)
from .querygen import QueryTemplate, render_proxy_query, render_room_queries
from .scene_model import (
    BoundingBox,
    LabelSpace,
    ObjectNode,
    RoomNode,
    SceneGraph,
    normalize_label,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "CachingScorer",
    "CooccurrenceTable",
    "EvalReport",
    "GraphClassification",
    "IngestConfig",
    "LabelSpace",
    "ObjectNode",
    "OfflineScorer",
    "QueryTemplate",
    "RemoteScorer",
    "RoomNode",
    "RoomPrediction",
    "SceneGraph",
    "SentenceScore",
    "SentenceScorer",
    "TokenLogProb",
    "TransportError",
    "TrialCondition",
    "apply_spelling_fixes",
    "build_proxy_table",
    "classify_graph",
    "compare_conditions",
    "count_ground_truth",
    "emit_label_breakdown",
    "entropy",
    "evaluate",
    "filter_graph",
    "normalize_label",
    "parse_scene_file",
    "read_predictions",
    "read_table",
    "reassign_objects_by_bbox",
    "render_proxy_query",
    "render_room_queries",
    "resolve_label_space_conflicts",
    "run_pipeline",
    "select_informative",
    "write_predictions",
    "write_scene_file",
    "write_table",
]
