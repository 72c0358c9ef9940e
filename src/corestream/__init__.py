"""Streaming coreset tree with hierarchical sampling for trainable trackers."""

from .blocks import (
    CoresetBlock,
    DataBlock,
    concat_blocks,
    dist_sq,
    measure_epsilon,
    random_orthonormal,
    reduce_block,
    svd_truncate,
)
from .tree import (
    CoresetNode,
    CoresetTree,
    MergeReport,
    TreeView,
    collapse,
)
from .sampling import (
    RAW_LEVEL,
    RowTag,
    SampleSet,
    hierarchical_sample,
    random_sample,
    root_sample,
    subsample,
)
from .svm import (
    LinearModel,
    TrainParams,
    decisions,
    train_binary,
    train_one_class,
)
from .kalman import (
    KalmanState,
    NoiseParams,
    em_fit,
    kalman_predict,
    kalman_update,
)
from .tracking import (
    DetectParams,
    Frame,
    FrameRecord,
    SyntheticStreamConfig,
    TrackRun,
    TrackerParams,
    detect,
    generate_stream,
    track_stream,
)

__version__ = "0.1.0"

__all__ = [
    "CoresetBlock",
    "CoresetNode",
    "CoresetTree",
    "DataBlock",
    "DetectParams",
    "Frame",
    "FrameRecord",
    "KalmanState",
    "LinearModel",
    "MergeReport",
    "NoiseParams",
    "RAW_LEVEL",
    "RowTag",
    "SampleSet",
    "SyntheticStreamConfig",
    "TrackRun",
    "TrackerParams",
    "TrainParams",
    "TreeView",
    "collapse",
    "concat_blocks",
    "decisions",
    "detect",
    "dist_sq",
    "em_fit",
    "generate_stream",
    "hierarchical_sample",
    "kalman_predict",
    "kalman_update",
    "measure_epsilon",
    "random_orthonormal",
    "random_sample",
    "reduce_block",
    "root_sample",
    "subsample",
    "svd_truncate",
    "track_stream",
    "train_binary",
    "train_one_class",
]
