"""Haptic-biometric authentication toolkit.

Force-trace ingestion and filtering, derivative feature extraction, a
from-scratch transformer encoder classifier with reverse-mode autodiff, and
the user-identification / task-classification / training-size experiments,
all verifiable at desk scale on a synthetic dataset.
"""

from .dataset import (
    DatasetManifest,
    ForceTrace,
    ManifestEntry,
    SynthConfig,
    TraceDataset,
    load_dataset,
    parse_trace_csv,
    save_dataset,
    synth_dataset,
    write_trace_csv,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyTraceError,
    HapticAuthError,
    SchemaError,
    ShapeError,
    TraceOrderingError,
)
from .evaluation import (
    EvalReport,
    ExperimentReport,
    confusion_matrix,
    evaluate_experiment,
    evaluate_model,
    metrics,
)
from .features import (
    FEATURE_NAMES,
    FeatureSequence,
    differentiate,
    extract_features,
    pipeline,
)
from .model import (
    ModelConfig,
    ModelParams,
    build_model,
    cross_entropy,
    forward,
    load_checkpoint,
    mhsa,
    positional_encoding,
    save_checkpoint,
)
from .signal import (
    NormStats,
    ema_filter,
    filter_trace,
    resample,
    zscore_apply,
    zscore_fit,
)
from .trainer import (
    AdamState,
    TrainConfig,
    TrainHistory,
    TrainedModel,
    adam_step,
    cosine_lr,
    load_trained,
    plan_experiment,
    plan_sweep,
    run_jobs,
    save_trained,
    split_dataset,
    train,
)

__version__ = "0.1.0"
