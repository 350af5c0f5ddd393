"""Sleep/wake segmentation and four-stage sleep classification from 1 Hz
ballistocardiograph vitals (heart rate, respiration, stroke volume, beat
interval, heart-rate variability).

The pipeline: ingest or synthesize a night -> segment awake/asleep with a
training-free moving threshold over raw heart rate -> extract 10 s window
statistics from the imputed signals -> train/evaluate stage classifiers ->
render figures.
"""

from .core import (
    EPOCH_ZERO,
    NightRecord,
    Stage,
    StageInterval,
    VitalsSample,
    compute_gaps,
)
from .devicesim import (
    DeviceServer,
    DropoutWindow,
    RecordingResult,
    RetryPolicy,
    StreamScript,
    record_stream,
    serve_stream,
)
from .errors import *  # noqa: F401,F403  (error names are part of the API)
from .evaluation import (
    accuracy,
    box_stats,
    confusion_matrix,
    efficiency_comparison,
    macro_f1,
    pearson_r,
    rmse,
)
from .features import (
    FEATURE_NAMES,
    FeatureTable,
    compute_stats,
    pca_explained_variance,
    standardize_apply,
    standardize_fit,
    window_night,
    windows_to_matrix,
)
from .ingest import (
    align_labels,
    load_labels,
    load_night,
    parse_labels,
    parse_night,
    save_night,
    write_labels,
    write_night,
)
from .models import (
    ForestParams,
    SplitSpec,
    TreeParams,
    kfold_indices,
    load_model,
    predict,
    predict_hypnogram,
    save_model,
    split_train_test,
    train_decision_tree,
    train_gaussian_nb,
    train_knn,
    train_random_forest,
)
from .preprocess import clean_for_features, impute_missing, raw_hr_series
from .sleepwake import (
    SleepWakeEpoch,
    ThresholdConfig,
    WakeState,
    moving_threshold,
    run_night,
    sleep_efficiency,
    sleep_onset_latency,
    waso,
)
from .synth import (
    SubjectProfile,
    SynthNight,
    default_profile,
    generate_cohort,
    generate_night,
    generate_step_night,
)

__version__ = "0.1.0"
