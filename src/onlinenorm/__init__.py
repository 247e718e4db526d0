"""Batch-free streaming normalization, reference normalizers, and experiments."""

from .emulation import emulate_stream
from .net import (
    DivergenceError,
    MetricsRecord,
    Params,
    TrainConfig,
    scale_hyperparams,
    sgd_momentum_step,
    train,
)
from .config import ConfigError, parse_config, serialize_config
from .datasets import Dataset, DatasetSpec, generate_dataset
from .online import (
    InterleaveError,
    OnlineNorm,
    OnlineNormState,
    backward_sample,
    forward_inference,
    forward_sample,
    layer_scale_backward,
    layer_scale_forward,
    load_state,
    save_state,
)
from .reference import (
    BatchNorm,
    DegenerateBatchError,
    LayerNorm,
    PopulationNorm,
    exact_backward,
    exact_normalize,
    jacobian_dense,
)
from .tensor import (
    SIGMA_FLOOR,
    FeatureMap,
    ShapeError,
    feature_mean,
    feature_var,
    make_rng,
    relu,
    relu_backward,
)

__version__ = "0.1.0"
