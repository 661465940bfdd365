"""quantkit: symmetric integer quantization with outlier-aware mixed grouping.

Quantize transformer weight matrices to low-bit integers per-channel or
per-group, profile per-layer quantization error and outlier walls, plan
mixed-granularity quantization for the few layers that need it, and run
the quantized matmul against an exact float64 oracle.
"""

from .analyzer import (
    LayerMetrics,
    WallDetectorConfig,
    detect_walls,
    layer_max_abs,
    layer_rmse,
    profile_model,
)
from .kernels import matmul_per_channel, matmul_per_group, reference_matmul_fp
from .model_store import (
    KIND_ORDER,
    ModelManifest,
    TensorRecord,
    layer_index_of,
    layer_name,
    open_model,
    parse_layer_name,
    read_model,
    write_model,
)
from .planner import (
    PlanConfig,
    QuantPlan,
    SweepRow,
    apply_plan,
    build_plan,
    quantized_view,
    sweep_group_size,
)
from .quantizer import (
    GroupingScheme,
    QuantParams,
    QuantizedTensor,
    dequantize,
    fit_group_size,
    quantize_activation,
    quantize_weight,
)
from .report import EvalSummary, TaskResult, aggregate_accuracy
from .synth import SynthConfig, generate, inject_walls

__version__ = "0.1.0"

__all__ = [
    "EvalSummary",
    "GroupingScheme",
    "KIND_ORDER",
    "LayerMetrics",
    "ModelManifest",
    "PlanConfig",
    "QuantParams",
    "QuantPlan",
    "QuantizedTensor",
    "SweepRow",
    "SynthConfig",
    "TaskResult",
    "TensorRecord",
    "WallDetectorConfig",
    "aggregate_accuracy",
    "apply_plan",
    "build_plan",
    "dequantize",
    "detect_walls",
    "fit_group_size",
    "generate",
    "inject_walls",
    "layer_index_of",
    "layer_max_abs",
    "layer_name",
    "layer_rmse",
    "matmul_per_channel",
    "matmul_per_group",
    "open_model",
    "parse_layer_name",
    "profile_model",
    "quantize_activation",
    "quantize_weight",
    "quantized_view",
    "read_model",
    "reference_matmul_fp",
    "sweep_group_size",
    "write_model",
]
