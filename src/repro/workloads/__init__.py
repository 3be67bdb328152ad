"""DDLT training paradigms (Table 1) as executable workload generators."""

from .collectives import (
    direct_all_gather,
    flow_count,
    ps_pull,
    ps_push,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    total_bytes,
)
from .arrivals import (
    Arrival,
    ClusterManager,
    JobRecord,
    JobTemplate,
    poisson_arrivals,
)
from .collectives_extra import (
    ALLREDUCE_ALGORITHMS,
    all_reduce,
    halving_doubling_all_reduce,
    hierarchical_all_reduce,
    tree_all_reduce,
)
from .dp import build_dp_allreduce, build_dp_ps
from .faults import (
    degrade_link,
    fail_link,
    inject_background_stream,
    pause_device,
    scale_device_durations,
    with_straggler,
)
from .fsdp import build_fsdp, fsdp_arrangement
from .hybrid3d import build_hybrid_3d, grid_from_hosts
from .job import BuiltJob, add_collective
from .model import (
    GradientBucket,
    LayerSpec,
    ModelSpec,
    PipelineStagePartition,
    uniform_model,
)
from .placement import ClusterPlacer, PlacementError
from .pp import (
    build_pipeline_segment,
    build_pp_1f1b,
    build_pp_gpipe,
    build_pp_interleaved,
    one_f_one_b_order,
)
from .spec import SpecError, run_spec, run_spec_file
from .tp import build_tp_megatron
from .zoo import (
    alexnet,
    bert_large,
    get_model,
    gpt2_xl,
    model_names,
    resnet50,
    tiny_mlp,
    vgg16,
)

__all__ = [
    "Arrival",
    "ClusterManager",
    "JobRecord",
    "JobTemplate",
    "poisson_arrivals",
    "with_straggler",
    "scale_device_durations",
    "inject_background_stream",
    "pause_device",
    "fail_link",
    "degrade_link",
    "run_spec",
    "run_spec_file",
    "SpecError",
    "BuiltJob",
    "add_collective",
    "LayerSpec",
    "ModelSpec",
    "GradientBucket",
    "PipelineStagePartition",
    "uniform_model",
    "build_dp_allreduce",
    "build_dp_ps",
    "build_pp_gpipe",
    "build_pp_1f1b",
    "build_pp_interleaved",
    "one_f_one_b_order",
    "build_pipeline_segment",
    "build_tp_megatron",
    "build_fsdp",
    "build_hybrid_3d",
    "grid_from_hosts",
    "fsdp_arrangement",
    "ClusterPlacer",
    "PlacementError",
    "ring_all_reduce",
    "tree_all_reduce",
    "halving_doubling_all_reduce",
    "hierarchical_all_reduce",
    "all_reduce",
    "ALLREDUCE_ALGORITHMS",
    "ring_all_gather",
    "ring_reduce_scatter",
    "direct_all_gather",
    "ps_push",
    "ps_pull",
    "total_bytes",
    "flow_count",
    "alexnet",
    "vgg16",
    "resnet50",
    "bert_large",
    "gpt2_xl",
    "tiny_mlp",
    "get_model",
    "model_names",
]
