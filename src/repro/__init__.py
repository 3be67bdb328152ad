"""EchelonFlow: flow scheduling for distributed deep learning training.

Reproduction of Pan, Lei, Li, Xie, Yuan & Xia, "Efficient Flow Scheduling
in Distributed Deep Learning Training with Echelon Formation" (HotNets '22).

Quick tour
----------

>>> from repro import (
...     two_hosts, Engine, EchelonMaddScheduler, build_pipeline_segment,
... )
>>> topo = two_hosts(link_bandwidth=1.0)
>>> job = build_pipeline_segment(
...     "demo", "h0", "h1",
...     release_times=[0.0, 1.0, 2.0],
...     flow_sizes=[2.0, 2.0, 2.0],
...     consumer_compute_times=[2.0, 2.0, 2.0],
... )
>>> engine = Engine(topo, EchelonMaddScheduler())
>>> job.submit_to(engine)
>>> trace = engine.run()
>>> round(trace.last_compute_end(), 6)
8.0

The packages:

* :mod:`repro.core` -- the EchelonFlow abstraction (Defs. 3.1-3.3).
* :mod:`repro.topology` -- capacitated fabrics and routing.
* :mod:`repro.simulator` -- discrete-event compute + fluid network engine.
* :mod:`repro.workloads` -- the Table-1 training paradigms as DAG builders.
* :mod:`repro.scheduling` -- fair sharing, SJF, Varys, and adapted MADD.
* :mod:`repro.faults` -- chaos injection: link faults, rerouting,
  graceful scheduler degradation.
* :mod:`repro.profiling` -- arrangement-distance profiling and noise.
* :mod:`repro.system` -- the Fig. 7 agent/coordinator/backend sketch.
* :mod:`repro.analysis` -- metrics, timelines, and table formatting.
"""

from .analysis import (
    comp_finish_time,
    format_table,
    gpu_idleness,
    job_completion_time,
    pipeline_bubble_fraction,
    render_device_timeline,
    render_flow_timeline,
    tardiness_report,
)
from .core import (
    ArrangementFunction,
    CoflowArrangement,
    EchelonFlow,
    Flow,
    PhasedArrangement,
    StaggeredArrangement,
    TabledArrangement,
    evaluate_tardiness,
    make_coflow,
)
from .scheduling import (
    CoflowMaddScheduler,
    EchelonMaddScheduler,
    FairSharingScheduler,
    ShortestFlowFirstScheduler,
    make_scheduler,
    scheduler_names,
)
from .faults import (
    FaultInjector,
    FaultSchedule,
    ResilientScheduler,
    parse_fault_spec,
)
from .simulator import Engine, TaskDag
from .system import Coordinator, run_cluster
from .topology import (
    Topology,
    big_switch,
    fat_tree,
    leaf_spine,
    linear_chain,
    two_hosts,
)
from .workloads import (
    BuiltJob,
    build_dp_allreduce,
    build_dp_ps,
    build_fsdp,
    build_pipeline_segment,
    build_pp_1f1b,
    build_pp_gpipe,
    build_tp_megatron,
    get_model,
    uniform_model,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Flow",
    "EchelonFlow",
    "ArrangementFunction",
    "CoflowArrangement",
    "StaggeredArrangement",
    "PhasedArrangement",
    "TabledArrangement",
    "make_coflow",
    "evaluate_tardiness",
    # topology
    "Topology",
    "big_switch",
    "two_hosts",
    "linear_chain",
    "leaf_spine",
    "fat_tree",
    # simulator
    "Engine",
    "TaskDag",
    # scheduling
    "FairSharingScheduler",
    "ShortestFlowFirstScheduler",
    "CoflowMaddScheduler",
    "EchelonMaddScheduler",
    "make_scheduler",
    "scheduler_names",
    # faults
    "FaultInjector",
    "FaultSchedule",
    "ResilientScheduler",
    "parse_fault_spec",
    # workloads
    "BuiltJob",
    "build_dp_allreduce",
    "build_dp_ps",
    "build_pp_gpipe",
    "build_pp_1f1b",
    "build_pipeline_segment",
    "build_tp_megatron",
    "build_fsdp",
    "get_model",
    "uniform_model",
    # system
    "Coordinator",
    "run_cluster",
    # analysis
    "comp_finish_time",
    "job_completion_time",
    "gpu_idleness",
    "pipeline_bubble_fraction",
    "tardiness_report",
    "render_device_timeline",
    "render_flow_timeline",
    "format_table",
]
