"""Pipeline parallelism -- the paper's Case II -- as schedule tables.

The model is partitioned into ``p * v`` contiguous chunks over ``p``
workers; chunk ``c`` runs on worker ``c % p`` (``v = 1`` gives one stage
per worker). Each mini-batch is split into micro-batches that stream
through the chunks: activations flow forward between consecutive chunks
and activation gradients flow backward, as point-to-point transfers.

A schedule is a *table*: one sequence of ops ``(kind, chunk,
micro_batch)`` with ``kind`` in ``{"F", "B"}``. A worker runs its ops in
sequence order (its *row*), and :func:`_build_pipeline` derives the whole
job from the table -- dependencies, device priorities, flows and their
EchelonFlows. Each schedule is a short table generator:

* GPipe (Fig. 1): all forwards by chunk, flush, then all backwards in
  reverse chunk and micro-batch order;
* interleaved (Megatron-LM virtual stages): the same flush over ``v``
  chunks per worker, which shrinks the fill/drain bubble by about
  ``1/v`` at ``v``-fold boundary traffic, including a wrap-around hop
  from the last worker back to the first;
* synchronous 1F1B (PipeDream-flush): each stage's
  :func:`one_f_one_b_order` row, which caps in-flight activations at
  ``p - s`` and interleaves forward and backward traffic.

EchelonFlows: the flows crossing one chunk boundary in one direction in
one iteration form an EchelonFlow; each flow's index is its consumer op's
position among the consumer's ops for that boundary. When the consumer
runs those ops back to back, flow ``f_j`` should ideally finish ``T``
after ``f_{j-1}``, ``T`` being the consumer's per-micro-batch compute time
(Eq. 6). When the schedule reorders work -- in 1F1B's steady state each
forward is consumed a full ``T_fwd + T_bwd`` cycle after the previous
one -- the paper's "more complicated than Eq. 6" arrangement applies: a
:class:`TabledArrangement` of the consumer's running compute clock,
exactly what profiling would report.

:func:`build_pipeline_segment` is the two-worker slice of this pattern used
by the Fig. 2 motivating example and the Fig. 6 intuition figure.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.arrangement import (
    ArrangementFunction,
    StaggeredArrangement,
    TabledArrangement,
)
from ..core.echelonflow import EchelonFlow
from ..core.flow import Flow
from ..simulator.dag import TaskDag
from .job import BuiltJob, check_hosts
from .model import ModelSpec

#: One schedule op: ``("F" | "B", chunk, micro_batch)``.
Op = Tuple[str, int, int]
#: A task waiting for insertion: ``(task_id, deps, add-to-the-DAG)``.
_Spec = Tuple[str, List[str], Callable[[], object]]


def one_f_one_b_order(
    stage: int, num_stages: int, num_micro_batches: int
) -> List[Tuple[str, int]]:
    """The per-stage task order of synchronous 1F1B.

    Returns a list of ("F" | "B", micro_batch) pairs: ``p - s`` warm-up
    forwards (at most ``num_micro_batches``), then one backward, one
    forward until forwards run out, then the remaining backwards.
    """
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range for {num_stages} stages")
    if num_micro_batches < 1:
        raise ValueError(f"need >= 1 micro-batches, got {num_micro_batches}")
    warmup = min(num_stages - stage, num_micro_batches)
    order: List[Tuple[str, int]] = [("F", mb) for mb in range(warmup)]
    for mb in range(warmup, num_micro_batches):
        order += [("B", mb - warmup), ("F", mb)]
    order += [("B", mb) for mb in range(num_micro_batches - warmup, num_micro_batches)]
    return order


def _flush_table(num_chunks: int, num_micro_batches: int) -> List[Op]:
    """GPipe flush: every forward by chunk, then every backward reversed."""
    micro_batches = range(num_micro_batches)
    return [("F", c, mb) for c in range(num_chunks) for mb in micro_batches] + [
        ("B", c, mb)
        for c in reversed(range(num_chunks))
        for mb in reversed(micro_batches)
    ]


def _one_f_one_b_table(num_stages: int, num_micro_batches: int) -> List[Op]:
    """1F1B: the per-stage rows, concatenated stage by stage."""
    return [
        (kind, s, mb)
        for s in range(num_stages)
        for kind, mb in one_f_one_b_order(s, num_stages, num_micro_batches)
    ]


def _insert_topologically(dag: TaskDag, specs: List[_Spec]) -> None:
    """Run each ``(task_id, deps, add)`` spec once its deps are in ``dag``.

    Specs run in table order. One whose dep comes later (a 1F1B backward
    waits for the next stage's gradient) makes ``add`` raise ``KeyError``
    and is parked until that dep is added.
    """
    parked: Dict[str, List[_Spec]] = {}
    stack = specs[::-1]
    while stack:
        task_id, deps, add = stack.pop()
        try:
            add()
        except KeyError:
            missing = next(dep for dep in deps if dep not in dag)
            parked.setdefault(missing, []).append((task_id, deps, add))
        else:
            stack.extend(reversed(parked.pop(task_id, ())))
    if parked:
        raise RuntimeError("pipeline schedule table has a dependency cycle")


def _build_pipeline(
    job_id: str,
    model: ModelSpec,
    workers: Sequence[str],
    num_micro_batches: int,
    iterations: int,
    update_time: float,
    *,
    num_chunks: int,
    make_table: Callable[[int, int], List[Op]],
    paradigm: str,
    span_tag: str = "{kind} mb{mb}",
    flow_tag: str = "{word} s{src}->s{dst} mb{mb}",
    comm_suffix: str = "/s0",
    min_flow_bytes: float = 0.0,
) -> BuiltJob:
    """One pipeline job from the table ``make_table(num_chunks, m)``.

    Each op depends on the previous op in its worker's row, on its input
    (the upstream activation, the downstream gradient, or -- for the last
    chunk's backward -- its own forward) and on the previous iteration's
    barrier or update tasks; its device priority is its row position.
    ``span_tag``, ``flow_tag``, ``comm_suffix`` and ``min_flow_bytes``
    spell the job's spans, flows and comm tasks, which trace digests see.
    """
    if num_micro_batches < 1:
        raise ValueError(f"need >= 1 micro-batches, got {num_micro_batches}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    p = len(workers)
    chunks = model.pipeline_partition(num_chunks)
    m_frac = 1.0 / num_micro_batches
    op_time = {
        "F": [c.forward_time * m_frac for c in chunks],
        "B": [c.backward_time * m_frac for c in chunks],
    }
    act_bytes = [
        max(c.boundary_activation_bytes * m_frac, min_flow_bytes) for c in chunks
    ]

    table = make_table(num_chunks, num_micro_batches)
    rows: List[List[Op]] = [[] for _ in range(p)]
    for op in table:
        rows[op[1] % p].append(op)
    position = {op: i for row in rows for i, op in enumerate(row)}
    previous = {row[i]: row[i - 1] for row in rows for i in range(1, len(row))}
    # The consumer's ops of each boundary, keyed by (kind, chunk), in row order.
    consumed: Dict[Tuple[str, int], List[Op]] = {}
    for row in rows:
        for op in row:
            consumed.setdefault(op[:2], []).append(op)
    index_in_group = {op: j for ops in consumed.values() for j, op in enumerate(ops)}
    last_backward = {op[1]: op for op in table if op[0] == "B"}

    def arrangement(kind: str, chunk: int) -> ArrangementFunction:
        ops = consumed[(kind, chunk)]
        spots = [position[op] for op in ops]
        if spots == list(range(spots[0], spots[0] + len(spots))):
            return StaggeredArrangement(distance=op_time[kind][chunk])
        start: Dict[Op, float] = {}
        clock = 0.0
        for op in rows[chunk % p]:
            start[op] = clock
            clock += op_time[op[0]][op[1]]
        return TabledArrangement(tuple(start[op] - start[ops[0]] for op in ops))

    # Per direction, boundary c <-> c + 1's EchelonFlow label and arrangement.
    boundaries = range(num_chunks - 1)
    groups = {
        "F": [(f"fwd{c}-{c + 1}", arrangement("F", c + 1)) for c in boundaries],
        "B": [(f"bwd{c + 1}-{c}", arrangement("B", c)) for c in boundaries],
    }

    dag = TaskDag(job_id)
    echelonflows: List[EchelonFlow] = []
    barrier_deps: List[str] = []

    for it in range(iterations):
        # Fresh EchelonFlows each iteration: the job "recalibrates ...
        # whenever a new EchelonFlow is generated".
        efs = {
            kind: [
                EchelonFlow(f"{job_id}/it{it}/{label}", arrangement, job_id=job_id)
                for label, arrangement in pairs
            ]
            for kind, pairs in groups.items()
        }
        echelonflows += efs["F"] + efs["B"]

        def task(kind: str, chunk: int, mb: int) -> str:
            return f"it{it}/{kind}{chunk}.{mb}"

        def comm(kind: str, chunk: int, mb: int) -> str:
            word = "actr" if kind == "F" else "gradr"
            return f"it{it}/{word}{chunk}.{mb}{comm_suffix}"

        specs: List[_Spec] = []
        for op in table:
            kind, c, mb = op
            deps = list(barrier_deps)
            if op in previous:
                deps.append(task(*previous[op]))
            if kind == "F" and c > 0:
                deps.append(comm(kind, c - 1, mb))
            elif kind == "B":
                last = c == num_chunks - 1
                source = task("F", c, mb) if last else comm(kind, c + 1, mb)
                if source not in deps:
                    deps.append(source)
            task_id = task(*op)
            specs.append(
                (
                    task_id,
                    deps,
                    partial(
                        dag.add_compute,
                        task_id,
                        device=workers[c % p],
                        duration=op_time[kind][c],
                        deps=deps,
                        priority=position[op],
                        tag=span_tag.format(kind=kind, chunk=c, mb=mb),
                    ),
                )
            )
            dst = c + 1 if kind == "F" else c - 1
            if not 0 <= dst < num_chunks:
                continue
            word = "act" if kind == "F" else "grad"
            boundary = min(c, dst)
            group = efs[kind][boundary]
            flow = Flow(
                src=workers[c % p],
                dst=workers[dst % p],
                size=act_bytes[boundary],
                group_id=group.ef_id,
                index_in_group=index_in_group[(kind, dst, mb)],
                job_id=job_id,
                tag=flow_tag.format(word=word, src=c, dst=dst, mb=mb),
            )
            group.add_flow(flow)
            comm_id = comm(kind, c, mb)
            specs.append(
                (
                    comm_id,
                    [task_id],
                    partial(
                        dag.add_comm,
                        comm_id,
                        [flow],
                        deps=[task_id],
                        tag=f"{word} mb{mb}",
                    ),
                )
            )
        _insert_topologically(dag, specs)

        # Synchronous flush: every chunk's last backward gates the update.
        tails = [task(*last_backward[c]) for c in range(num_chunks)]
        if update_time > 0:
            barrier_deps = []
            for worker in workers:
                update_id = f"it{it}/update/{worker}"
                dag.add_compute(
                    update_id,
                    device=worker,
                    duration=update_time,
                    deps=tails,
                    tag="optimizer",
                )
                barrier_deps.append(update_id)
        else:
            barrier_id = f"it{it}/barrier"
            dag.add_barrier(barrier_id, deps=tails)
            barrier_deps = [barrier_id]

    return BuiltJob(
        dag=dag,
        echelonflows=echelonflows,
        paradigm=paradigm,
        meta={
            "workers": list(workers),
            "stages": p,
            "virtual_stages": num_chunks // p,
            "chunks": num_chunks,
            "micro_batches": num_micro_batches,
            "iterations": iterations,
            "model": model.name,
            "fwd_time": op_time["F"],
            "bwd_time": op_time["B"],
        },
    )


def build_pp_gpipe(
    job_id: str,
    model: ModelSpec,
    workers: Sequence[str],
    num_micro_batches: int,
    iterations: int = 1,
    update_time: float = 0.0,
) -> BuiltJob:
    """GPipe: forward all micro-batches, flush, backward in reverse order."""
    workers = check_hosts(workers)
    return _build_pipeline(
        job_id, model, workers, num_micro_batches, iterations, update_time,
        num_chunks=len(workers), make_table=_flush_table, paradigm="pp-gpipe",
    )


def build_pp_1f1b(
    job_id: str,
    model: ModelSpec,
    workers: Sequence[str],
    num_micro_batches: int,
    iterations: int = 1,
    update_time: float = 0.0,
) -> BuiltJob:
    """Synchronous 1F1B pipeline job with profiled TabledArrangements."""
    workers = check_hosts(workers)
    return _build_pipeline(
        job_id, model, workers, num_micro_batches, iterations, update_time,
        num_chunks=len(workers), make_table=_one_f_one_b_table, paradigm="pp-1f1b",
    )


def build_pp_interleaved(
    job_id: str,
    model: ModelSpec,
    workers: Sequence[str],
    num_micro_batches: int,
    virtual_stages: int = 2,
    iterations: int = 1,
    update_time: float = 0.0,
) -> BuiltJob:
    """GPipe-flush pipeline over ``len(workers) * virtual_stages`` chunks.

    With ``virtual_stages = 1`` this is exactly :func:`build_pp_gpipe`'s
    schedule, spelled with ``c{chunk}`` labels.
    """
    workers = check_hosts(workers)
    if virtual_stages < 1:
        raise ValueError(f"virtual_stages must be >= 1, got {virtual_stages}")
    num_chunks = len(workers) * virtual_stages
    if num_chunks > model.num_layers:
        raise ValueError(
            f"{num_chunks} chunks exceed the model's {model.num_layers} layers"
        )
    return _build_pipeline(
        job_id, model, workers, num_micro_batches, iterations, update_time,
        num_chunks=num_chunks, make_table=_flush_table, paradigm="pp-interleaved",
        span_tag="{kind} c{chunk} mb{mb}",
        flow_tag="{word} c{src}->c{dst} mb{mb}",
        comm_suffix="",
        min_flow_bytes=1.0,
    )


def build_pipeline_segment(
    job_id: str,
    src: str,
    dst: str,
    release_times: Sequence[float],
    flow_sizes: Sequence[float],
    consumer_compute_times: Sequence[float],
    distance: Optional[float] = None,
) -> BuiltJob:
    """A two-worker pipeline slice: the Fig. 2 / Fig. 6 setting.

    The producer releases micro-batch ``j``'s activations at
    ``release_times[j]`` (modelled as a chain of producer computes whose
    durations are the release gaps); the consumer processes micro-batches in
    order, taking ``consumer_compute_times[j]`` each. All transfers form one
    EchelonFlow with the Eq. 6 staggered arrangement; ``distance`` defaults
    to the (uniform) consumer compute time, as profiling would report.
    """
    if not (len(release_times) == len(flow_sizes) == len(consumer_compute_times)):
        raise ValueError("release/size/compute lists must have equal lengths")
    if not release_times:
        raise ValueError("need at least one micro-batch")
    if list(release_times) != sorted(release_times):
        raise ValueError("release times must be non-decreasing")
    if src == dst:
        raise ValueError("producer and consumer must differ")
    if distance is None:
        distance = consumer_compute_times[0]

    dag = TaskDag(job_id)
    echelonflow = EchelonFlow(
        f"{job_id}/ef", StaggeredArrangement(distance=distance), job_id=job_id
    )

    previous_release: Optional[str] = None
    previous_compute: Optional[str] = None
    last_release_time = 0.0
    for m, (release, size, compute) in enumerate(
        zip(release_times, flow_sizes, consumer_compute_times)
    ):
        gap = release - (last_release_time if previous_release else 0.0)
        release_task = f"rel{m}"
        deps = [previous_release] if previous_release else []
        dag.add_compute(
            release_task,
            device=src,
            duration=gap if previous_release else release,
            deps=deps,
            priority=m,
            tag=f"produce mb{m}",
        )
        last_release_time = release
        previous_release = release_task

        flow = Flow(
            src=src,
            dst=dst,
            size=size,
            group_id=echelonflow.ef_id,
            index_in_group=m,
            job_id=job_id,
            tag=f"act mb{m}",
        )
        echelonflow.add_flow(flow)
        comm_task = f"xfer{m}"
        dag.add_comm(comm_task, [flow], deps=[release_task], tag=f"xfer mb{m}")

        compute_task = f"cons{m}"
        compute_deps = [comm_task]
        if previous_compute:
            compute_deps.append(previous_compute)
        dag.add_compute(
            compute_task,
            device=dst,
            duration=compute,
            deps=compute_deps,
            priority=m,
            tag=f"consume mb{m}",
        )
        previous_compute = compute_task

    return BuiltJob(
        dag=dag,
        echelonflows=[echelonflow],
        paradigm="pp-segment",
        meta={
            "micro_batches": len(release_times),
            "distance": distance,
        },
    )
