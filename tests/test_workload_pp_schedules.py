"""Pipeline schedules: pinned trace digests and "the table is the schedule".

The pinned digests were recorded with the hand-written GPipe, 1F1B and
interleaved builders; every pipeline builder must keep reproducing them.
The one tolerated difference is 1F1B's ``ideal_finish`` where a
consumer runs a boundary's ops back to back (``m <= p``): Eq. 6's
``j * T`` may round differently from the running sum ``T + T + ...``.
Those cases pin a digest whose ``ideal_finish`` is quantised to 1e-12 s.
"""

import copy
import dataclasses
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps, megabytes
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.simulator import Engine
from repro.simulator.trace import trace_digest
from repro.topology import big_switch
from repro.workloads import (
    build_pp_1f1b,
    build_pp_gpipe,
    build_pp_interleaved,
    one_f_one_b_order,
    uniform_model,
)

U16 = uniform_model(
    "u16",
    16,
    param_bytes_per_layer=megabytes(20),
    activation_bytes=megabytes(20),
    forward_time=0.002,
)
U8 = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(40),
    activation_bytes=megabytes(8),
    forward_time=0.003,
    backward_time=0.0045,
)
HOSTS = ["h0", "h1", "h2", "h3"]
SCHEDULERS = {"fair": FairSharingScheduler, "echelon": EchelonMaddScheduler}
BUILDERS = {
    "gpipe": build_pp_gpipe,
    "1f1b": build_pp_1f1b,
    "interleaved": partial(build_pp_interleaved, virtual_stages=2),
}


def _run(job, scheduler, bandwidth):
    engine = Engine(big_switch(4, bandwidth), SCHEDULERS[scheduler]())
    job.submit_to(engine)
    return engine.run()


def _pinned_trace(name, p, m, update_time, scheduler):
    with use_flow_id_allocator(FlowIdAllocator()):
        job = BUILDERS[name](
            "j", U16, HOSTS[:p], m, iterations=2, update_time=update_time
        )
        return _run(job, scheduler, gbps(3))


def _quantised_ideal_digest(trace):
    """``trace_digest`` with every ``ideal_finish`` rounded to 1e-12 s."""
    quantised = copy.copy(trace)
    quantised.flow_records = [
        dataclasses.replace(record, ideal_finish=round(record.ideal_finish * 1e12))
        for record in trace.flow_records
    ]
    return trace_digest(quantised)


PINNED = {
    "gpipe-p2-m3-u0-fair": "4176e57e94d7150de078c17b2707840f07611db0be9244cf4bd4fcfcf580671e",
    "gpipe-p2-m3-u0-echelon": "2bf7c15236eabe4d5b048ca8687df00d8e857bbff79751a031758fcaa4824e79",
    "gpipe-p2-m3-u1-fair": "45be5efe6e33fe75045e7498dd57f2a13a33e0e86d14df2305c72eba20246cd4",
    "gpipe-p2-m3-u1-echelon": "3668e600713302a513b46a48cc1f00c702b9d059dd0036ac330bd9bac26e5d9c",
    "gpipe-p2-m8-u0-fair": "6da8d52a7b5b479169caf1449aa519e6e7bf305f6d557d797d8a1a5264721cfb",
    "gpipe-p2-m8-u0-echelon": "705325acd454dec7e664eb505129557fbf940250354108eb6832b2c4514b1c2e",
    "gpipe-p2-m8-u1-fair": "3e41ad195b82c87c02f3013202f63d99d7d253f9d6ffd016c023c38ecfbeea1c",
    "gpipe-p2-m8-u1-echelon": "ab3c6832925319fb37d2d66dabf5821c1bdca8c92d9f0bbc57c6edfab7ca6d83",
    "gpipe-p4-m3-u0-fair": "a70d473abb5774dcb9ebebb14408a7e9767123822443048cd002af923dba522f",
    "gpipe-p4-m3-u0-echelon": "785e402c21fdd389e1ff2e67a8aafc21a6c5deca423cd86087ceed40cca6a9a6",
    "gpipe-p4-m3-u1-fair": "2e9fd8dae84b2553de42814108c750f290e564dd85f02964f236d06d91b698b5",
    "gpipe-p4-m3-u1-echelon": "e951040d118bb6d6a742d168cad46bc810a9abb5c310ca565a31480919a2dee1",
    "gpipe-p4-m8-u0-fair": "8e03dce229865d2e13ccf556e02bac584f79444ca31466f4f508727da5c0642a",
    "gpipe-p4-m8-u0-echelon": "9ff77dd124e1dd56942ae7813a0834d8be35231bba487c91ebbab96497d3a46f",
    "gpipe-p4-m8-u1-fair": "047675899bf916836337233a2687633907ddedd071199be7f5a0d157e04032b5",
    "gpipe-p4-m8-u1-echelon": "b60ccfbb2efbdf6fbcd149ee31e32f00bffcf89279eeeb61f30626a88e600081",
    "1f1b-p2-m3-u0-fair": "988786dafdf3a2eaa3d2993cb5b5b2955441d0bf28e9260db910001884838c13",
    "1f1b-p2-m3-u0-echelon": "c312b017b1bafb2e94026489a880397b9569684486f078dbb702ec339565e386",
    "1f1b-p2-m3-u1-fair": "1fdb63781c40174f23638fd047679842e4f4ffdefdcadccdf31a4e07a7095708",
    "1f1b-p2-m3-u1-echelon": "77e45487e9930987f22e3407be0fbf1450b321144b55385bb33b8061eb4f8eeb",
    "1f1b-p2-m8-u0-fair": "652b662b0481bab2d3ed8dde7ff740258b479b0df2ea4f250df557a3cb69d6c3",
    "1f1b-p2-m8-u0-echelon": "cf96155c17c70bdf497f1e8a3a00039d61fb3f1c5df11509c3d8cfec6089e026",
    "1f1b-p2-m8-u1-fair": "87e0b063a7a185425cfda3a87bdae3d288531c891adc8817a901f3ee1d824ea8",
    "1f1b-p2-m8-u1-echelon": "6cfa952efeeeb28cdd26bbe13beefb0daf8da56e7bcb45ce53d654f3f4cd0a7b",
    "1f1b-p4-m3-u0-fair": "4190d6eb0442a560b67651fdeef71f9c4ee7b824aeaf1a78e77aad218affb72d",
    "1f1b-p4-m3-u0-echelon": "4112a4fc903e21ebbf17dc6545f0d1e2133e02f4525ed30c063e3f490024358d",
    "1f1b-p4-m3-u1-fair": "cb9b413f8241a376d26d43898643090c558fe5609e93c0cbffddf482f432fcf4",
    "1f1b-p4-m3-u1-echelon": "389d798740fd9fac45e2b1a327fc18f042f0c734282e29b36c4911be24e92b23",
    "1f1b-p4-m8-u0-fair": "fa87abdfad739770c0385714a9c0cab70c94facbb42b78d672dbe0024505928b",
    "1f1b-p4-m8-u0-echelon": "11a24b7e55505f516a57c2a9385a6779023c7b06b713ef0d25a5da672f1b28c4",
    "1f1b-p4-m8-u1-fair": "dd925eb6e366e916c7f7ec3e18ddd6c14aeed5ee65cf9ec334f2d5b713635f3b",
    "1f1b-p4-m8-u1-echelon": "31598830671d874e07806ba5996ff8def1ca624093550e6e5fab0abdd71371ba",
    "interleaved-p2-m3-u0-fair": "c5c666fc235d97c62e95b0c8a3d07f62a5b598833fac421f2c800e5a5f44a5fe",
    "interleaved-p2-m3-u0-echelon": "108345992c997c430de3f90d23252fc8ff9caaf3fe7bdfad3224e2b01372994f",
    "interleaved-p2-m3-u1-fair": "385051bc302cb4c58114dd928809dffe3bcbcc426de4518716ac57c5e0048a85",
    "interleaved-p2-m3-u1-echelon": "29ace975128cef3ad2fce9dc8c6710c5b28f3fc6065e77b578bac180d1fc8f79",
    "interleaved-p2-m8-u0-fair": "0c73adc1ea3e35366d942495dac6243ba6cc9e82b12e435254b4e07f80382e60",
    "interleaved-p2-m8-u0-echelon": "2f7d6f73e919fc8b486b272627eb6f267f893c06abb6e060c635144c4b7329ed",
    "interleaved-p2-m8-u1-fair": "a1819a957e88df499bcccc674d175155239f9be47e734e7f0491300ae4fc73d2",
    "interleaved-p2-m8-u1-echelon": "c09624b65fb0864c4e4e443a55057879dd010db2d5d5451d0ddc63358f33cfb0",
    "interleaved-p4-m3-u0-fair": "6d5f87b823842447166265fa9b65a50431cef3da80f2eaa8f1db75bc27a5780e",
    "interleaved-p4-m3-u0-echelon": "ae277ffc7f1311cd44b305378e8fb11c58bfb1fbdb7ac497a32041ac87fda046",
    "interleaved-p4-m3-u1-fair": "51ca7e0805121b117731f903f66613bcf199afc165e6e77395cac7505bb79e8e",
    "interleaved-p4-m3-u1-echelon": "34e11ad9bf304824c38c4e48c508447059fcab5cdde87235fb22464818715e0e",
    "interleaved-p4-m8-u0-fair": "6419fa6eb701b3487b83dc3de5ed2fdcb1c2b44aa14eec68d8fc8d7833d77ebb",
    "interleaved-p4-m8-u0-echelon": "3f2699c61b5e2deefbdf4b22291bbc6e19c10989e8aff614c867cee377e1d87c",
    "interleaved-p4-m8-u1-fair": "baf6b56b433269fc3b3fab0ce401a7a6497bc92db9c8d30568f7e83e6da2f85d",
    "interleaved-p4-m8-u1-echelon": "f8fa320d5a4fbd17c16ff2f65466ce1d0d0f09dc89cf46974a3cdceec14ac17a",
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_trace_digest(key):
    name, p, m, update_ms, scheduler = key.split("-")
    p, m = int(p[1:]), int(m[1:])
    trace = _pinned_trace(name, p, m, int(update_ms[1:]) * 1e-3, scheduler)
    if name == "1f1b" and m <= p:
        assert _quantised_ideal_digest(trace) == PINNED[key]
    else:
        assert trace_digest(trace) == PINNED[key]


def _table_rows(schedule, p, m, v):
    """Each worker's op order as ``"F{chunk}.{mb}"`` / ``"B{chunk}.{mb}"``."""
    if schedule == "1f1b":
        return [
            [f"{kind}{s}.{mb}" for kind, mb in one_f_one_b_order(s, p, m)]
            for s in range(p)
        ]
    rows = [[] for _ in range(p)]
    for c in range(p * v):
        rows[c % p].extend(f"F{c}.{mb}" for mb in range(m))
    for c in reversed(range(p * v)):
        rows[c % p].extend(f"B{c}.{mb}" for mb in reversed(range(m)))
    return rows


@given(
    schedule=st.sampled_from(["gpipe", "1f1b", "interleaved"]),
    model=st.sampled_from([U8, U16]),
    p=st.integers(2, 4),
    m=st.integers(1, 8),
    v=st.integers(1, 3),
    iterations=st.sampled_from([1, 2]),
    update_time=st.sampled_from([0.0, 0.001]),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    bandwidth=st.sampled_from([gbps(3), gbps(10000)]),
)
@settings(max_examples=40, deadline=None)
def test_device_order_equals_table_row(
    schedule, model, p, m, v, iterations, update_time, scheduler, bandwidth
):
    if schedule != "interleaved":
        v = 1
    assume(p * v <= model.num_layers)
    workers = HOSTS[:p]
    builder = BUILDERS[schedule]
    if schedule == "interleaved":
        builder = partial(build_pp_interleaved, virtual_stages=v)
    job = builder(
        "j", model, workers, m, iterations=iterations, update_time=update_time
    )
    trace = _run(job, scheduler, bandwidth)
    rows = _table_rows(schedule, p, m, v)
    for it in range(iterations):
        prefix = f"it{it}/"
        for w, worker in enumerate(workers):
            spans = sorted(
                (
                    span
                    for span in trace.spans_of_device(worker)
                    if span.task_id.startswith(prefix) and span.tag != "optimizer"
                ),
                key=lambda span: span.start,
            )
            assert [span.task_id[len(prefix):] for span in spans] == rows[w]
