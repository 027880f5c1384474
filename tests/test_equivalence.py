"""Accelerated == reference, as one property over random L3 networks.

Every draw of :func:`equivalence_strategies.draws` runs under the five
accelerator settings of :data:`equivalence_strategies.ARMS`.  The flow
cache and the pipeline specializer are exact on every draw; the flow
fastpath is exact on a chain with one host at each end and known not to
be anywhere else (ROADMAP item 2), which the strict xfails below pin.
"""

import json

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis.errors import NoSuchExample

from equivalence_strategies import ARMS, FAMILIES, build, draws, outcome
from repro.pisa import compile as compile_mod

#: A one-switch chain at the packet count of the fixtures this property
#: replaced: every arm crosses the specializer's warm-up, and the
#: write re-points the compiled walk mid-run.
ONE_SWITCH_CHAIN = {
    "family": "chain",
    "switches": 1,
    "hosts": [["h0", 0], ["h1", 0]],
    "latency_ps": 1_000_000,
    "queue_bytes": 65_536,
    "payload_len": 200,
    "load": {
        "kind": "paced",
        "seed": 1,
        "skew": 1.2,
        "packets": 30,
        "start_ps": 1_000_000,
        "gap_ps": 200_000,
    },
    "faults": None,
    "writes": [[5_000_000, "s0", "h1", "dscp", 3]],
    "observe": None,
}

#: A three-switch chain whose flows fuse, under link flaps that cut
#: fused windows short and hand them back to the per-hop path.
FLAPPED_CHAIN = {
    **ONE_SWITCH_CHAIN,
    "switches": 3,
    "hosts": [["h0", 0], ["h1", 2]],
    "load": {**ONE_SWITCH_CHAIN["load"], "packets": 40, "gap_ps": 5_000_000},
    "faults": {
        "plan": "linkflap",
        "link": ["s1", "s2"],
        "switch": "s1",
        "burst": ["s1", 1],
    },
    "writes": [],
}

#: The three-switch chain unfaulted, under writes to every switch: one
#: before traffic starts, one inside a run of fused packets, and on
#: ``s0`` a remark, a re-install that undoes it (an eviction) and a
#: re-install that changes nothing (a revalidation).
REWRITTEN_CHAIN = {
    **FLAPPED_CHAIN,
    "faults": None,
    "writes": [
        [0, "s2", "h1", "dscp", 2],
        [5_000_000, "s0", "h1", "dscp", 2],
        [57_123_457, "s1", "h0", "dscp", 1],
        [61_000_001, "s0", "h1", "reinstall", 1],
        [123_456_789, "s0", "h1", "reinstall", 1],
    ],
}

#: ``s0–s3`` with ``m1``/``m2`` on port 2 of ``s1``/``s2``: at
#: 69,788,800 ps ``h0``'s packet reaches ``m1`` and ``m2``'s, sent at the
#: same time over as many hops, queues behind it per hop (69,998,400 ps).
#: Fused, ``m2``'s packet skips that queue and lands at 69,788,800 ps too.
SECOND_SOURCE_CHAIN = {
    "family": "chain_interior",
    "switches": 4,
    "hosts": [["h0", 0], ["h1", 3], ["m1", 1], ["m2", 2]],
    "latency_ps": 1_000_000,
    "queue_bytes": 65_536,
    "payload_len": 200,
    "load": {
        "kind": "zipf",
        "seed": 359,
        "skew": 1.2,
        "packets": 36,
        "start_ps": 1_000_000,
        "gap_ps": 5_000_000,
    },
    "faults": None,
    "writes": [],
    "observe": None,
}

_ITEM_2 = (
    "ROADMAP item 2: a fused window is exact only when no traffic can "
    "enter an on-path egress port from off the path, which holds on a "
    "chain with one host at each end and nowhere else"
)


def _assert_same(draw, runs, arm, base, parts=("visible",)):
    for part in parts:
        assert runs[arm][part] == runs[base][part], (
            f"{arm} != {base} ({part}); replay with "
            f"outcome(draw, {arm!r}) and outcome(draw, {base!r}) on "
            f"draw = {json.dumps(draw)}"
        )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@example(draw=ONE_SWITCH_CHAIN)
@example(draw=FLAPPED_CHAIN)
@example(draw=REWRITTEN_CHAIN)
@given(draw=draws())
def test_accelerators_match_the_reference(draw):
    runs = {arm: outcome(draw, arm) for arm in ARMS}
    # Table hit/miss and drop counters count walks, which the flow
    # cache elides: they match only between arms of one cache setting.
    _assert_same(draw, runs, "compiled", "ref", ("visible", "walk"))
    _assert_same(draw, runs, "cache", "ref")
    _assert_same(draw, runs, "default_interp", "default", ("visible", "walk"))
    # A re-pointed route can make a second source on the chain's path.
    if draw["family"] == "chain" and all(w[3] != "repoint" for w in draw["writes"]):
        _assert_same(draw, runs, "default", "ref")


def test_the_explicit_examples_reach_every_accelerator(monkeypatch):
    # The property's explicit examples are where each accelerator is
    # known to run: the compiled arm leaves the warm-up and regenerates
    # after a write (and compiles nothing while the flow cache replays
    # every flow), and the default arm fuses and materializes.
    network, _recorders = build(FLAPPED_CHAIN, **ARMS["default"])
    network.run()
    stats = [switch.flow_fastpath.stats for switch in network.switches.values()]
    assert sum(s.fused for s in stats) > 0 and sum(s.materialized for s in stats) > 0
    generated = []
    original = compile_mod._generate_walk

    def counting(spec, stale):
        generated.append(spec)
        return original(spec, stale)

    monkeypatch.setattr(compile_mod, "_generate_walk", counting)
    outcome(ONE_SWITCH_CHAIN, "compiled")
    assert len(generated) == 2  # warm-up compile, then the write's regenerate
    outcome(ONE_SWITCH_CHAIN, "default")
    assert len(generated) == 2


# ``find`` searches for the first divergence and stops there: it skips
# shrinking a failure that is expected, and unlike a failing ``@given``
# run it leaves hypothesis no failing example to save as a patch.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_2)
def test_fastpath_matches_the_reference_off_the_one_host_chain():
    def diverges(draw):
        return outcome(draw, "default")["visible"] != outcome(draw, "ref")["visible"]

    search = settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        database=None,
        phases=[Phase.generate],
    )
    try:
        draw = find(draws(families=FAMILIES[1:]), diverges, settings=search)
    except NoSuchExample:
        return
    runs = {arm: outcome(draw, arm) for arm in ("ref", "default")}
    _assert_same(draw, runs, "default", "ref")


def test_second_source_chain_reference_and_cache():
    ref = outcome(SECOND_SOURCE_CHAIN, "ref")["visible"]
    m1 = ref["arrivals"]["m1"]
    assert (69_788_800, 242) in m1 and (69_998_400, 242) in m1
    assert outcome(SECOND_SOURCE_CHAIN, "cache")["visible"] == ref


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_2)
def test_second_source_chain_fastpath_queues_per_hop():
    default = outcome(SECOND_SOURCE_CHAIN, "default")["visible"]
    assert (69_998_400, 242) in default["arrivals"]["m1"]
