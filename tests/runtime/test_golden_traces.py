"""Golden trace digests: the refactor oracle for the serving runtime.

Every clock is simulated, so the JSONL trace of a seeded run is a pure
function of the configuration (``tests/properties/test_prop_trace.py``
pins that). This file pins the *bytes*: one SHA-256 per configuration
over a fixed, explicit matrix — deployment shape x preemption remedy x
prefix cache x fault plan, plus an SRPF packing case and 3-replica
fleets. A behaviour-identical refactor of the runtime leaves every
digest where it is; a change that means to move scheduling re-baselines
the affected digests in its own commit and says which events moved.

Regenerate (only with such a commit) by printing
``hashlib.sha256(dumps_jsonl(run_traced(case)[0].events).encode())``
for each entry of ``CASES``.
"""

import hashlib
import itertools

import pytest

from repro.obs import dumps_jsonl

from helpers import run_traced

# six shared-prefix conversations of three turns over CP2 pools of 40 KV
# tokens per rank: tight enough that every remedy, refusal, re-ship and
# swap-in admission path fires, loose enough that clean runs finish all 18
BASE = dict(
    seed=20250927,
    n_replicas=1,
    policy="prefix",
    chunk=8,
    capacity=40,
    think=1.0,
    shared=True,
    sessions=6,
    turns=3,
)
FAULTS = dict(
    seed=7,
    transfer_fail_rate=0.3,
    swap_loss_rate=0.3,
    pool_resets=1,
    deadline_s=45.0,
)


def _cases():
    cases = {}
    for disagg, remedy, prefix, faults in itertools.product(
        (False, True), ("recompute", "trim", "swap"), (False, True), (False, True)
    ):
        name = "-".join(
            [
                "disagg" if disagg else "coloc",
                remedy,
                "prefix" if prefix else "noprefix",
                "faults" if faults else "clean",
            ]
        )
        cases[name] = dict(
            BASE,
            disaggregate=disagg,
            preemption=remedy,
            prefix_cache=prefix,
            faults=dict(FAULTS) if faults else None,
        )
    cases["coloc-swap-prefix-clean-srpf"] = dict(
        BASE, disaggregate=False, preemption="swap", prefix_cache=True,
        faults=None, order="srpf",
    )
    cases["disagg-trim-prefix-clean-srpf"] = dict(
        BASE, disaggregate=True, preemption="trim", prefix_cache=True,
        faults=None, order="srpf",
    )
    # no capacity pressure: the idle-pool wake rules and wire stalls alone
    cases["coloc-unbounded"] = dict(
        BASE, capacity=None, disaggregate=False, preemption="recompute",
        prefix_cache=False, faults=None,
    )
    cases["disagg-unbounded"] = dict(
        BASE, capacity=None, disaggregate=True, preemption="recompute",
        prefix_cache=False, faults=None,
    )
    cases["fleet3-coloc-swap-prefix-faults"] = dict(
        BASE, n_replicas=3, sessions=9, disaggregate=False, preemption="swap",
        prefix_cache=True, faults=dict(FAULTS),
    )
    cases["fleet3-disagg-trim-prefix-faults"] = dict(
        BASE, n_replicas=3, sessions=9, disaggregate=True, preemption="trim",
        prefix_cache=True, faults=dict(FAULTS),
    )
    cases["fleet3-disagg-swap-noprefix-clean-least-loaded"] = dict(
        BASE, n_replicas=3, sessions=9, policy="least-loaded", disaggregate=True,
        preemption="swap", prefix_cache=False, faults=None,
    )
    return cases


CASES = _cases()

GOLDEN = {
    "coloc-recompute-noprefix-clean": "9d304bddf997b340999187533e1512e320113325876a761ab85924c830d793be",
    "coloc-recompute-noprefix-faults": "e1673ba8b016a607137316e236faa773a3849728961047ecc5fe67d91f7899d8",
    "coloc-recompute-prefix-clean": "64e74514e15d8833c6582ffe88a5ac7711b1d22cfdbc8b37cc36f26b13f7db33",
    "coloc-recompute-prefix-faults": "73549f321b27ef3b9b7edeff3912440b5fc7c6f6ec9f3bee7c6860655bb02dee",
    "coloc-trim-noprefix-clean": "c11af64cba096c1ce318c7eac1616663c2be366031ba4e463cf9d6c18068e521",
    "coloc-trim-noprefix-faults": "263fdc86851edfed76259dc76979370743942431a08784ad99feb1841b2fd2ee",
    "coloc-trim-prefix-clean": "7698212ac14c967604f1a11e18c6be97885a578686df81f9733d1af7037204ae",
    "coloc-trim-prefix-faults": "9d02ba8a7a9b9ae69e85d83c281b15434881b2ffc0bf7d3638e20b23653d9eb1",
    "coloc-swap-noprefix-clean": "ae31edb9758603d970b6fc0819aedceddec844df525a32e7f136104972319b53",
    "coloc-swap-noprefix-faults": "20d76829d72c6dfb08cd9d4c8060cee64a3c6f6e478d05a550d7b7cb0e83b428",
    "coloc-swap-prefix-clean": "81ccfdfe6824bde711c732e25f985fa81782a58529adac79f41a0b83a77adf12",
    "coloc-swap-prefix-faults": "6e4a02903290924dd92e709387cdd66f07b434444097f272c6ee8d27ddfeb47d",
    "disagg-recompute-noprefix-clean": "7bafb4ad8a588c6feb6abc1e2242adbf558158ab07cc1553de2dad10de308723",
    "disagg-recompute-noprefix-faults": "47d8fc7607e0bdf194eef198ecb9c2e15eca8fd9adc61f600f14ce2080a1be89",
    "disagg-recompute-prefix-clean": "241018d05dcbe582790db36f64dac01a0126bf25ea8a9fb4632c042ec67fdcde",
    "disagg-recompute-prefix-faults": "65b45bca93e5d0220f18dc4f9dcf70265855aadbb6486f3eae813fd7ef4635f0",
    "disagg-trim-noprefix-clean": "31c6da59ec5189e54234e89a4006abdb95270c285fa2e69335b5939254274316",
    "disagg-trim-noprefix-faults": "8df3580cde77a9dff2be10f3bc4c14e7ad648a9f9001325d6436df9c5cd9c852",
    "disagg-trim-prefix-clean": "f27f9c971d4cfcad766020cecebcb25eb089b1acb2692e9c9d07b337224fe3a9",
    "disagg-trim-prefix-faults": "ddf8265205cafb78ece83fb72c6cf8fa00d75f213ad4a47557ea5f48fedb20f8",
    "disagg-swap-noprefix-clean": "48206fce86bd1769968a45b1c68a01e1b525aee26919eb9c9b234cf66624f902",
    "disagg-swap-noprefix-faults": "898636f10d1dc90424c0779d3123f1d72e01793e50a3d17af1a12389f1c3e76e",
    "disagg-swap-prefix-clean": "3e5e499d8b47e3825d50a91bd10f9397a45dc3ad77b7f64b2809944a5df40f96",
    "disagg-swap-prefix-faults": "633137c915e2af3bdadb0e1b9dc4e76633468c23ea9e11c5bb02af9307f0b1ed",
    "coloc-swap-prefix-clean-srpf": "f94cb5fb5f35211bc76db3f7a2adad33c0035810c62191c0cb239377a864e411",
    "disagg-trim-prefix-clean-srpf": "d25431bd2ead9a69ca6513e03618d4537a0df297625f273b6e0163887e4f1da7",
    "coloc-unbounded": "e233d05af1e4ca06223adf6f6fd910f6b9b549d25ceac8133f064373e4222066",
    "disagg-unbounded": "7e7f599eaf99f7d964630711341a8cc407bc59a2765d8078328159f097c8b00a",
    "fleet3-coloc-swap-prefix-faults": "cb5e0e2eba713126778ef6006683a47570b4053d031e02c6a6d5c6cff3fb3a19",
    "fleet3-disagg-trim-prefix-faults": "c21e6586de1b9121eb2c777b4006583de11066073ccd0f382b38162170c1bf3a",
    "fleet3-disagg-swap-noprefix-clean-least-loaded": "5554ae58ff155f6239763f8dbcc9a5138d297ec86d1e8d76ce22bfa2eeec4578",
}


def test_matrix_is_fully_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_is_unchanged(name):
    tracer, _, _, _ = run_traced(CASES[name])
    digest = hashlib.sha256(dumps_jsonl(tracer.events).encode()).hexdigest()
    assert digest == GOLDEN[name], (
        f"{name}: the trace moved ({len(tracer.events)} events now) — a "
        "behaviour-identical refactor must not change it"
    )
