"""Golden trace digests: the refactor oracle for the serving runtime.

Every clock is simulated, so the JSONL trace of a seeded run is a pure
function of the configuration (``tests/properties/test_prop_trace.py``
pins that). This file pins the *bytes*: one SHA-256 per configuration
over a fixed, explicit matrix — deployment shape x preemption remedy x
prefix cache x fault plan, plus unbounded runs and 3-replica
fleets. A behaviour-identical refactor of the runtime leaves every
digest where it is; a change that means to move scheduling re-baselines
the affected digests in its own commit and says which events moved.

Each case is also replayed through :class:`repro.core.shape_engine.ShapeEngine`,
fed the tokens its numeric run decoded (``helpers.token_source``), and must
hit the same digest: scheduling reads lengths and token ids, never
activations, and the two engines keep the same KV bookkeeping.

Regenerate (only with such a commit) by printing
``hashlib.sha256(dumps_jsonl(run_traced(case)[0].events).encode())``
for each entry of ``CASES``.
"""

import hashlib
import itertools

import pytest

from repro.core.shape_engine import ShapeModel
from repro.obs import dumps_jsonl

from helpers import TRACE_MODEL, run_traced, token_source

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
    cases["fleet3-disagg-swap-noprefix-clean-round-robin"] = dict(
        BASE, n_replicas=3, sessions=9, policy="round-robin", disaggregate=True,
        preemption="swap", prefix_cache=False, faults=None,
    )
    return cases


CASES = _cases()

GOLDEN = {
    "coloc-recompute-noprefix-clean": "7d45211ab8d2932c42788358d16175f0af36dd92d1753e7d7b40df67972e274e",
    "coloc-recompute-noprefix-faults": "4df8e820d250c760f7d035a2d6949d14e6e1946b2a40f40c04f654de211f13d7",
    "coloc-recompute-prefix-clean": "a7f3fa807e3d4bf03813ae87e99247fcc77b8a159fcc08242cabbbdc2433bfc8",
    "coloc-recompute-prefix-faults": "1749f3ce2882203b956a72fb91befdb7374550f5b7ebb051d98627813000b52b",
    "coloc-trim-noprefix-clean": "97af57066328366cd7d37759407dddeaf6e54f5a87bb41fc0e9ff3854caaaea3",
    "coloc-trim-noprefix-faults": "0cc4e018514728b93c73cfe8e0b285a539217d75796f76bd777f5203e49292b7",
    "coloc-trim-prefix-clean": "a2510d419c1ecd9fe9410e5b9875c9a037c26d8ccda7e6b0c4ea6e939c61c74c",
    "coloc-trim-prefix-faults": "0eba1b66e3c0abe969e700fea8d60cbb5c4870f365c2a8fb574696f5e8b4e5c2",
    "coloc-swap-noprefix-clean": "17fa8eecf44c3e436d39b6f4af06a634553145ec7824e4c4cb4a3d915d77b088",
    "coloc-swap-noprefix-faults": "90d8133744123bbd2dead37c5db2d014152188051cb3a6e55bbf1458f99866f5",
    "coloc-swap-prefix-clean": "843f96d9013f1820692e750a2501658c5dc8719473ab0ee40248a51a07db3b60",
    "coloc-swap-prefix-faults": "08bdbec718d284b9c43d0724f58d8fb1d1822ad2cea19bcc6105456f21920afe",
    "disagg-recompute-noprefix-clean": "32dd64ad861a7c5649d030d0b579bc921cc6574ccbf9d3c6fc7c5a5baeb38cf9",
    "disagg-recompute-noprefix-faults": "e8ad8a82164996a9964c9e6b749207d9956994c491d3fde0eac13c066f4dd435",
    "disagg-recompute-prefix-clean": "b14103e897fc5f2500e68a4034d669936e524358ea6721a646f35f4f60679fdd",
    "disagg-recompute-prefix-faults": "1d88297d908f23ec03c0640ff6813d9147d56e4831ff1919b121263cde62bad1",
    "disagg-trim-noprefix-clean": "e3b77c7e4b246dfe4bd09861e206096da61ac61c85b511485262af09d2c02232",
    "disagg-trim-noprefix-faults": "ff60f5a99d90051ffd9b06ceb4fe8ef2ecfeb061817ef1678077b23b1cd220ff",
    "disagg-trim-prefix-clean": "c8e0764d4f70c66cda6fc24b17118349a57a6bc1c1185173fd1f272fc237b458",
    "disagg-trim-prefix-faults": "e8c88de4594d028e96cb0b6223d6c58a185d1e1c5c25ca5f18692416e4d469ca",
    "disagg-swap-noprefix-clean": "8631607c4e9291bcfe0ad7587ac6bd06dda4eac20b79ac42cd6888911501ebba",
    "disagg-swap-noprefix-faults": "11afb831197cd6a2d53820051d8423e175b4c747347aef970459125d68466c2d",
    "disagg-swap-prefix-clean": "3dd79c6b1c984870c9d819167c953fdadae90ba5be96ea810af26d318f037f16",
    "disagg-swap-prefix-faults": "75094aebd984b41dde2b3ebcdb8ea086a6115f7caf5a2a9f76a74c97a14b8f9f",
    "coloc-unbounded": "bd1ab59e285a6e1090bbc067791356d0feaae62a8654487af269b075012ed11c",
    "disagg-unbounded": "2cb54c20aa1043805382164d999110569ae4ece270a656c76ce3ec8e1c11d187",
    "fleet3-coloc-swap-prefix-faults": "a5c3aee240c97e327fc5801ec6c966c967bb921d1087206b158e928ee16c7889",
    "fleet3-disagg-trim-prefix-faults": "e088b2ce3042e94198e7e6afc57f1c65d7ecc334d7548568e8401dfa4e5b8094",
    "fleet3-disagg-swap-noprefix-clean-round-robin": "c179554696fbb99e37e06cf19d562a2667014335d5883e792bb81d42239dd42e",
}


def test_matrix_is_fully_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


def _digest(tracer) -> str:
    return hashlib.sha256(dumps_jsonl(tracer.events).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_is_unchanged(name):
    tracer, _, _, report = run_traced(CASES[name])
    assert _digest(tracer) == GOLDEN[name], (
        f"{name}: the trace moved ({len(tracer.events)} events now) — a "
        "behaviour-identical refactor must not change it"
    )
    # the same run on shape-only engines, fed the tokens it decoded
    shape = ShapeModel(TRACE_MODEL.config, token_source(report))
    assert _digest(run_traced(CASES[name], model=shape)[0]) == GOLDEN[name], (
        f"{name}: the ShapeEngine replay moved — a scheduling decision read "
        "more than lengths and token ids, or the engines' KV bookkeeping parted"
    )
