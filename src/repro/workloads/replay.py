"""Workload replay glue: conversation scripts -> runtimes and their reference.

Connects the workload consumers: an engine replays
:class:`repro.workloads.generator.ConversationScript` turn by turn through
a :class:`repro.serving.session.ChatSession` (the sequential reference),
and the continuous-batching runtime (:mod:`repro.runtime`) replays whole
multi-session traces live — on the numeric engine or, at the paper's
context lengths, on :class:`repro.core.shape_engine.ShapeEngine`.
:func:`divergences` compares the two, which is what makes the
runtime-vs-sequential exactness property testable.
"""

from __future__ import annotations

from repro.workloads.generator import ConversationScript


def submit_scripts_to_runtime(
    runtime,
    scripts: list[ConversationScript],
    *,
    start_offset_s: float = 1.0,
    think_time_s: float = 30.0,
    arrivals: list[float] | None = None,
) -> dict[int, list[int]]:
    """Submit a multi-session trace to a continuous-batching runtime.

    Conversations start staggered by ``start_offset_s``, or at
    ``arrivals``; follow-up turns arrive ``think_time_s`` apart (and never
    before their predecessor finishes — the runtime enforces the chain).

    Args:
        runtime: anything exposing the scheduler-facing submission
            surface ``submit_script(script, *, arrival, think_time)`` —
            a :class:`repro.runtime.ContinuousBatchingRuntime` or a
            :class:`repro.cluster.ReplicaFleet` (the fleet routes each
            conversation to a replica; this glue neither knows nor
            cares, which is what keeps fleet runs comparable to
            single-runtime runs via :func:`divergences`).
        scripts: the scripted conversations (unique seq_ids).
        arrivals: each conversation's first arrival, in script order
            (default: ``start_offset_s * (i + 1)`` for script ``i``).

    Returns:
        ``{seq_id: [request_id per turn]}`` for correlating the runtime's
        records back to script turns.
    """
    if start_offset_s < 0 or think_time_s < 0:
        raise ValueError("gaps must be non-negative")
    if arrivals is None:
        arrivals = [start_offset_s * (i + 1) for i in range(len(scripts))]
    return {
        script.seq_id: runtime.submit_script(script, arrival=arrival, think_time=think_time_s)
        for script, arrival in zip(scripts, arrivals, strict=True)
    }


def divergences(
    report, rids: dict[int, list[int]], reference: dict[int, list[list[int]]]
) -> list[str]:
    """Where a run breaks serving-exactness against its sequential replay.

    Two rules, per conversation: every ``FINISHED`` turn decoded exactly
    its replay's tokens, and no turn finished after an earlier turn of the
    conversation did not (a shed or timed-out turn sheds its whole tail).
    A turn that did not finish claims nothing else, so the same check
    covers fault-free and faulted runs.

    Args:
        report: a :class:`repro.runtime.RuntimeReport` or a
            :class:`repro.cluster.FleetReport` (both answer
            :class:`~repro.runtime.runtime.ServingReport`'s ``record``).
        rids: ``{seq_id: [request_id per turn]}`` as returned by
            :func:`submit_scripts_to_runtime`.
        reference: ``{seq_id: [tokens per turn]}`` as returned by
            :func:`replay_scripts_sequential`.

    Returns:
        One line per violation; empty means exact.
    """
    from repro.runtime.state import RequestState

    problems: list[str] = []
    for seq_id, turn_rids in rids.items():
        ended = None  # the first turn of this conversation that did not finish
        for i, rid in enumerate(turn_rids):
            rec = report.record(rid)
            if rec.state is not RequestState.FINISHED:
                ended = ended or (i, rec.state.value)
                continue
            if ended:
                problems.append(
                    f"seq {seq_id} turn {i} finished after turn {ended[0]} ended {ended[1]}"
                )
            got, want = list(rec.generated), list(reference[seq_id][i])
            if got != want:
                problems.append(
                    f"seq {seq_id} turn {i} diverged from sequential replay: {got} != {want}"
                )
    return problems


def replay_scripts_sequential(make_engine, scripts: list[ConversationScript]) -> dict[int, list[list[int]]]:
    """Ground-truth replay: each conversation alone on a fresh engine.

    Runs every script through a dedicated
    :class:`repro.serving.session.ChatSession` — the uninterrupted,
    unbatched reference the runtime's continuous batching must match
    token-for-token.

    Args:
        make_engine: zero-argument factory returning a fresh engine (fresh
            per conversation so decode round-robin offsets start
            identically).
        scripts: the scripted conversations.

    Compare a run against the result with :func:`divergences`.

    Returns:
        ``{seq_id: [generated token ids per turn]}``.
    """
    from repro.serving.session import ChatSession

    out: dict[int, list[list[int]]] = {}
    for script in scripts:
        session = ChatSession(make_engine(), script.seq_id)
        turns = []
        for prompt, budget in zip(script.prompts, script.response_budgets):
            turns.append(list(session.send(prompt, max_new_tokens=int(budget)).generated))
        out[script.seq_id] = turns
        session.close()
    return out
