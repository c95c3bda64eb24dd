"""Correctness gate: every pass's outputs are checked before any metric.

A pass fails when its session accounting does not balance, when the
service answered any request with anything but ``ok`` (``busy``
included), or when a crash-free sharded run reports a ``recovery``
block. A run fails when the canonical summary digests of its passes
differ, including the traced pass against the untraced ones.
"""

from __future__ import annotations

import hashlib


def digest(summary: dict) -> str:
    """sha256 of the program's canonical JSON spelling of a summary."""
    from repro.serving.metrics import canonical_json, summary_wire

    text = canonical_json(summary_wire(summary))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_pass(summary: dict, offered: int, *, non_ok_replies: int = 0,
               sharded: bool = False) -> list[str]:
    """Problems found in one pass's final summary (empty when correct)."""
    problems = []
    completed = summary["sessions_completed"]
    rejected = summary["sessions_rejected"]
    if completed + rejected != offered:
        problems.append(f"completed {completed} + rejected {rejected} != "
                        f"offered {offered}")
    if non_ok_replies:
        problems.append(f"{non_ok_replies} protocol replies were not ok")
    if sharded and "recovery" in summary:
        problems.append("crash-free sharded run reports a recovery block: "
                        f"{summary['recovery']}")
    return problems


def check_digests(digests: "list[str]") -> list[str]:
    """Problems when the passes of one run disagree on the summary."""
    if len(set(digests)) > 1:
        return [f"summary digests differ across passes: {digests}"]
    return []


def check_run(results: "list[dict]", *, sharded: bool = False) -> tuple:
    """Gate every pass of one run.

    Each result holds the pass's final ``summary`` and the sessions
    ``offered``, plus the protocol ``requests`` and ``non_ok`` replies
    of a service pass and the ``oracle_summary`` of a traced sharded
    pass. Returns ``(attempted, failed, problems, digests)``: attempted
    operations are sessions offered plus protocol requests; failed ones
    are sessions not completed and non-``ok`` replies, or a whole pass's
    sessions when a check fails with nothing lost.
    """
    attempted = failed = 0
    problems: list[str] = []
    digests: list[str] = []
    for result in results:
        summary, offered = result["summary"], result["offered"]
        non_ok = result.get("non_ok", 0)
        attempted += offered + result.get("requests", 0)
        found = check_pass(summary, offered, non_ok_replies=non_ok,
                           sharded=sharded)
        lost = offered - summary["sessions_completed"] + non_ok
        if found and not lost:
            lost = offered
        failed += lost
        problems += found
        digests.append(digest(summary))
        if "oracle_summary" in result:
            digests.append(digest(result["oracle_summary"]))
    mismatch = check_digests(digests)
    if mismatch:
        failed += results[0]["offered"]
        problems += mismatch
    return attempted, failed, problems, digests
