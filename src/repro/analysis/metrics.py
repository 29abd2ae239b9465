"""Metric helpers shared by the figure generators and benchmarks."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from ..training.runtime import RunResult


def throughput_speedups(results: Mapping[str, RunResult]) -> Dict[str, float]:
    """DataStates checkpoint-throughput speedup over each baseline."""
    datastates = results["datastates"].checkpoint_throughput_bytes_per_second
    speedups = {}
    for name, result in results.items():
        if name == "datastates":
            continue
        baseline = result.checkpoint_throughput_bytes_per_second
        speedups[name] = datastates / baseline if baseline > 0 else float("inf")
    return speedups


def iteration_time_speedups(results: Mapping[str, RunResult]) -> Dict[str, float]:
    """DataStates iteration-time speedup (baseline_time / datastates_time)."""
    datastates = results["datastates"].avg_iteration_seconds_with_checkpoint
    speedups = {}
    for name, result in results.items():
        if name == "datastates":
            continue
        speedups[name] = (
            result.avg_iteration_seconds_with_checkpoint / datastates
            if datastates > 0 else float("inf")
        )
    return speedups


def end_to_end_speedups(results: Mapping[str, RunResult]) -> Dict[str, float]:
    """DataStates end-to-end runtime speedup over each baseline."""
    datastates = results["datastates"].end_to_end_seconds
    speedups = {}
    for name, result in results.items():
        if name == "datastates":
            continue
        speedups[name] = result.end_to_end_seconds / datastates if datastates > 0 else float("inf")
    return speedups


def ordering_matches(measured: Mapping[str, float], reference: Mapping[str, float],
                     higher_is_better: bool = True) -> bool:
    """Do measured values rank the engines in the same order as the paper?

    Only the position of ``datastates`` relative to every baseline is
    checked — that is the paper's qualitative claim — rather than the full
    permutation, which is sensitive to noise between closely-matched
    baselines.
    """
    if "datastates" not in measured or "datastates" not in reference:
        return False
    for name in measured:
        if name == "datastates" or name not in reference:
            continue
        measured_better = (
            measured["datastates"] > measured[name]
            if higher_is_better else measured["datastates"] < measured[name]
        )
        reference_better = (
            reference["datastates"] > reference[name]
            if higher_is_better else reference["datastates"] < reference[name]
        )
        if measured_better != reference_better:
            return False
    return True


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (ignores non-positive entries)."""
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return float("nan")
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / reference (inf when the reference is zero)."""
    if reference == 0:
        return float("inf")
    return abs(measured - reference) / abs(reference)
