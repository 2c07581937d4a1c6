"""The row every throughput/latency figure prints for one run."""


def figure_row(result, **point):
    """*point* (the sweep coordinates), then the run's rates.

    Refuses a run that ``max_ms`` cut off before its batch budget: its
    rates would read like a finished run's.
    """
    assert result.metadata["budget_met"], (
        f"unmet batch budget: {result.metadata['description']} completed "
        f"{result.metadata['completed_batches']} batches")
    return {**point,
            "throughput_txn_per_s": round(result.throughput_txn_per_s),
            "latency_ms": round(result.avg_latency_ms, 2),
            "budget_met": True}
