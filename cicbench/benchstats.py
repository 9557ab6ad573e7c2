"""Statistics, metric-name and reference-check helpers for the cicbench runner."""

import re
import statistics

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile outside (0, 100]")
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil without floats
    return ordered[max(int(rank), 1) - 1]


FASTEST_KEEP = 8


def fastest(values, keep=FASTEST_KEEP):
    """Median of the `keep` smallest values: one item's figure over a run's
    repetitions (interference on a shared host only ever adds time)."""
    return median(sorted(values)[:keep])


def valid_metric_name(name):
    """Metric names: a letter or digit, then letters, digits, '_', '.', '-'
    (at most 64 characters)."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def compare_reference(expected, actual, path=""):
    """Every leaf of `expected` must equal the same leaf of `actual`.
    Returns the mismatches as human-readable strings."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        out = []
        for key, value in expected.items():
            sub = f"{path}.{key}" if path else key
            if key not in actual:
                out.append(f"{sub}: missing")
            else:
                out.extend(compare_reference(value, actual[key], sub))
        return out
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []
