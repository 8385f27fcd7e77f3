"""Epsilon-differentially-private independent-marginal synthesizer.

The baseline generator: build one histogram per attribute (equal-width bins
for numeric columns, the observed category set for categorical columns),
perturb every count with Laplace noise of scale 1/eps_a, clamp negatives,
normalize, and sample each attribute independently from its noisy marginal.

Privacy accounting uses the add/remove-one neighboring convention: each
count query has sensitivity 1, the per-attribute budget is eps_a =
epsilon / (number of attributes), and the marginals compose sequentially to
the total epsilon because every attribute touches the same records.

Randomness is fully pinned for reproducibility: a PCG64 stream seeds one
SeedSequence child per attribute (substream id = attribute ordinal), and
the Laplace noise and the sampling take their uniforms from its raw 64-bit
stream, so a (dataset, epsilon, n, num_bins, seed) tuple always produces
the same output dataset, regardless of how attributes are scheduled. A
tuple that ``[synth]`` would refuse raises ``ConfigError``, from
``config.SynthSettings``, as does an epsilon or n of None.

Numeric binning spans the observed [min, max] of the real data. That range
is itself disclosed by construction; this is a documented limitation of the
independent-marginal design, and it also guarantees boundary adherence of
the output.
"""

from __future__ import annotations

import math
from collections import Counter
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_NUM_BINS, AttributeSchema, Kind, SynthSettings
from .dataset import Dataset
from .errors import ConfigError, DataError, Record


class NoisyHistogram(Record):
    """One attribute's Laplace-noised marginal, normalized to a distribution."""

    __slots__ = {
        "attribute": "str", "kind": "Kind", "bins": "category tuple, or ndarray of bin edges (len = bins + 1)",
        "noisy_counts": "np.ndarray", "probabilities": "np.ndarray",
    }
    _hidden = frozenset({"noisy_counts", "probabilities"})


def _laplace_noise(rng: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """Laplace(0, scale) via inverse CDF over uniforms from the raw 64-bit stream.

    Uniforms are built as (raw >> 11 + 0.5) * 2^-53, open at both ends, so
    the log never sees 0 and the draws are an exact function of the PCG64
    stream. The log is libm's ``math.log1p``, not numpy's, whose SIMD loops
    may round differently from one CPU to another.
    """
    raw = rng.bit_generator.random_raw(size)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    centered = u - 0.5
    logs = np.fromiter(map(math.log1p, (-2.0 * np.abs(centered)).tolist()), np.float64, size)
    return -scale * np.sign(centered) * logs


def _uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """``rng.random(size)`` as numpy builds it today, from the raw stream, which numpy keeps across versions."""
    return (rng.bit_generator.random_raw(size) >> np.uint64(11)) * 2.0**-53


def _normalize(noisy: np.ndarray) -> np.ndarray:
    clamped = np.maximum(noisy, 0.0)
    total = clamped.sum()
    if total <= 0:
        return np.full(len(clamped), 1.0 / len(clamped))
    return clamped / total


def _count(ds: Dataset, attr: AttributeSchema, num_bins: int) -> tuple[tuple, np.ndarray]:
    """One attribute's bins and exact counts, binned as :func:`build_noisy_histogram` says."""
    SynthSettings(num_bins=num_bins)  # refuses a num_bins that [synth] refuses
    if ds.row_count == 0:
        raise DataError("cannot build a histogram from an empty dataset")
    col = ds.columns[attr.name]
    if attr.kind is Kind.NUMERICAL:
        lo, hi = float(np.min(col)), float(np.max(col))
        if not math.isfinite(hi - lo):
            raise DataError(f"attribute {attr.name!r}: range {lo} to {hi} overflows a float, so it cannot be binned")
        if hi == lo:
            edges = np.array([lo, hi])
            counts = np.array([float(len(col))])
        else:
            edges = np.linspace(lo, hi, num_bins + 1)
            counts, _ = np.histogram(col, bins=edges)
            counts = counts.astype(np.float64)
        bins: tuple = tuple(edges)
    else:
        bins, counts = zip(*sorted(Counter(col.tolist()).items()))
        counts = np.array(counts, dtype=np.float64)
    counts.flags.writeable = False
    return bins, counts


def count_marginals(
    ds: Dataset, num_bins: int = DEFAULT_NUM_BINS
) -> MappingProxyType[str, tuple[tuple, np.ndarray]]:
    """Every attribute's histogram bins and exact counts, before any noise.

    Counted once per dataset object and ``num_bins``; later calls return
    the same read-only mapping and counts.
    """
    return ds.derived(_count_all, num_bins)


def _count_all(ds: Dataset, num_bins: int) -> MappingProxyType[str, tuple[tuple, np.ndarray]]:
    return MappingProxyType({a.name: _count(ds, a, num_bins) for a in ds.schema})


def _noisy_histogram(
    attr: AttributeSchema, bins: tuple, counts: np.ndarray, eps_a: float, rng: np.random.Generator
) -> NoisyHistogram:
    """Perturb exact counts with Laplace(1/eps_a), clamp, and normalize."""
    noisy = counts + _laplace_noise(rng, 1.0 / eps_a, len(counts))
    return NoisyHistogram(
        attribute=attr.name,
        kind=attr.kind,
        bins=bins,
        noisy_counts=noisy,
        probabilities=_normalize(noisy),
    )


def build_noisy_histogram(
    ds: Dataset,
    attr: str,
    eps_a: float,
    num_bins: int = DEFAULT_NUM_BINS,
    rng: np.random.Generator | None = None,
) -> NoisyHistogram:
    """Count, perturb with Laplace(1/eps_a), clamp, and normalize one marginal.

    Numeric attributes use ``num_bins`` equal-width bins over the observed
    range (a constant column collapses to a single bin); categorical
    attributes use their observed category set, in sorted order.
    """
    if not 0 < eps_a < math.inf:  # also false for nan
        raise ConfigError(f"per-attribute epsilon must be positive and finite, got {eps_a}")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    schema = ds.attribute(attr)
    return _noisy_histogram(schema, *_count(ds, schema, num_bins), eps_a, rng)


def _sample_from_histogram(
    hist: NoisyHistogram, n: int, rng: np.random.Generator
) -> np.ndarray:
    cum = np.cumsum(hist.probabilities)
    cum[-1] = 1.0  # guard against float undersum
    picks = np.searchsorted(cum, _uniforms(rng, n), side="right")
    picks = np.minimum(picks, len(hist.probabilities) - 1)

    if hist.kind is Kind.CATEGORICAL:
        cats = np.array(hist.bins, dtype=object)
        return cats[picks]

    edges = np.asarray(hist.bins, dtype=np.float64)
    if len(edges) == 2 and edges[0] == edges[1]:
        return np.full(n, edges[0])
    lows = edges[picks]
    highs = edges[picks + 1]
    values = lows + _uniforms(rng, n) * (highs - lows)
    # uniform-in-bin can graze the upper edge after rounding; keep in range
    return np.minimum(values, edges[-1])


def synthesize(
    ds: Dataset,
    epsilon: float,
    n: int,
    num_bins: int = DEFAULT_NUM_BINS,
    seed: int = 0,
) -> Dataset:
    """Generate n rows by sampling every attribute from its noisy marginal.

    Deterministic for a fixed (dataset, epsilon, n, num_bins, seed); the
    output carries the input schema unchanged, and its categorical cells are
    the input's own interned strings. The exact counts come from
    :func:`count_marginals`, so many syntheses from one dataset object count
    once per ``num_bins``.
    """
    if ds.row_count == 0:
        raise DataError("cannot synthesize from an empty dataset")
    if epsilon is None or n is None:  # [synth] may leave them unset, a synthesis may not
        raise ConfigError(f"synthesis requires an epsilon and a row count n, got epsilon={epsilon}, n={n}")
    SynthSettings(epsilon, n, num_bins, seed)  # refuses the settings that [synth] refuses
    eps_a = epsilon / len(ds.schema)  # sequential composition over the attributes
    marginals = count_marginals(ds, num_bins)

    children = np.random.SeedSequence(seed).spawn(len(ds.schema))
    columns: dict[str, np.ndarray] = {}
    for child, attr in zip(children, ds.schema):
        rng = np.random.Generator(np.random.PCG64(child))
        hist = _noisy_histogram(attr, *marginals[attr.name], eps_a, rng)
        columns[attr.name] = _sample_from_histogram(hist, n, rng)
    return Dataset(schema=ds.schema, columns=columns, row_count=n)


def generator_metadata(
    schema: tuple[AttributeSchema, ...], epsilon: float, n: int, num_bins: int, seed: int
) -> dict:
    """Provenance block recorded in run reports for generated variants."""
    return {
        "type": "dp_independent_marginals",
        "epsilon": epsilon,
        "per_attribute_epsilon": epsilon / len(schema),
        "n": n,
        "num_bins": num_bins,
        "seed": seed,
    }
