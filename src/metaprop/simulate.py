"""Synthetic multi-study datasets from the three-level generative model.

Effect sizes are drawn on the transformed scale: population mean, plus a
study-level deviation with the between-study variance, plus a
trial-level deviation with the within-study variance, plus (in gaussian
mode) a sampling error with variance 1/(4n+2).  Effects are then clamped
to [0, pi/2], the range of the transform, with a ClampWarning when more
than 5% are; a recovery experiment sums its replicates' warnings up in
one.  Gaussian mode is the reference for recovery checks: it matches
the estimator's assumed model except where that clamping moves an
effect.  Binomial mode instead draws k ~ Binomial(n, p) around the
back-transformed proportion to probe transform adequacy.

All randomness flows through the package PRNG with substreams keyed by
(replicate, study, trial), so datasets are reproducible across
machines: study-level draws use trial index -1; binomial counts use the
extra sub-index 7 under the trial stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import engine, rng, selection
from .ingest import (COUNT_MAX, Dataset, FeatureSchema, FeatureSpec, ValidationError,
                     load_mapping, read_text)
from .transforms import HALF_PI, ft_inverse_array, ft_variance

__all__ = [
    "Moderator",
    "SimConfig",
    "generate",
    "ClampWarning",
    "recovery_experiment",
    "RecoveryRecord",
    "RecoverySummary",
    "load_simconfig",
]


@dataclass(frozen=True)
class Moderator:
    """A study-level covariate injected into the generator.

    numeric: values are standard-normal draws entering as effect*value.
    categorical: two levels 'a' (reference) and 'b' assigned with equal
    probability; the effect is added for level 'b'.
    """

    name: str
    effect: float
    kind: str = "numeric"

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValidationError(f"moderator {self.name!r}: kind must be numeric or categorical")


INT64_RANGE = range(-2 ** 63, 2 ** 63)   # the integers a seed or index path can hold
# Trials in one simulated dataset, and in one fitted recovery chunk, at most.
# generate plus one intercept-only fit peaked at 383-447 bytes per trial
# (10**5 to 2**21 trials, in 20 to 500000 studies), so 2**21 trials take about
# 1 GB at most.  `metaprop simulate` with a numeric and a categorical moderator
# peaked at 398 MB RSS at 10**6 trials in 20 studies, 846 MB at 2 * 10**6 in
# 500000 studies, and at 2**21 trials 797 MB in 32 studies and 1100 MB in 2**21
# studies of one trial each (Python 3.11, x86-64).
MAX_TRIALS = 2 ** 21


@dataclass
class SimConfig:
    """Generator settings; see module docstring for the model."""

    h: int
    trials_per_study: object
    mu: float
    sigma2_xi: float
    sigma2_zeta: float
    n_range: tuple
    mode: str = "gaussian"
    seed: int = 0
    moderators: list = field(default_factory=list)

    def __post_init__(self):
        if self.h < 1:
            raise ValidationError("h must be >= 1")
        if self.sigma2_xi < 0 or self.sigma2_zeta < 0:
            raise ValidationError("variance components must be nonnegative")
        if self.mode not in ("gaussian", "binomial"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        trials = self.trials_per_study
        scalar = isinstance(trials, int)
        for name, values in (("h", [self.h]), ("seed", [self.seed]),
                             ("trials_per_study", [trials] if scalar else trials)):
            for value in values:
                if int(value) not in INT64_RANGE:
                    raise ValidationError(f"simulation field {name!r} must lie in the signed "
                                          f"64-bit range [-2**63, 2**63 - 1], got {value}")
        counts = [trials] if scalar else self.trial_counts()   # not expanded before the bound
        if any(s < 1 for s in counts):
            raise ValidationError("every study needs at least 1 trial")
        total = self.h * trials if scalar else sum(counts)
        if total > MAX_TRIALS:
            given = ("fields 'h' and 'trials_per_study' give" if scalar
                     else "field 'trials_per_study' sums to")
            raise ValidationError(f"simulation {given} {total} trials, over the bound of "
                                  f"{MAX_TRIALS} (simulate.MAX_TRIALS)")
        if len(self.n_range) != 2 or not 1 <= self.n_range[0] <= self.n_range[1]:
            raise ValidationError("n_range must be [min, max] with 1 <= min <= max")
        if self.n_range[1] > COUNT_MAX:
            raise ValidationError("n_range may not exceed 2**53, the largest n a dataset "
                                  f"holds, got max {self.n_range[1]}")
        if self.mode == "binomial" and self.n_range[1] > rng.BINOMIAL_N_MAX:
            raise ValidationError("n_range may not exceed 2**24 (rng.BINOMIAL_N_MAX) in binomial "
                                  "mode, whose draws take time in proportion to n, got max "
                                  f"{self.n_range[1]}")

    def trial_counts(self) -> list:
        if isinstance(self.trials_per_study, int):
            return [self.trials_per_study] * self.h
        sizes = [int(s) for s in self.trials_per_study]
        if len(sizes) != self.h:
            raise ValidationError(
                f"trials_per_study has {len(sizes)} entries for h={self.h} studies")
        return sizes

    @classmethod
    def from_dict(cls, tree: dict) -> "SimConfig":
        sim = tree.get("simulation")
        if not isinstance(sim, dict):
            raise ValidationError("config must contain a 'simulation' mapping")
        sim = dict(sim)

        def take(name, convert, *default):
            if name not in sim and not default:
                raise ValidationError(f"simulation config missing field {name!r}")
            try:
                return convert(sim.pop(name, *default))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(
                    f"simulation field {name!r}: {type(exc).__name__}: {exc}") from None

        cfg = cls(
            h=take("h", _integral),
            trials_per_study=take("trials_per_study", lambda t: list(map(_integral, t))
                                  if isinstance(t, list) else _integral(t)),
            mu=take("mu", _finite),
            sigma2_xi=take("sigma2_xi", _finite),
            sigma2_zeta=take("sigma2_zeta", _finite),
            n_range=take("n_range", lambda r: tuple(map(_integral, r))),
            mode=take("mode", str, "gaussian"),
            seed=take("seed", _integral, 0),
            moderators=take("moderators", lambda mods: [
                Moderator(name=str(m["name"]), effect=_finite(m["effect"]),
                          kind=str(m.get("kind", "numeric"))) for m in mods or []], None),
        )
        if sim:
            raise ValidationError(f"unknown simulation fields {sorted(sim)}")
        return cfg

    @classmethod
    def from_yaml(cls, text: str) -> "SimConfig":
        return cls.from_dict(load_mapping(text, "simulation config file"))

    def schema(self) -> FeatureSchema:
        return FeatureSchema(entries=tuple(
            FeatureSpec(name=mod.name, kind=mod.kind,
                        reference_level=None if mod.kind == "numeric" else "a")
            for mod in self.moderators))


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _integral(raw) -> int:
    value = raw if isinstance(raw, int) else _finite(raw)
    if isinstance(raw, bool) or value != int(value):
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


def load_simconfig(path) -> SimConfig:
    return SimConfig.from_yaml(read_text(path))


_STUDY_SENTINEL = -1   # trial index reserved for study-level draws
_BINOMIAL_SUBKEY = 7   # sub-index under the trial stream for binomial counts


class ClampWarning(UserWarning):
    """More than 5% of a generated dataset's effects, ``rate`` of them, were clamped."""

    def __init__(self, rate: float):
        super().__init__(f"{100 * rate:.1f}% of generated effects fell outside [0, pi/2] and "
                         "were clamped; the configuration pushes proportions against the boundary")
        self.rate = rate


def generate(config: SimConfig, replicate: int = 0) -> Dataset:
    """One synthetic dataset; deterministic in (config, replicate)."""
    sizes = config.trial_counts()
    h = config.h
    width = max(2, len(str(h)))
    study_idx = np.repeat(np.arange(h), sizes)
    trial_idx = np.concatenate([np.arange(s) for s in sizes])

    replicate_key = rng.stream_key(config.seed, replicate)
    study_streams = rng.Streams(rng.extend_key(replicate_key, np.arange(h), _STUDY_SENTINEL))
    xi = study_streams.normal() * math.sqrt(config.sigma2_xi)
    mod_shift = np.zeros(h)
    mod_values = {}
    for mod in config.moderators:
        if mod.kind == "numeric":
            shift = mod_values[mod.name] = study_streams.normal()
        else:
            shift = (study_streams.uniform() < 0.5).astype(np.float64)
            mod_values[mod.name] = np.where(shift, "b", "a")
        mod_shift += mod.effect * shift

    trial_keys = rng.extend_key(replicate_key, study_idx, trial_idx)
    trial_streams = rng.Streams(trial_keys)
    n = trial_streams.integers(config.n_range[0], config.n_range[1])
    zeta = trial_streams.normal() * math.sqrt(config.sigma2_zeta)

    theta = config.mu + mod_shift[study_idx] + xi[study_idx] + zeta
    if config.mode == "gaussian":
        theta = theta + trial_streams.normal() * np.sqrt(ft_variance(n))
    clamped = np.clip(theta, 0.0, HALF_PI)
    clamp_rate = float(np.mean(clamped != theta))
    if clamp_rate > 0.05:
        warnings.warn(ClampWarning(clamp_rate), stacklevel=2)
    p = ft_inverse_array(clamped, n.astype(np.float64))

    if config.mode == "gaussian":
        k = np.clip(np.floor(p * n + 0.5).astype(np.int64), 0, n)
    else:
        k = rng.binomial(rng.extend_key(trial_keys, _BINOMIAL_SUBKEY), n, p)

    study_id = np.array([f"S{j + 1:0{width}d}" for j in range(h)], dtype=object)[study_idx]
    return Dataset(study_id=study_id, trial_id=study_id + "-t" + (trial_idx + 1).astype(str),
                   k=k, n=n, schema=config.schema(),
                   features={name: values[study_idx] for name, values in mod_values.items()})


_CHUNK = 256   # replicates per fit_subsets call at most: bounds memory, not results


@dataclass(frozen=True)
class RecoveryRecord:
    """Estimates from one replicate of the recovery experiment."""

    replicate: int
    mu_hat: float
    se: float
    sigma2_xi_hat: float
    sigma2_zeta_hat: float
    covered: bool
    prop: float
    converged: bool


@dataclass
class RecoverySummary:
    """Aggregate estimator behavior across replicates.  ``metaprop recover
    --format=json`` prints replications, the truth, then every other field
    but config and records, in this order."""

    config: SimConfig
    replications: int
    records: list
    mean_mu: float
    mean_sigma2_xi: float
    mean_sigma2_zeta: float
    coverage: float
    bias_sigma2_xi: float
    bias_sigma2_zeta: float
    n_nonconverged: int
    coverage_se: float
    abs_bias_sigma2_xi: float
    abs_bias_sigma2_zeta: float


def recovery_experiment(config: SimConfig, replications: int,
                        method: str = "reml") -> RecoverySummary:
    """Fit every replicate and summarize how well the truth is recovered.

    The fitted model includes whatever moderators the generator injected
    (so the intercept estimates mu); coverage counts 95% CIs containing
    the true mu, and coverage_se is its Monte Carlo standard error.
    Variance-component biases are the mean estimates minus the configured
    truths, and relative biases those over the truths, or nan for truths
    of zero.

    Each chunk of replicates is generated in order and fitted by one
    ``selection.fit_subsets`` call with every moderator as its one subset:
    that keeps only each replicate's effects, sampling variances and
    candidate columns, takes one rank decision for the chunk, and advances
    the starts of every replicate of one design width in lockstep.  A chunk
    holds _CHUNK replicates, or fewer so that it holds at most MAX_TRIALS
    trials (one replicate at least); a fit took about 55 bytes per trial of
    its chunk.  Memory thus grows with neither the replications nor, past
    MAX_TRIALS // _CHUNK trials, the layout, and each record equals
    ``engine.fit_model`` on its replicate alone.  The first failing
    replicate raises fit_model's error.  After the last chunk, the
    replicates' ClampWarnings become one UserWarning.
    """
    if replications < 1:
        raise ValidationError("replications must be >= 1")

    records, clamp_rates = [], []
    chunk = min(_CHUNK, max(1, MAX_TRIALS // sum(config.trial_counts())))
    for first in range(0, replications, chunk):
        reps = range(first, min(first + chunk, replications))
        with warnings.catch_warnings(record=True) as notes:   # generates; fits come later
            warnings.simplefilter("always", ClampWarning)
            designs = selection.fit_subsets((generate(config, rep) for rep in reps),
                                            [config.schema().names], method)
        clamp_rates += [note.message.rate for note in notes if note.category is ClampWarning]
        fits = dict(designs)   # outside the capture, so the engine's warnings show
        fitted = [engine.fit_or_raise(fits[k]) for k in range(len(reps))]
        # pooled_estimate's prop and the intercept's CI, for the whole chunk at once
        pooled, pooled_se = np.array([engine.pooled_mean(fit) for fit in fitted]).T
        props = engine.intervals(pooled, pooled_se)[1][:, 0].tolist()
        ses = [math.sqrt(max(float(fit.cov_beta[0, 0]), 0.0)) for fit in fitted]
        ends = engine.intervals([fit.beta[0] for fit in fitted], ses)[0].tolist()
        for rep, fit, (mu_hat, low, high), se, prop in zip(reps, fitted, ends, ses, props):
            records.append(RecoveryRecord(
                replicate=rep, mu_hat=mu_hat, se=se,
                sigma2_xi_hat=fit.varcomps.sigma2_xi,
                sigma2_zeta_hat=fit.varcomps.sigma2_zeta,
                covered=low <= config.mu <= high,
                prop=prop, converged=fit.converged))
    if clamp_rates:
        warnings.warn(f"{len(clamp_rates)} of {replications} replicates had more than 5% of "
                      "their generated effects clamped to [0, pi/2] "
                      f"(at most {100 * max(clamp_rates):.1f}%)", stacklevel=2)

    mean_xi = float(np.mean([r.sigma2_xi_hat for r in records]))
    mean_zeta = float(np.mean([r.sigma2_zeta_hat for r in records]))
    coverage = float(np.mean([r.covered for r in records]))

    def rel_bias(mean_est, truth):
        return (mean_est - truth) / truth if truth > 0 else math.nan

    return RecoverySummary(
        config=config, replications=replications, records=records,
        mean_mu=float(np.mean([r.mu_hat for r in records])),
        mean_sigma2_xi=mean_xi, mean_sigma2_zeta=mean_zeta,
        coverage=coverage,
        coverage_se=math.sqrt(coverage * (1.0 - coverage) / replications),
        bias_sigma2_xi=rel_bias(mean_xi, config.sigma2_xi),
        bias_sigma2_zeta=rel_bias(mean_zeta, config.sigma2_zeta),
        n_nonconverged=sum(1 for r in records if not r.converged),
        abs_bias_sigma2_xi=mean_xi - config.sigma2_xi,
        abs_bias_sigma2_zeta=mean_zeta - config.sigma2_zeta)
