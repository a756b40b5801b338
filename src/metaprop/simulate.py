"""Synthetic multi-study datasets from the three-level generative model.

Effect sizes are drawn on the transformed scale: population mean, plus a
study-level deviation with the between-study variance, plus a
trial-level deviation with the within-study variance, plus (in gaussian
mode) a sampling error with variance 1/(4n+2).  Gaussian mode matches
the estimator's assumed model exactly and is the reference for
recovery checks; binomial mode instead draws k ~ Binomial(n, p) around
the back-transformed proportion to probe transform adequacy.

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
import yaml

from . import rng
from .ingest import Dataset, FeatureSchema, FeatureSpec, TrialRecord, ValidationError
from .transforms import HALF_PI, ft_inverse_array, ft_variance
from . import engine

__all__ = [
    "Moderator",
    "SimConfig",
    "generate",
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
        sizes = self.trial_counts()
        if any(s < 1 for s in sizes):
            raise ValidationError("every study needs at least 1 trial")
        lo, hi = self.n_range
        if lo < 1 or hi < lo:
            raise ValidationError("n_range must satisfy 1 <= min <= max")

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
        mods = [Moderator(name=str(m["name"]), effect=float(m["effect"]),
                          kind=str(m.get("kind", "numeric")))
                for m in (sim.pop("moderators", None) or [])]
        try:
            cfg = cls(
                h=int(sim.pop("h")),
                trials_per_study=sim.pop("trials_per_study"),
                mu=float(sim.pop("mu")),
                sigma2_xi=float(sim.pop("sigma2_xi")),
                sigma2_zeta=float(sim.pop("sigma2_zeta")),
                n_range=tuple(int(x) for x in sim.pop("n_range")),
                mode=str(sim.pop("mode", "gaussian")),
                seed=int(sim.pop("seed", 0)),
                moderators=mods,
            )
        except KeyError as exc:
            raise ValidationError(f"simulation config missing field {exc}") from None
        if sim:
            raise ValidationError(f"unknown simulation fields {sorted(sim)}")
        return cfg

    @classmethod
    def from_yaml(cls, text: str) -> "SimConfig":
        tree = yaml.safe_load(text)
        if not isinstance(tree, dict):
            raise ValidationError("simulation config file must be a mapping")
        return cls.from_dict(tree)

    def to_yaml(self) -> str:
        sim = {
            "h": self.h,
            "trials_per_study": self.trials_per_study,
            "mu": self.mu,
            "sigma2_xi": self.sigma2_xi,
            "sigma2_zeta": self.sigma2_zeta,
            "n_range": list(self.n_range),
            "mode": self.mode,
            "seed": self.seed,
        }
        if self.moderators:
            sim["moderators"] = [
                {"name": m.name, "effect": m.effect, "kind": m.kind}
                for m in self.moderators]
        return yaml.safe_dump({"simulation": sim}, sort_keys=False)

    def schema(self) -> FeatureSchema:
        entries = []
        for mod in self.moderators:
            if mod.kind == "numeric":
                entries.append(FeatureSpec(name=mod.name, kind="numeric"))
            else:
                entries.append(FeatureSpec(name=mod.name, kind="categorical",
                                           reference_level="a"))
        return FeatureSchema(entries=tuple(entries))


def load_simconfig(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return SimConfig.from_yaml(fh.read())


_STUDY_SENTINEL = -1   # trial index reserved for study-level draws
_BINOMIAL_SUBKEY = 7   # sub-index under the trial stream for binomial counts


def generate(config: SimConfig, replicate: int = 0) -> Dataset:
    """One synthetic dataset; deterministic in (config, replicate)."""
    sizes = config.trial_counts()
    h = config.h
    width = max(2, len(str(h)))
    study_idx = np.repeat(np.arange(h), sizes)
    trial_idx = np.concatenate([np.arange(s) for s in sizes])
    m = int(study_idx.size)

    study_streams = rng.Streams(rng.stream_key(config.seed, replicate,
                                               np.arange(h), _STUDY_SENTINEL))
    xi = study_streams.normal() * math.sqrt(config.sigma2_xi)
    mod_shift = np.zeros(h)
    mod_values = {}
    for mod in config.moderators:
        if mod.kind == "numeric":
            vals = study_streams.normal()
            mod_shift += mod.effect * vals
            mod_values[mod.name] = vals
        else:
            is_b = study_streams.uniform() < 0.5
            mod_shift += mod.effect * is_b.astype(np.float64)
            mod_values[mod.name] = np.where(is_b, "b", "a")

    trial_streams = rng.Streams(rng.stream_key(config.seed, replicate, study_idx, trial_idx))
    n = trial_streams.integers(config.n_range[0], config.n_range[1])
    zeta = trial_streams.normal() * math.sqrt(config.sigma2_zeta)

    theta = config.mu + mod_shift[study_idx] + xi[study_idx] + zeta
    if config.mode == "gaussian":
        eps = trial_streams.normal() * np.sqrt(ft_variance(n))
        theta = theta + eps
    clamped = np.clip(theta, 0.0, HALF_PI)
    clamp_rate = float(np.mean(clamped != theta))
    if clamp_rate > 0.05:
        warnings.warn(f"{100 * clamp_rate:.1f}% of generated effects fell outside "
                      "[0, pi/2] and were clamped; the configuration pushes "
                      "proportions against the boundary", stacklevel=2)
    p = ft_inverse_array(clamped, n.astype(np.float64))

    if config.mode == "gaussian":
        k = np.floor(p * n + 0.5).astype(np.int64)
        k = np.clip(k, 0, n)
    else:
        k = rng.binomial(rng.stream_key(config.seed, replicate, study_idx, trial_idx,
                                        _BINOMIAL_SUBKEY), n, p)

    schema = config.schema()
    trials = []
    for i in range(m):
        j = int(study_idx[i])
        feats = {}
        for mod in config.moderators:
            val = mod_values[mod.name][j]
            feats[mod.name] = float(val) if mod.kind == "numeric" else str(val)
        trials.append(TrialRecord(
            study_id=f"S{j + 1:0{width}d}",
            trial_id=f"S{j + 1:0{width}d}-t{int(trial_idx[i]) + 1}",
            k=int(k[i]), n=int(n[i]), features=feats))
    return Dataset(trials=tuple(trials), schema=schema)


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
    """Aggregate estimator behavior across replicates."""

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


def recovery_experiment(config: SimConfig, replications: int,
                        method: str = "reml") -> RecoverySummary:
    """Fit every replicate and summarize how well the truth is recovered.

    The fitted model includes whatever moderators the generator injected
    (so the intercept estimates mu); coverage counts 95% CIs containing
    the true mu.  Relative variance-component biases are against the
    configured truths, or nan for truths of zero.
    """
    if replications < 1:
        raise ValidationError("replications must be >= 1")
    from .ingest import encode_design
    from .report import Z95

    records = []
    for rep in range(replications):
        data = generate(config, replicate=rep)
        y, v = engine.effect_arrays(data)
        design = encode_design(data, data.schema.names)
        fit = engine.fit_model(y, design, data.group_sizes(), v, method=method)
        mu_hat = float(fit.beta[0])
        se = math.sqrt(max(float(fit.cov_beta[0, 0]), 0.0))
        covered = abs(mu_hat - config.mu) <= Z95 * se
        pooled = engine.pooled_estimate(fit)
        records.append(RecoveryRecord(
            replicate=rep, mu_hat=mu_hat, se=se,
            sigma2_xi_hat=fit.varcomps.sigma2_xi,
            sigma2_zeta_hat=fit.varcomps.sigma2_zeta,
            covered=covered, prop=pooled.prop, converged=fit.converged))

    mean_xi = float(np.mean([r.sigma2_xi_hat for r in records]))
    mean_zeta = float(np.mean([r.sigma2_zeta_hat for r in records]))

    def rel_bias(mean_est, truth):
        return (mean_est - truth) / truth if truth > 0 else math.nan

    return RecoverySummary(
        config=config, replications=replications, records=records,
        mean_mu=float(np.mean([r.mu_hat for r in records])),
        mean_sigma2_xi=mean_xi, mean_sigma2_zeta=mean_zeta,
        coverage=float(np.mean([r.covered for r in records])),
        bias_sigma2_xi=rel_bias(mean_xi, config.sigma2_xi),
        bias_sigma2_zeta=rel_bias(mean_zeta, config.sigma2_zeta),
        n_nonconverged=sum(1 for r in records if not r.converged))
