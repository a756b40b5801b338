"""metaprop: pooling classifier accuracies across studies.

Double arcsine effect sizes, a three-level random-effects model fit by
REML, heterogeneity decomposition, moderator regression with AIC/BIC/
RMSE model selection, and forest-plot / table reporting.
"""

__version__ = "0.1.0"

from .ingest import (Dataset, DesignMatrix, FeatureSchema, FeatureSpec,
                     TrialRecord, ValidationError, encode_design, load_schema,
                     parse_dataset)
from .transforms import (EffectSample, alt_transform, ft_inverse, ft_transform,
                         shapiro_wilk, transform_diagnostic)
from .engine import (FitResult, PooledEstimate, VarianceComponents,
                     fit_model, gls_fixed_effects, log_likelihood,
                     marginal_covariance, pooled_estimate, predict_study_effects)
from .heterogeneity import (HeterogeneityReport, cochran_q, heterogeneity_report,
                            i_squared_levels, pooled_sampling_variance, r_squared)
from .selection import ModelComparisonRow, criterion, five_model_protocol
from .report import comparison_table, forest_plot, regression_table
from .simulate import Moderator, RecoverySummary, SimConfig, generate, recovery_experiment
