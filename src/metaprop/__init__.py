"""metaprop: pooling classifier accuracies across studies.

Double arcsine effect sizes, a three-level random-effects model fit by
REML, heterogeneity decomposition, moderator regression with AIC/BIC/
RMSE model selection, and forest-plot / table reporting.

``import metaprop`` loads no submodule, so numpy (and its BLAS) is not
loaded before ``metaprop.cli`` picks the BLAS thread count.  Import the
submodules (``from metaprop import engine``); each name below still
reads as ``metaprop.<name>``, loading its submodule on first access.
"""

__version__ = "0.1.0"

_NAMES = {
    "ingest": ("Dataset DesignMatrix FeatureSchema FeatureSpec TrialRecord ValidationError "
               "encode_design load_schema parse_dataset"),
    "transforms": ("EffectSample alt_transform ft_inverse ft_transform shapiro_wilk "
                   "transform_diagnostic"),
    "engine": ("FitResult PooledEstimate VarianceComponents fit_model gls_fixed_effects "
               "log_likelihood marginal_covariance pooled_estimate predict_study_effects"),
    "heterogeneity": ("FitSummary cochran_q i_squared_levels pooled_sampling_variance "
                      "r_squared summarize"),
    "selection": "ModelComparisonRow criterion five_model_protocol",
    "report": "comparison_table forest_plot regression_table",
    "simulate": "Moderator RecoverySummary SimConfig generate recovery_experiment",
}


def __getattr__(name):
    # not cached in globals, so a rebinding of the submodule's name shows here too
    for module, names in _NAMES.items():
        if name in names.split():
            from importlib import import_module
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
