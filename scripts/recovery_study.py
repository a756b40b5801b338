#!/usr/bin/env python3
"""Estimator validation: recover known truths from simulated datasets.

Draws replicated datasets from the three-level generator at the
reference layout (20 studies, 195 trials), fits each with REML, and
reports, as ``metaprop recover`` prints them, mean estimates, relative
biases, and CI coverage of the population effect with its Monte Carlo
standard error.  A binomial-mode pass probes how much the transform's
gaussian approximation costs when counts are truly binomial.

    python3 scripts/recovery_study.py [--reps N]
"""

import argparse
import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from metaprop.report import recovery_text
from metaprop.simulate import load_simconfig, recovery_experiment


def describe(tag, summary):
    print(f"== {tag} (mode={summary.config.mode})")
    print(recovery_text(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--config", default=None,
                        help="simulation config (default: bundled example)")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parents[1]
    config = load_simconfig(args.config or root / "data" / "example_simconfig.yaml")

    describe("gaussian generator", recovery_experiment(config, args.reps))

    binomial = dataclasses.replace(config, mode="binomial")
    describe("binomial generator", recovery_experiment(binomial, args.reps))


if __name__ == "__main__":
    main()
