#!/usr/bin/env python3
"""Fit a seeded set of random three-level problems here and in another checkout.

    python3 scripts/fit_probe.py [PARENT_DIR] [--count N]

Problem i (N = 6000 by default) is drawn from its own generator, seeded
with (SEED, i), so the first N problems are the same for every N: 2-25
studies of 1-8 trials each, sample sizes n log-uniform in [1, 5000] with
sampling variances v = 1/(4n + 2), an intercept and 0-3 more design
columns (each study-level or trial-level with probability 1/2),
sigma2_xi and sigma2_zeta log-uniform in [1e-6, 0.1], and REML and ML
alternating.  Every problem is fitted with ``engine.fit_model`` in a
subprocess per checkout, with that checkout's ``src`` on PYTHONPATH and
one BLAS thread.

The report gives, per side, how many problems fit and how many raise,
and the mean and largest number of likelihood evaluations per fit.
With PARENT_DIR (for example a ``git archive`` copy of the parent
commit) it also counts the problems that are identical on both sides
(loglik, both components, converged and evaluations, or the same error
type), those whose loglik is better or worse here by more than 1e-8,
with the worst of each, and those that raise a different error type or
raise on one side only.  Exits 1 if a fit is worse than the parent's by
more than 1e-8 or raises where the parent does not raise the same error.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 20240601
LOGLIK_TOL = 1e-8
WORKER = ("import sys; sys.path.insert(0, {scripts!r}); import fit_probe; "
          "fit_probe.work(int(sys.argv[1]))")


def problem(i: int) -> tuple:
    """(y, X, group_sizes, v, method) of problem i."""
    gen = np.random.default_rng([SEED, i])
    sizes = gen.integers(1, 9, int(gen.integers(2, 26)))
    h, m = len(sizes), int(sizes.sum())
    study = np.repeat(np.arange(h), sizes)
    v = 1.0 / (4.0 * np.exp(gen.uniform(0.0, math.log(5000.0), m)) + 2.0)
    columns = [np.ones(m)]
    for _ in range(int(gen.integers(0, 4))):
        columns.append(gen.normal(size=h)[study] if gen.uniform() < 0.5 else gen.normal(size=m))
    X = np.column_stack(columns)
    xi, zeta = np.exp(gen.uniform(math.log(1e-6), math.log(0.1), 2))
    beta = np.r_[gen.uniform(0.3, 1.4), gen.normal(0.0, 0.1, X.shape[1] - 1)]
    y = (X @ beta + gen.normal(0.0, math.sqrt(xi), h)[study]
         + gen.normal(0.0, np.sqrt(zeta + v)))
    return y, X, sizes, v, ("reml", "ml")[i % 2]


def work(count: int) -> None:
    """Print, as one JSON list, each problem's fit: [loglik, sigma2_xi,
    sigma2_zeta, converged, evaluations], or the name of the error raised."""
    from metaprop.engine import fit_model

    results = []
    for i in range(count):
        y, X, sizes, v, method = problem(i)
        try:
            fit = fit_model(y, X, sizes, v, method=method)
        except Exception as exc:                     # compared by type across sides
            results.append(type(exc).__name__)
            continue
        results.append([fit.loglik, fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta,
                        fit.converged, fit.n_evaluations])
    json.dump(results, sys.stdout)


def run_side(checkout: pathlib.Path, count: int) -> list:
    """The fits of ``work`` with ``checkout``'s metaprop and one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(checkout / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    code = WORKER.format(scripts=str(ROOT / "scripts"))
    proc = subprocess.run([sys.executable, "-c", code, str(count)], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def describe(side: str, results: list) -> None:
    fitted = [r for r in results if not isinstance(r, str)]
    evaluations = [r[4] for r in fitted] or [0]
    print(f"{side}: {len(fitted)} fitted, {len(results) - len(fitted)} raise; evaluations "
          f"per fit mean {np.mean(evaluations):.1f}, max {max(evaluations)}")


def compare(ours: list, theirs: list) -> int:
    """Print the comparison of both sides; the number of failing problems."""
    identical, better, worse, other, errors = 0, [], [], [], []
    for i, (x, y) in enumerate(zip(ours, theirs)):
        if x == y:
            identical += 1
        elif isinstance(x, str):
            errors.append(f"#{i}: {x} here, {y if isinstance(y, str) else 'a fit'} in the parent")
        elif isinstance(y, str):
            other.append(f"#{i}: a fit here, {y} in the parent")
        elif x[0] - y[0] > LOGLIK_TOL:
            better.append((x[0] - y[0], i))
        elif y[0] - x[0] > LOGLIK_TOL:
            worse.append((y[0] - x[0], i))
        else:
            other.append(f"#{i}: [loglik, sigma2_xi, sigma2_zeta, converged, evaluations] "
                         f"{x} here, {y} in the parent")
    print(f"identical: {identical} of {len(ours)}")
    for label, group in (("better", better), ("worse", worse)):
        worst = " (worst #{1}, by {0:.3g})".format(*max(group)) if group else ""
        print(f"{label} by more than {LOGLIK_TOL:g}: {len(group)}{worst}")
    for label, lines in (("other differences", other),
                         ("raise here where the parent does not raise the same error", errors)):
        print(f"{label}: {len(lines)}")
        for line in lines[:10]:
            print(f"  {line}")
    return len(worse) + len(errors)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", nargs="?", type=pathlib.Path,
                        help="another metaprop checkout to compare against")
    parser.add_argument("--count", type=int, default=6000, help="problems to fit")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.parent is not None and not (args.parent / "src" / "metaprop" / "engine.py").is_file():
        parser.error(f"no metaprop checkout at {args.parent}")
    print(f"{args.count} problems, seed {SEED}, REML and ML alternating")
    ours = run_side(ROOT, args.count)
    describe("here", ours)
    if args.parent is None:
        return 0
    theirs = run_side(args.parent.resolve(), args.count)
    describe("parent", theirs)
    return 1 if compare(ours, theirs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
