#!/usr/bin/env python3
"""Check that the subset search, the recovery experiment and the other
commands give the same results as another checkout.

    python3 scripts/search_equivalence.py PARENT_DIR

Runs ``metaprop select data/example_trials.csv data/example_schema.yaml``
from this checkout and from PARENT_DIR (a copy of another commit, such as
one made with ``git archive``), both on this checkout's data and each
with one BLAS thread, once per search: exhaustive and stepwise, each with
REML and with ML criterion likelihoods.  For every search it checks that:

- the exit codes are equal, and stdout and comparison.md byte-identical;
- every search_trail.jsonl record has the same index, features, f,
  converged and skipped, and a loglik within 1e-8; a mismatch names the
  record by its position, with the parent's index in brackets;

and that both reproduce the five-model table below (REML, exhaustive).

Cells of comparison.csv that differ are listed, not failed: that file
prints six significant digits of quantities such as r2_xi, which the flat
top of the likelihood does not determine that far.

It then runs ``metaprop recover CONFIG --reps 300 --format json`` on both
sides for three configs: the example simconfig in gaussian and in
binomial mode, and a small layout with a numeric and a categorical
moderator, whose design width varies across replicates.  300 replicates
span more than one fitted chunk.  The exit codes must be equal and the
stdout byte-identical; keys that only this checkout prints are listed,
and the parent's keys must serialize to the parent's bytes.

Last, it runs the other commands on both sides, each side in a fresh
directory of its own holding an empty ``sub/``, so that relative paths
in the arguments and in stdout are the same.  It checks that the exit
codes are equal and that stdout, stderr and every file the command
leaves in that directory are byte-identical, each manifest.json with its
timestamp masked.  The commands are: ``simulate`` on the same three
configs, on two more binomial ones (the example with n in [1, 9000],
whose draws take one round, several, and partial last rounds, and the
moderated layout, whose draws all take one round), with ``--replicate 3
--format json`` and with ``--schema-out sub/s.yaml --out-dir other``;
``fit`` as text, with ``--diagnostics --format json`` and with
``--method ml --out-dir``; ``regress --features=all`` as text and JSON,
``regress --features=ml_model``, and ``regress --features=nope``, which
exits 2; ``forest`` as text, with ``--format json`` on both scales and
with both study-effect methods, and into ``sub/`` with ``--out-dir
other``; ``recover --reps 20`` as text, of the example and of the
binomial moderated layout, which clamps; a four-trial ``select`` whose
Full model fails, which exits 3 with a notes footer, as text and with
``--format json``; and ``fit`` and ``select`` of a one-study file, which
warn.  Every ``--format json`` stdout of this checkout must also parse
as strict JSON, without NaN or Infinity (RFC 8259); the parent's is only
byte-compared.  Exits 1 on any mismatch.
"""

import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "example_trials.csv"
SCHEMA = ROOT / "data" / "example_schema.yaml"
SIMCONFIG = ROOT / "data" / "example_simconfig.yaml"
LOGLIK_TOL = 1e-8
RECOVER_REPS = 300
MODERATED_CONFIG = {"simulation": {
    "h": 5, "trials_per_study": [2, 3, 1, 2, 4], "mu": 1.1, "sigma2_xi": 0.01,
    "sigma2_zeta": 0.005, "n_range": [50, 400], "seed": 9,
    "moderators": [{"name": "x", "effect": 0.1, "kind": "numeric"},
                   {"name": "g", "effect": 0.05, "kind": "categorical"}]}}

# four trials and a four-level feature: the Full model has m == f
FAILING_SELECT = ("study_id,trial_id,k,n,grp\nS1,t1,80,100,a\nS1,t2,70,90,b\n"
                  "S2,t1,60,100,c\nS2,t2,75,80,d\n",
                  "features:\n  grp:\n    kind: categorical\n    reference_level: a\n")
# six trials of one study: sigma2_xi is not identifiable, and every fit warns
ONE_STUDY = ("study_id,trial_id,k,n,x\n" + "".join(
    f"S1,t{i},{k},100,{x}\n" for i, (k, x) in enumerate(
        [(80, 0.1), (70, 0.7), (60, 0.2), (75, 0.9), (90, 0.4), (65, 0.3)])),
             "features:\n  x:\n    kind: numeric\n")

ALL = ("train_test_ratio", "training_size", "sentiment_classes", "ml_model",
       "n_extraction_methods", "extraction_method", "language", "labeling_method",
       "majority_class", "topic", "dataset_type", "confusion_matrix")
# row, f, AIC, BIC (4 decimals), RMSE (6 decimals), features
SEARCHES = [("exhaustive", "reml"), ("exhaustive", "ml"), ("stepwise", "reml"),
            ("stepwise", "ml")]
FIVE_MODEL_TABLE = [
    ("AIC", 5, -372.4292, -349.7000, 0.129252, ("ml_model",)),
    ("Null", 1, -367.8744, -358.0708, 0.134372, ()),
    ("BIC", 1, -367.8744, -358.0708, 0.134372, ()),
    ("RMSE", 28, -243.3082, -149.7684, 0.083803, ALL[1:]),
    ("Full", 29, -231.1218, -134.6502, 0.083939, ALL),
]


def json_problems(label: str, stdout: bytes) -> list:
    """A problem if STDOUT is not strict JSON: RFC 8259 has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    try:
        json.loads(stdout, parse_constant=reject)
    except ValueError as exc:
        return [f"{label}: stdout is not strict JSON: {exc}"]
    return []


def run_cli(checkout: pathlib.Path, *argv, codes=(0,), cwd=None) -> tuple:
    """(exit code, stdout, stderr) of ``metaprop ARGV`` run from ``checkout``,
    in ``cwd`` (default: the checkout)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(checkout / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "metaprop.cli", *map(str, argv)],
                          cwd=cwd or checkout, env=env, capture_output=True, check=False)
    if proc.returncode not in codes:
        sys.exit(f"metaprop {argv[0]} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return proc.returncode, proc.stdout, proc.stderr


def run_select(checkout: pathlib.Path, out_dir: pathlib.Path, strategy: str,
               likelihood: str) -> tuple:
    """(exit code, stdout) of the command; exit 3 (a model did not converge)
    still writes every output."""
    return run_cli(checkout, "select", DATA, SCHEMA, "--strategy", strategy,
                   "--criterion-likelihood", likelihood, "--out-dir", out_dir,
                   codes=(0, 3))[:2]


def read_csv(path: pathlib.Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def five_model_problems(side: str, out_dir: pathlib.Path) -> list:
    """Each row's model, f and features from comparison.csv, and its AIC,
    BIC and RMSE at full precision from the trail record of its subset."""
    rows = {row["model"]: row for row in read_csv(out_dir / "comparison.csv")}
    trail = {tuple(rec["features"]): rec for rec in map(json.loads, open(
        out_dir / "search_trail.jsonl", encoding="utf-8"))}
    problems = []
    for name, f, aic, bic, rmse, features in FIVE_MODEL_TABLE:
        row = rows.get(name)
        got = (row and int(row["f"]), row and tuple(filter(None, row["features"].split(";"))))
        if got != (f, features):
            problems.append(f"{side}: row {name} has (f, features) {got}, want {(f, features)}")
            continue
        rec = trail[features]
        values = (round(rec["aic"], 4), round(rec["bic"], 4), round(rec["rmse"], 6))
        if values != (aic, bic, rmse):
            problems.append(f"{side}: row {name} has (AIC, BIC, RMSE) {values}, "
                            f"want {(aic, bic, rmse)}")
    return problems


def trail_problems(ours: pathlib.Path, theirs: pathlib.Path, label: str) -> list:
    a = [json.loads(line) for line in open(ours / "search_trail.jsonl", encoding="utf-8")]
    b = [json.loads(line) for line in open(theirs / "search_trail.jsonl", encoding="utf-8")]
    if len(a) != len(b):
        return [f"{label}: search_trail.jsonl has {len(a)} records here and {len(b)} "
                "in the parent"]
    problems, worst = [], 0.0
    for i, (x, y) in enumerate(zip(a, b)):
        record = f"{label}: trail record {i} [index {y['index']}]"   # the parent's may repeat
        for key in ("index", "features", "f", "converged", "skipped"):
            if x[key] != y[key]:
                problems.append(f"{record}: {key} {x[key]!r} != {y[key]!r}")
        if (x["loglik"] is None) != (y["loglik"] is None):
            problems.append(f"{record}: loglik {x['loglik']} != {y['loglik']}")
        elif x["loglik"] is not None:
            gap = abs(x["loglik"] - y["loglik"])
            worst = max(worst, gap)
            if not gap <= LOGLIK_TOL:
                problems.append(f"{record}: loglik differs by {gap:.3g}")
    print(f"{label}: search_trail.jsonl: {len(a)} records, "
          f"largest loglik difference {worst:.3g}")
    return problems


def search_problems(parent: pathlib.Path, tmp: pathlib.Path, strategy: str,
                    likelihood: str) -> list:
    """Run one search on both sides and compare what it writes."""
    label = f"{strategy} {likelihood}"
    ours, theirs = tmp / f"{strategy}_{likelihood}", tmp / f"parent_{strategy}_{likelihood}"
    code, stdout = run_select(ROOT, ours, strategy, likelihood)
    parent_code, parent_stdout = run_select(parent, theirs, strategy, likelihood)
    problems = []
    if code != parent_code:
        problems.append(f"{label}: exit code {code} here, {parent_code} in the parent")
    if stdout != parent_stdout:
        problems.append(f"{label}: stdout differs")
    if (ours / "comparison.md").read_bytes() != (theirs / "comparison.md").read_bytes():
        problems.append(f"{label}: comparison.md differs")
    if (strategy, likelihood) == ("exhaustive", "reml"):
        problems += five_model_problems("here", ours) + five_model_problems("parent", theirs)
    problems += trail_problems(ours, theirs, label)
    parent_rows = {row["model"]: row for row in read_csv(theirs / "comparison.csv")}
    for x in read_csv(ours / "comparison.csv"):
        y = parent_rows.get(x["model"], {})
        for key in x:
            if x[key] != y.get(key):
                print(f"{label}: comparison.csv {x['model']}.{key}: {x[key]} here, "
                      f"{y.get(key)} in the parent")
    return problems


def recover_configs() -> dict:
    """The recover configs by name, as YAML mappings."""
    example = yaml.safe_load(SIMCONFIG.read_text(encoding="utf-8"))
    binomial = {"simulation": dict(example["simulation"], mode="binomial")}
    return {"gaussian": example, "binomial": binomial, "moderated": MODERATED_CONFIG}


def simulate_configs() -> dict:
    """The simulate configs by name: the recover configs and two more in binomial mode."""
    configs = recover_configs()
    configs["binomial_wide_n"] = {"simulation": dict(configs["binomial"]["simulation"],
                                                     n_range=[1, 9000])}
    configs["moderated_binomial"] = {"simulation": dict(MODERATED_CONFIG["simulation"],
                                                        mode="binomial")}
    return configs


def write_config(tmp: pathlib.Path, name: str, config: dict) -> pathlib.Path:
    path = tmp / f"config_{name}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return path


def recover_problems(parent: pathlib.Path, tmp: pathlib.Path, name: str, config: dict) -> list:
    """Run one recovery experiment on both sides and compare the JSON it prints."""
    label = f"recover {name}"
    argv = ("recover", write_config(tmp, name, config), "--reps", RECOVER_REPS, "--format", "json")
    code, stdout, _ = run_cli(ROOT, *argv)
    parent_code, parent_stdout, _ = run_cli(parent, *argv)
    problems = []
    if code != parent_code:
        problems.append(f"{label}: exit code {code} here, {parent_code} in the parent")
    problems += json_problems(label, stdout)
    ours, theirs = json.loads(stdout), json.loads(parent_stdout)
    added = [key for key in ours if key not in theirs]
    shared = json.dumps({key: ours[key] for key in ours if key in theirs}, indent=2) + "\n"
    if shared.encode() != parent_stdout or set(theirs) - set(ours):
        problems.append(f"{label}: stdout differs")
    print(f"{label}: {ours['replications']} replicates, coverage {ours['coverage']}"
          + (f", keys only here: {', '.join(added)}" if added else ""))
    return problems


def written(where: pathlib.Path) -> dict:
    """The bytes of every file under WHERE by relative path, each manifest's
    timestamp masked."""
    files = {}
    for path in sorted(where.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": "TIMESTAMP"', data)
            files[path.relative_to(where).as_posix()] = data
    return files


def output_problems(parent: pathlib.Path, tmp: pathlib.Path, label: str, argv) -> list:
    """Run ``metaprop ARGV`` on both sides and compare the bytes it writes.

    Each side runs in a fresh directory of its own, holding an empty
    ``sub/``, so a relative path in ARGV (an output file, an --out-dir)
    names a file there and prints the same on both sides.  The exit
    codes, stdout, stderr and every file left in that directory must be
    equal.  Exit 2 (bad input) is compared too, and exit 3 (a failed fit)
    still writes every output.
    """
    results = []
    for side, checkout in (("here", ROOT), ("parent", parent)):
        where = tmp / f"{side} {label}"
        (where / "sub").mkdir(parents=True)
        code, stdout, stderr = run_cli(checkout, *argv, codes=(0, 2, 3), cwd=where)
        results.append((code, {"stdout": stdout, "stderr": stderr, **written(where)}))
    (code, ours), (parent_code, theirs) = results
    problems = []
    if code != parent_code:
        problems.append(f"{label}: exit code {code} here, {parent_code} in the parent")
    for name in {**ours, **theirs}:
        if name not in theirs or name not in ours:
            side = "here" if name in ours else "in the parent"
            problems.append(f"{label}: {name} is written only {side}")
        elif ours[name] != theirs[name]:
            problems.append(f"{label}: {name} differs")
    if "json" in argv:
        problems += json_problems(label, ours["stdout"])
    print(f"{label}: exit {code}, compared {', '.join(ours)}")
    return problems


def command_runs(tmp: pathlib.Path) -> list:
    """(label, argv) of every command that output_problems compares."""
    data, schema = tmp / "failing.csv", tmp / "failing_schema.yaml"
    data.write_text(FAILING_SELECT[0], encoding="utf-8")
    schema.write_text(FAILING_SELECT[1], encoding="utf-8")
    one, one_schema = tmp / "one.csv", tmp / "one_schema.yaml"
    one.write_text(ONE_STUDY[0], encoding="utf-8")
    one_schema.write_text(ONE_STUDY[1], encoding="utf-8")
    configs = {name: write_config(tmp, name, config)
               for name, config in simulate_configs().items()}
    runs = [(f"simulate {name}", ("simulate", path, "sim.csv")) for name, path in configs.items()]
    runs += [
        ("simulate --replicate 3",
         ("simulate", SIMCONFIG, "sim.csv", "--replicate", 3, "--format", "json")),
        ("simulate --schema-out sub",
         ("simulate", SIMCONFIG, "sim.csv", "--schema-out", "sub/s.yaml", "--out-dir", "other")),
        ("fit", ("fit", DATA, SCHEMA)),
        ("fit --diagnostics", ("fit", DATA, SCHEMA, "--diagnostics", "--format", "json")),
        ("fit --method ml", ("fit", DATA, SCHEMA, "--method", "ml", "--out-dir", "out")),
        ("regress all", ("regress", DATA, SCHEMA, "--features=all", "--out-dir", "out")),
        ("regress all json", ("regress", DATA, SCHEMA, "--features=all", "--format", "json",
                              "--out-dir", "out")),
        ("regress ml_model", ("regress", DATA, SCHEMA, "--features=ml_model")),
        ("regress unknown feature", ("regress", DATA, SCHEMA, "--features=nope")),
        ("forest", ("forest", DATA, SCHEMA, "forest.svg")),
        ("forest into sub", ("forest", DATA, SCHEMA, "sub/forest.svg", "--out-dir", "other")),
    ]
    runs += [(f"forest {scale} {effects}",
              ("forest", DATA, SCHEMA, "forest.svg", "--scale", scale,
               "--study-effects", effects, "--format", "json"))
             for scale in ("proportion", "transformed") for effects in ("blup", "pool")]
    runs += [
        ("recover --reps 20", ("recover", SIMCONFIG, "--reps", 20)),
        ("recover moderated_binomial --reps 20",
         ("recover", configs["moderated_binomial"], "--reps", 20)),
        ("select failing", ("select", data, schema, "--out-dir", "out")),
        ("select failing json", ("select", data, schema, "--format", "json", "--out-dir", "out")),
        ("fit one study", ("fit", one, one_schema, "--out-dir", "out")),
        ("select one study", ("select", one, one_schema, "--out-dir", "out")),
    ]
    return runs


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = pathlib.Path(argv[0]).resolve()
    if not (parent / "src" / "metaprop" / "cli.py").is_file():
        print(f"error: no metaprop checkout at {parent}", file=sys.stderr)
        return 2
    problems = []
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = pathlib.Path(tmp_name)
        for strategy, likelihood in SEARCHES:
            problems += search_problems(parent, tmp, strategy, likelihood)
        for name, config in recover_configs().items():
            problems += recover_problems(parent, tmp, name, config)
        for label, argv in command_runs(tmp):
            problems += output_problems(parent, tmp, label, argv)
    for problem in problems:
        print(f"MISMATCH {problem}")
    print("equivalent" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
