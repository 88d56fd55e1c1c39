#!/usr/bin/env python3
"""Print one sha256 per maxlab report over a fixed set of seeded inputs.

The inputs are the seed-1 inputs of the three benchmark workloads and every
small-catalog space (tests/corpus.py) with each weight vector over {0, 1, 2}.
Each input also gets a seeded `lsc` sequence file. The first run writes them
into DIR, with a list in DIR/cases.json; later runs reuse them, so the input
paths and hashes that every report records stay the same. On each input the
script runs, in-process, `coincide` (exact, and randomized with 0, 6 and 200
trials), `lemma22`, `lsc` and `maximal`; a benchmark audit input gets
`lemma22` and `lsc` only. Each distinct space gets `balls` and `witness`, and
`demo-grid` runs for n = 2 to 12. Last come the inputs of MALFORMED, written
into DIR/malformed on every run, each with the exit code it must give. All
exit 2 but two: the exact JSON literal 0.5 is read, and the squared-distance
grid fails `validate` (exit 1) with a cut violation list. For each run the
script prints the sha256 of the report's bytes and of the stderr bytes, the
exit code and the report's name. After the last line it exits 1 if a
malformed case gave another exit code, and names each such case on stderr.

The script loads the `src/`, `bench/` and `tests/` next to it. To show that
two checkouts write byte-identical reports, put a copy of it in each, run both
copies on the same DIR and diff the outputs:

    python3 scripts/report_digest.py /tmp/digest > after.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import inputs  # noqa: E402  (bench/inputs.py)
from corpus import small_catalog, weight_grid  # noqa: E402
from maxlab import io as mio  # noqa: E402
from maxlab.cli import main as maxlab_main  # noqa: E402

SEED = 1
RANDOMIZED_TRIALS = (0, 6, 200)
GRID_SIZES = range(2, 13)
LSC_STEPS = 5


# The three-point documents that a malformed case does not replace.
GOOD = {
    "space": '{"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
    "measure": '{"weights": [1, 1, 1]}',
    "fn": '{"f": [0, 0, 1]}',
}
ROLES = {"validate": ("space",), "lemma22": ("space", "measure"), "maximal": ("space", "measure", "fn")}
# 13 x 13 grid points with squared distances: 544,188 triangle violations
SQUARED_GRID = [(i, j) for i in range(13) for j in range(13)]
# case -> (subcommand, the role it replaces, file name, file text, MAXLAB_SEED or None, exit code)
MALFORMED = {
    "true-cell": ("validate", "space", "true.json", '{"dist": [[0, true], [true, 0]]}', None, 2),
    "list-cell": ("validate", "space", "list.json", '{"dist": [[0, [1]], [[1], 0]]}', None, 2),
    "string-1/0": ("lemma22", "measure", "div0.json", '{"weights": ["1/0", 1, 1]}', None, 2),
    "literal-0.5": ("lemma22", "measure", "half.json", '{"weights": [0.5, 1, 1]}', None, 0),
    "string-1e5000": ("lemma22", "measure", "e5000s.json", '{"weights": ["1e5000", 1, 1]}', None, 2),
    "literal-1e5000": ("lemma22", "measure", "e5000.json", '{"weights": [1e5000, 1, 1]}', None, 2),
    "csv-1e5000": ("validate", "space", "e5000.csv", "0,1e5000\n1e5000,0\n", None, 2),
    "triangle": ("maximal", "space", "triangle.json", '{"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}', None, 2),
    "seed-abc": ("validate", "space", "good.json", GOOD["space"], "abc", 2),
    "scaled-1e4000": ("lemma22", "measure", "e4000.json", '{"weights": ["1e4000", "1e-4000", 1]}', None, 2),
    "scaled-1e4000-fn": ("maximal", "fn", "e4000fn.json", '{"f": ["1e4000", "1e-4000", 1]}', None, 2),
    "squared-grid": (
        "validate",
        "space",
        "squared.json",
        json.dumps({"dist": [[(a - c) ** 2 + (b - d) ** 2 for c, d in SQUARED_GRID] for a, b in SQUARED_GRID]}),
        None,
        1,
    ),
    "int-literal-5000": ("lemma22", "measure", "int5000.json", f'{{"weights": [{"1" * 5000}, 1, 1]}}', None, 2),
    "junk-5000": ("lemma22", "measure", "junk5000.json", f'{{"weights": ["{"x" * 5000}", 1, 1]}}', None, 2),
}


def write_malformed(folder: Path) -> list[tuple[str, list[str], str | None, int]]:
    """Write the MALFORMED files into folder; return (case, argv, MAXLAB_SEED, exit code) per case."""
    folder.mkdir(parents=True, exist_ok=True)
    for role, text in GOOD.items():
        (folder / f"good.{role}.json").write_text(text, encoding="utf-8")
    cases = []
    for case, (subcommand, role, name, text, env_seed, code) in MALFORMED.items():
        (folder / name).write_text(text, encoding="utf-8")
        argv = [subcommand]
        for r in ROLES[subcommand]:
            argv += [f"--{r}", str(folder / (name if r == role else f"good.{r}.json"))]
        cases.append((case, argv, env_seed, code))
    return cases


def write_sequence(path: Path, space_path: Path, measure_path: Path, name: str) -> Path:
    """A seeded `lsc` sequence converging to a random limit, at mu's first support point x.

    The limit's weights are integers in [0, 3], and at least 1 at x. Step k
    adds an integer in [0, 3] over k + 2 to each, so the last step deviates by
    at most 3 / (LSC_STEPS + 1).
    """
    labels = mio.load_space(space_path).labels
    weights = mio.load_measure(measure_path).weights
    x = next(p for p, w in enumerate(weights) if w)
    rng = random.Random(f"lsc:{name}")
    limit = [rng.randint(0, 3) for _ in weights]
    limit[x] = max(limit[x], 1)
    sequence = [
        [mio.scalar_str(v + Fraction(rng.randint(0, 3), k + 2)) for v in limit]
        for k in range(LSC_STEPS)
    ]
    mio.write_json(
        {
            "sequence": sequence,
            "limit": limit,
            "point": labels[x],
            "deviation_bound": f"3/{LSC_STEPS + 1}",
        },
        path,
    )
    return path


def write_inputs(folder: Path) -> list[tuple[str, Path, Path, Path | None, Path]]:
    """Write every input into folder; return (name, space, measure, fn, sequence) per input.

    The benchmark's audit inputs come back with fn None: they feed `lemma22`
    and `lsc` only.
    """
    cases = []
    for workload in inputs.WORKLOADS:
        sub = folder / workload
        sub.mkdir(parents=True)
        bundles, _ = inputs.build(workload, SEED, sub)
        for b in bundles:
            for name, space, measure, fn in (
                (b.name, b.space, b.measure, b.fn),
                (f"{b.name}.audit", b.audit_space, b.audit_measure, None),
            ):
                sequence = write_sequence(sub / f"{name}.lsc.json", space, measure, name)
                cases.append((name, space, measure, fn, sequence))
    sub = folder / "catalog"
    sub.mkdir()
    for k, space in enumerate(small_catalog()):
        space_path = sub / f"c{k}.space.json"
        mio.write_json(mio.space_to_json(space), space_path)
        rng = random.Random(f"catalog:{k}")
        fn_path = sub / f"c{k}.fn.json"
        mio.write_json({"f": [str(rng.randint(-9, 9)) for _ in range(space.n)]}, fn_path)
        for mu in weight_grid(space.n, levels=(0, 1, 2)):
            tag = "".join(str(w) for w in mu.weights)
            name = f"catalog[{k}].w{tag}"
            measure_path = sub / f"c{k}.w{tag}.measure.json"
            mio.write_json(mio.measure_to_json(mu), measure_path)
            sequence = write_sequence(sub / f"c{k}.w{tag}.lsc.json", space_path, measure_path, name)
            cases.append((name, space_path, measure_path, fn_path, sequence))
    return cases


def digest(argv: list[str], env_seed: str | None = None) -> str:
    """The sha256 of a run's report and of its stderr, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if env_seed is None else {"MAXLAB_SEED": env_seed}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, env):
        code = maxlab_main(argv)
    sha = [hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest() for text in (out, err)]
    return f"{sha[0]}  {sha[1]}  {code}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, help="input directory, written on the first run")
    args = parser.parse_args()
    manifest = args.dir / "cases.json"
    if not manifest.exists():
        cases = write_inputs(args.dir / "inputs")
        rows = [[name, *(str(p) if p else None for p in paths)] for name, *paths in cases]
        manifest.write_text(json.dumps(rows, indent=1), encoding="utf-8")
    spaces = set()
    for name, space, measure, fn, sequence in json.loads(manifest.read_text(encoding="utf-8")):
        common = ["--space", str(space), "--measure", str(measure), "--seed", str(SEED)]
        runs = {"lemma22": ["lemma22", *common], "lsc": ["lsc", *common, "--sequence", sequence]}
        if space not in spaces:
            spaces.add(space)
            for sub in ("balls", "witness"):
                runs[sub] = [sub, "--space", space, "--seed", str(SEED)]
        if fn is not None:
            runs["coincide.exact"] = ["coincide", *common, "--mode", "exact"]
            for trials in RANDOMIZED_TRIALS:
                runs[f"coincide.randomized.{trials}"] = [
                    "coincide", *common, "--mode", "randomized", "--trials", str(trials)
                ]
            runs["maximal"] = ["maximal", *common, "--fn", str(fn)]
        for report, argv in runs.items():
            print(f"{digest(argv)}  {name} {report}")
    for n in GRID_SIZES:
        print(f"{digest(['demo-grid', '--n', str(n), '--seed', str(SEED)])}  grid[{n}] demo-grid")
    wrong = []
    for name, argv, env_seed, expected in write_malformed(args.dir / "malformed"):
        line = digest(argv, env_seed)
        print(f"{line}  malformed[{name}] {argv[0]}")
        code = int(line.rsplit(" ", 1)[1])
        if code != expected:
            wrong.append(f"malformed[{name}] exited {code}, expected {expected}")
    for message in wrong:
        print(f"report_digest: {message}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
