"""Compare the lcmlat CLI of two source trees byte for byte.

Runs a fixed list of commands (build json and dot, check with every
property and conditions, also on M3 x B10, B12 and P4 x B9 near the
element cap, P4 x B9 pinning a failing relatively-complemented witness,
polarize, build and check of two 16-generator ideals with few elements,
check of relative complementation alone on the ideal files and the
16-generator ones (witnesses of non-squarefree ideals read with no table
filled before them), check of distributivity and of every property on
two seeded random ideals of 154 and 168 elements, one with no diamond
and one whose least diamond is not over the bottom, check of the Boolean
and modular properties on a 10-edge star in a 4096-variable ring,
polarize of a 299-generator staircase, product (also of an 80- and a
56-element lattice), iso (also of three edge ideals with many
automorphisms, B12 among them, against relabeled copies), a default
audit of every theorem, the sampled ideal audits for seeds 1, 2 and 9,
the bench's two seeded ideal audits at seed 41 (n from 1, so they draw
one-variable ideals), three sampled hypergraph audits, and polarize of a
5-variable ideal at the exponent cap) against each tree's `src/` and
compares stdout, stderr and exit code. Then it runs a list of refusals
(malformed input files, output paths that cannot be written, staircases
of 20 and 25 generators, one inside the generator limit of 24 and one
past it, the removed cap flag `--max-lattice` on `check` and `build`,
bad flags and values, an input flag that the subcommand does not read, a
missing or doubled input flag, a malformed `--n` range, polarize past
its ring cap, and `check` on a 33-edge hypergraph in a 2^20-vertex ring,
past the edge-ideal cell cap, and on a 25-edge one, past the generator
limit, and an unwritable counterexample directory for an audit with
disagreements and one without) and prints both trees' exit code and
stderr, since a refusal may change on purpose. Polarize past its cell
cap and an audit whose --n passes the vertex cap run on the new tree
only: a tree without those caps writes all of 2^25 cells, or draws
hypergraphs on millions of vertices.

    mkdir ../parent && git archive <parent commit> | tar -x -C ../parent
    python scripts/cli_bytecheck.py ../parent .

The `bytecheck` job of `.github/workflows/tier1.yml` runs it on each pull
request, with the pull request's base commit as the parent.

Exits 1 if any command of the fixed list differs. Takes about 40 s per tree
on a 2-core machine; the fixtures go to a temporary directory that both
trees read, so the paths in error messages match.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HYPERGRAPHS = {
    "p4": (4, [[1, 2], [2, 3], [3, 4]]),
    "triangle": (3, [[1, 2], [1, 3], [2, 3]]),
    "fig3": (6, [[1, 2, 3], [2, 3, 4], [4, 5, 6]]),
    "matching10": (20, [[2 * i + 1, 2 * i + 2] for i in range(10)]),
    # M3 x B10: the triangle plus ten disjoint edges, 5120 elements
    "m3xb10": (23, [[1, 2], [1, 3], [2, 3]] + [[4 + 2 * i, 5 + 2 * i] for i in range(10)]),
    # B12, 4096 elements
    "matching12": (24, [[2 * i + 1, 2 * i + 2] for i in range(12)]),
    # P4 x B9: the path plus nine disjoint edges, 3584 elements, not
    # relatively complemented
    "p4xb9": (22, [[1, 2], [2, 3], [3, 4]] + [[5 + 2 * i, 6 + 2 * i] for i in range(9)]),
}
IDEALS = {
    "fig3": "ring 6\nx1*x2*x3\nx2*x3*x4\nx4*x5*x6\n",
    "powers": "ring 3\nx1^2*x2\nx2^3\nx1*x3^2\n",
    "b2": "ring 2\nx1\nx2\n",
    "chain": "ring 1\nx1\n",
}
# 16 generators each, |L| far below 2^16: the staircase x1^i*x2^(15-i)
# (137 elements) and a seeded random ideal in 4 variables (247 elements)
SIXTEEN_GENERATORS = {
    "staircase16": "ring 2\n" + "".join(f"x1^{i}*x2^{15 - i}\n" for i in range(16)),
    "random16": "ring 4\n" + "\n".join([
        "x1^2*x3*x4", "x1*x2^2*x3*x4", "x1^4*x2*x3^2", "x2^2*x3^4", "x2^2*x3*x4^2",
        "x2^3*x3^3", "x2^3*x3*x4", "x1^4*x4", "x1*x2*x4^3", "x4^4", "x1*x2^2*x4^2",
        "x2^4", "x1*x2*x3*x4^2", "x3^2*x4^2", "x1*x3^4*x4", "x2^2*x3^2*x4"]) + "\n",
}
# seed-41 inputs of the random-ideals bench, where the diamond search costs
# most: 154 elements and no diamond, so the search walks every row that
# repeats a key; 168 elements and a least diamond with bottom 9, so the
# best-bottom cutoff decides which rows it walks
BENCH_IDEALS = {
    "random154": "ring 7\n" + "\n".join([
        "x1^2*x2^2*x3^3*x4^3*x5*x6^2*x7", "x1^3*x2*x3^3*x4*x6^2", "x3*x4^3*x6^3",
        "x3*x5^3*x6", "x2^2*x3*x4^2*x6^2*x7^3", "x1^2*x2*x3^3*x4^3*x7^2",
        "x1*x2*x5^3*x6*x7^2", "x2^2*x3^2*x4^2*x7^3", "x1*x2*x3^3*x4*x6*x7^2",
        "x1*x2^3*x3^2*x4*x5*x6^3*x7^3", "x1^2*x2^2*x3^2*x5^2*x6"]) + "\n",
    "random168": "ring 7\n" + "\n".join([
        "x4*x5^3*x6*x7^3", "x3^3*x4^2*x6^3", "x2*x6*x7^2", "x1*x2^3*x3*x4*x5^3*x7^3",
        "x2^2*x3^3*x4*x5*x7", "x2*x4*x5^2*x6", "x1*x2*x3^3*x7", "x1^3*x2^2*x5^3*x6*x7",
        "x1^2*x2^2*x3^2*x4^2*x5*x6", "x2*x3^2*x5^2*x7", "x1*x2^2*x3^2*x4*x6*x7",
        "x1^3*x2*x3*x4^2*x7"]) + "\n",
}
# edge ideals with many automorphisms, each checked by `iso` against a copy
# with variable v renamed 3v mod (n + 1) (n + 1 is prime to 3) and the
# generators reversed: the search reads the order at every step, so its
# first mapping pins how the order is built
ISO_HYPERGRAPHS = {
    "matching8": (16, [[2 * i + 1, 2 * i + 2] for i in range(8)]),
    # M3 x B6: the triangle plus six disjoint edges, 320 elements
    "m3xb6": (15, [[1, 2], [1, 3], [2, 3]] + [[4 + 2 * i, 5 + 2 * i] for i in range(6)]),
    # B12, 4096 elements, near the element cap
    "matching12": (24, [[2 * i + 1, 2 * i + 2] for i in range(12)]),
}
# the two factors of a product of 4480 elements: M3 x B4 (the triangle plus
# four disjoint edges, 80 elements) and the fig3 lattice x B3 (56 elements)
PRODUCT_FACTORS = {
    "m3xb4": "ring 11\nx1*x2\nx1*x3\nx2*x3\nx4*x5\nx6*x7\nx8*x9\nx10*x11\n",
    "fig3xb3": "ring 12\nx1*x2*x3\nx2*x3*x4\nx4*x5*x6\nx7*x8\nx9*x10\nx11*x12\n",
}
# the star x_i*x_11, i <= 10, in a 4096-variable ring: a Boolean lattice of
# 1024 wide elements
STAR10_IDEAL = "ring 4096\n" + "".join(f"x{i}*x11\n" for i in range(1, 11))
# x1^a*x2^(300-a), 0 < a < 300: 299 generators polarized into 598 slots
STAIRCASE300_IDEAL = "ring 2\n" + "".join(f"x1^{a}*x2^{300 - a}\n" for a in range(1, 300))
# x1^65536*x2, x2^65536*x3, ..., x5^65536*x1: 327,680 polarized variables
CAP5_IDEAL = "ring 5\n" + "".join(f"x{i}^65536*x{i % 5 + 1}\n" for i in range(1, 6))
PROPERTIES = ["all", "boolean", "modular", "distributive", "complemented",
              "relatively-complemented"]
THEOREMS = ["boolean", "modular", "graph-complemented", "hypergraph-complemented",
            "relatively-complemented", "product-complemented", "polarization-iso",
            "birkhoff-crosscheck"]
MALFORMED_HYPERGRAPHS = {
    "str_vertices": '{"n": 3, "edges": [["1", "2"]]}',
    "edges_object": '{"n": 3, "edges": {"a": 1}}',
    "list_vertex": '{"n": 3, "edges": [[[1], 2]]}',
    "n_infinity": '{"n": Infinity, "edges": [[1, 2]]}',
    "deep": '{"n": 3, "edges": ' + "[" * 5000 + "]" * 5000 + "}",
    "n_float": '{"n": 2.7, "edges": [[1, 2]]}',
    "bool_vertex": '{"n": 2, "edges": [[true, 2]]}',
    "repeated_vertex": '{"n": 3, "edges": [[1, 1, 2], [2, 3]]}',
    "n_over_cap": '{"n": 1048577, "edges": [[1, 2]]}',
}
MALFORMED_IDEALS = {
    "ring_underscore": "ring 1_0\nx1*x2\n",
    "fullwidth_variable": "ring 2\nx１*x2\n",
    "fullwidth_ring": "ring ３\nx1\n",
    "ring_over_cap": "ring 1048577\nx1\n",
}


def commands(fx: Path) -> tuple:
    hg, ideal = {}, {}
    for name, (n, edges) in HYPERGRAPHS.items():
        hg[name] = fx / f"{name}.json"
        hg[name].write_text(json.dumps({"n": n, "edges": edges}))
    for name, text in IDEALS.items():
        ideal[name] = fx / f"{name}.ideal"
        ideal[name].write_text(text)
    same = []
    for path in hg.values():
        same.append(["build", "--hypergraph", path])
        same.append(["build", "--hypergraph", path, "--format", "dot"])
        same.extend(["check", "--hypergraph", path, "--property", p] for p in PROPERTIES)
        same.append(["conditions", "--hypergraph", path])
    for path in ideal.values():
        same.append(["build", "--ideal", path])
        same.append(["check", "--ideal", path])
        same.append(["check", "--ideal", path, "--property", "relatively-complemented"])
        same.append(["polarize", "--ideal", path])
    for name, text in SIXTEEN_GENERATORS.items():
        path = fx / f"{name}.ideal"
        path.write_text(text)
        same.append(["build", "--ideal", path])
        same.append(["check", "--ideal", path, "--property", "all"])
        same.append(["check", "--ideal", path, "--property", "relatively-complemented"])
    for name, text in BENCH_IDEALS.items():
        path = fx / f"{name}.ideal"
        path.write_text(text)
        same.extend(["check", "--ideal", path, "--property", p] for p in ("distributive", "all"))
    star10 = fx / "star10.ideal"
    star10.write_text(STAR10_IDEAL)
    same.extend(["check", "--ideal", star10, "--property", p] for p in ("boolean", "modular"))
    staircase300 = fx / "staircase300.ideal"
    staircase300.write_text(STAIRCASE300_IDEAL)
    same.append(["polarize", "--ideal", staircase300])
    cap5 = fx / "cap5.ideal"
    cap5.write_text(CAP5_IDEAL)
    same.append(["polarize", "--ideal", cap5])
    for name, (n, edges) in ISO_HYPERGRAPHS.items():
        relabeled = [[3 * v % (n + 1) for v in e] for e in edges[::-1]]
        paths = [fx / f"{name}.ideal", fx / f"{name}_relabeled.ideal"]
        for path, gens in zip(paths, (edges, relabeled)):
            path.write_text(f"ring {n}\n" + "".join(
                "*".join(f"x{v}" for v in sorted(e)) + "\n" for e in gens))
        same.append(["iso", "--ideal", paths[0], "--ideal", paths[1]])
    factors = []
    for name, text in PRODUCT_FACTORS.items():
        factors += ["--ideal", fx / f"{name}.ideal"]
        factors[-1].write_text(text)
    same.append(["product", *factors])
    for cmd in ("product", "iso"):
        same.append([cmd, "--ideal", ideal["fig3"], "--ideal", ideal["b2"]])
        same.append([cmd, "--ideal", ideal["powers"], "--ideal", ideal["chain"]])
    same.extend(["audit", "--theorem", t] for t in THEOREMS)
    for t in ("polarization-iso", "birkhoff-crosscheck"):
        same.extend(["audit", "--theorem", t, "--seed", s] for s in ("1", "2", "9"))
    # the audit-stream bench's seeded streams
    same.append(["audit", "--theorem", "polarization-iso", "--seed", "41",
                 "--n", "1..4", "--m", "1..5", "--count", "200"])
    same.append(["audit", "--theorem", "birkhoff-crosscheck", "--seed", "41",
                 "--n", "1..5", "--m", "1..5", "--count", "480"])
    same.append(["audit", "--theorem", "modular", "--count", "200", "--seed", "7",
                 "--n", "4..9", "--k", "2..4", "--m", "3..6"])
    # spaces over the exhaustive threshold, so these take the sampled path
    same.append(["audit", "--theorem", "graph-complemented", "--seed", "3",
                 "--n", "6..9", "--m", "5..10"])
    same.append(["audit", "--theorem", "relatively-complemented", "--seed", "5",
                 "--n", "5..8", "--m", "4..9"])
    same.append(["audit", "--theorem", "hypergraph-complemented", "--seed", "4",
                 "--n", "6..8", "--k", "2..4", "--m", "3..6"])
    malformed = []
    for name, text in MALFORMED_HYPERGRAPHS.items():
        path = fx / f"bad_{name}.json"
        path.write_text(text)
        malformed.append(["conditions", "--hypergraph", path])
        malformed.append(["check", "--hypergraph", path])
    for name, text in MALFORMED_IDEALS.items():
        path = fx / f"bad_{name}.ideal"
        path.write_text(text, encoding="utf-8")
        malformed.append(["build", "--ideal", path])
    # output paths that cannot be written: under a regular file, or a directory
    blocked = ideal["b2"] / "x"
    malformed.append(["build", "--ideal", ideal["b2"], "--out", blocked])
    malformed.append(["check", "--ideal", ideal["b2"], "--out", fx])
    malformed.append(["audit", "--theorem", "modular", "--counterexamples", blocked])
    # the default boolean stream has no disagreement to write
    malformed.append(["audit", "--theorem", "boolean", "--counterexamples", blocked])
    # 20 generators build since the key width (24) is the only generator
    # limit; 25 pass it
    for g, cmd in ((20, "check"), (25, "build")):
        path = fx / f"staircase{g}.ideal"
        path.write_text("ring 2\n" + "".join(f"x1^{i}*x2^{g - 1 - i}\n" for i in range(g)))
        malformed.append([cmd, "--ideal", path])
    # every cap is a module constant, so a cap flag is an unknown argument
    malformed.append(["check", "--max-lattice", "5", "--ideal", ideal["b2"]])
    malformed.append(["build", "--max-lattice", "100000", "--hypergraph", hg["matching10"]])
    # argument errors: an invalid choice, a missing flag, a value of the wrong type
    malformed.append(["audit", "--theorem", "bogus"])
    malformed.append(["check", "--ideal", ideal["b2"], "--property", "bogus"])
    malformed.append(["audit", "--count", "100"])
    malformed.append(["audit", "--theorem", "boolean", "--count", "x"])
    malformed.append(["audit", "--theorem", "boolean", "--n", "2..x"])
    # an input flag the subcommand does not read, a missing or doubled one
    malformed.append(["conditions", "--hypergraph", hg["p4"], "--ideal", fx / "missing.txt"])
    malformed.append(["polarize", "--ideal", ideal["b2"], "--hypergraph", fx / "missing.json"])
    malformed.append(["build"])
    malformed.append(["check", "--ideal", ideal["b2"], "--hypergraph", hg["p4"]])
    malformed.append(["conditions"])
    malformed.append(["polarize"])
    # 33 one-vertex edges x 2^20 vertices, over the cell cap 2^25
    wide33 = fx / "wide33.json"
    wide33.write_text(json.dumps({"n": 1 << 20, "edges": [[v] for v in range(1, 34)]}))
    malformed.append(["check", "--hypergraph", wide33, "--property", "boolean"])
    # 25 one-vertex edges x 2^20 vertices: under the cell cap, past the
    # generator limit of 24
    wide25 = fx / "wide25.json"
    wide25.write_text(json.dumps({"n": 1 << 20, "edges": [[v] for v in range(1, 26)]}))
    malformed.append(["check", "--hypergraph", wide25, "--property", "boolean"])
    # one generator x1^65536*...*x17^65536: 17 * 65536 polarized variables,
    # over the ring cap 2^20
    ring17 = fx / "ring17.ideal"
    ring17.write_text("ring 17\n" + "*".join(f"x{i}^65536" for i in range(1, 18)) + "\n")
    malformed.append(["polarize", "--ideal", ring17])
    # x_i^65536 for i <= 16 and 17 of x1^a*x2^(65536-a): 33 generators x 2^20
    # polarized variables, over the cell cap 2^25
    cells33 = fx / "cells33.ideal"
    cells33.write_text("ring 16\n" + "".join(f"x{i}^65536\n" for i in range(1, 17))
                       + "".join(f"x1^{a}*x2^{65536 - a}\n" for a in range(1, 18)))
    # --n past the vertex cap 2^20
    vertex_cap = ["audit", "--theorem", "boolean", "--n", "2..3000000"]
    return same, malformed, [["polarize", "--ideal", cells33], vertex_cap]


def run(tree: str, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    done = subprocess.run([sys.executable, "-m", "lcmlat.cli", *map(str, argv)],
                          capture_output=True, env=env, timeout=600)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    old, new = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        same, malformed, new_only = commands(Path(tmp))
        differing = 0
        for argv in same:
            a, b = run(old, argv), run(new, argv)
            if a != b:
                differing += 1
                print("DIFF", *argv, a[0], b[0], a[2][:200], b[2][:200])
        print(f"{len(same) - differing}/{len(same)} commands byte-identical")
        for argv in malformed:
            a, b = run(old, argv), run(new, argv)
            print(argv[0], Path(argv[-1]).name, "| old", a[0], a[2].decode().strip()[-160:],
                  "| new", b[0], b[2].decode().strip())
        for argv in new_only:
            b = run(new, argv)
            print(argv[0], Path(argv[-1]).name, "| new", b[0], b[2].decode().strip())
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
