"""Command-line front end: lcmlat <subcommand> [flags].

Results go to stdout as JSON (or DOT for `build --format dot`); all
diagnostics go to stderr. Exit codes: 0 success, 1 property false under
--assert, 2 argument, input or validation errors (one JSON line on stderr),
3 internal error (one JSON line naming the exception type on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import audit as audit_mod
from . import conditions, properties
from .lattice import (
    build_lcm_lattice,
    is_isomorphic,
    lattice_dot,
    lattice_json,
    product,
)
from .monomials import (
    MAX_RING_DIMENSION,
    edge_ideal,
    ideal_to_text,
    monomial_str,
    parse_hypergraph_json,
    parse_ideal_text,
    polarize,
)

class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise CliError, so a bad flag or value
    exits 2 with one JSON line like any other input error. Its subparsers
    are of the same class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _parse_range(text: str) -> tuple:
    """The argparse type of --n, --k and --m: 'a..b' or 'a' as (a, b)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected 'a..b'")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_vertex_range(text: str) -> tuple:
    """The argparse type of --n: a range whose top is at most
    MAX_RING_DIMENSION, the cap of the file readers, so an audit over the
    cap is refused before it draws anything."""
    lo, hi = _parse_range(text)
    if hi > MAX_RING_DIMENSION:
        raise argparse.ArgumentTypeError(
            f"vertex or variable count {hi} exceeds the cap {MAX_RING_DIMENSION}")
    return lo, hi


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes exactly the flags its _cmd_* reads."""
    parser = _Parser(prog="lcmlat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_lattice_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--ideal", help="ideal file")
        group.add_argument("--hypergraph", help="hypergraph JSON file")

    p = sub.add_parser("build", help="construct an lcm-lattice")
    add_lattice_input(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("check", help="decide lattice properties")
    add_lattice_input(p)
    p.add_argument("--property", default="all",
                   choices=properties.PROPERTIES + ("all",))
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="exit 1 if any checked property is false")

    p = sub.add_parser("conditions", help="structural predicates on a hypergraph")
    p.add_argument("--hypergraph", required=True, help="hypergraph JSON file")

    p = sub.add_parser("polarize", help="polarize a monomial ideal")
    p.add_argument("--ideal", required=True, help="ideal file")

    for name, text in (("product", "product of two lcm-lattices"),
                       ("iso", "lattice isomorphism between two ideals")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--ideal", action="append", required=True,
                       help="ideal file (give twice)")

    cfg = audit_mod.GeneratorConfig()
    p = sub.add_parser("audit", help="audit a theorem against ground truth")
    p.add_argument("--theorem", required=True, choices=audit_mod.THEOREMS)
    p.add_argument("--count", type=int, default=cfg.count)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--n", type=_parse_vertex_range, default=cfg.n_range,
                   help="vertex/variable range a..b")
    p.add_argument("--k", type=_parse_range, default=cfg.k_range,
                   help="edge size range a..b")
    p.add_argument("--m", type=_parse_range, default=cfg.m_range,
                   help="edge/generator count range a..b")
    p.add_argument("--max-exponent", type=int, default=cfg.max_exponent)
    p.add_argument("--exhaustive", action="store_true",
                   help="force exhaustive enumeration")
    p.add_argument("--counterexamples", help="directory for disagreement instances")
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="exit 1 on any disagreement")

    for p in sub.choices.values():
        p.add_argument("--out", help="output path (default stdout)")
    return parser


def _load_lattice(args):
    if args.ideal is not None:
        I = _read(args.ideal, parse_ideal_text)
    else:
        I = edge_ideal(_read(args.hypergraph, parse_hypergraph_json))
    return build_lcm_lattice(I)


def _read(path: str, parse):
    """parse applied to the text of the file at path; its errors name the file."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    L = _load_lattice(args)
    if args.format == "dot":
        _emit(args, lattice_dot(L))
    else:
        _emit(args, lattice_json(L) + "\n")
    return 0


def _cmd_check(args) -> int:
    L = _load_lattice(args)
    if args.property == "all":
        verdicts = properties.all_properties(L)
    else:
        verdicts = [properties.decide(args.property, L)]
    lines = [json.dumps(v.to_json_dict(), sort_keys=True) for v in verdicts]
    _emit(args, "\n".join(lines) + "\n")
    if args.assert_mode and not all(v.holds for v in verdicts):
        return 1
    return 0


def _cmd_conditions(args) -> int:
    H = _read(args.hypergraph, parse_hypergraph_json)
    verdicts = [conditions.private_vertex_check(H),
                conditions.uniform_n_minus_1_check(H)]
    if H.uniformity() is not None:
        verdicts.append(conditions.predicts_modular(H))
        verdicts.append(conditions.blocking_triplet_check(H))
    if H.is_graph() and H.is_connected():
        verdicts.append(conditions.degree1_path_check(H))
        verdicts.append(conditions.induced_p4_check(H))
    lines = [json.dumps(v.to_json_dict(), sort_keys=True) for v in verdicts]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_polarize(args) -> int:
    I = _read(args.ideal, parse_ideal_text)
    polarized, pmap = polarize(I)
    out = {
        "source": {"ring": I.ring_dimension, "generators": I.generator_strings()},
        "polarized": {
            "ring": polarized.ring_dimension,
            "generators": polarized.generator_strings(),
        },
        "slot_counts": list(pmap.slot_counts),
        "variable_names": pmap.variable_names(),
        "ideal_file": ideal_to_text(polarized),
    }
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    return 0


def _two_lattices(args):
    if len(args.ideal) != 2:
        raise CliError("give --ideal exactly twice")
    return [build_lcm_lattice(_read(path, parse_ideal_text)) for path in args.ideal]


def _cmd_product(args) -> int:
    L1, L2 = _two_lattices(args)
    P = product(L1.lattice, L2.lattice)
    out = P.to_json_dict()
    out["complemented"] = properties.is_complemented(P).holds
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    return 0


def _cmd_iso(args) -> int:
    L1, L2 = _two_lattices(args)
    mapping = is_isomorphic(L1.lattice, L2.lattice)
    out = {
        "isomorphic": mapping is not None,
        "mapping": mapping,
        "sizes": [L1.size, L2.size],
    }
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    return 0


def _cmd_audit(args) -> int:
    cfg = audit_mod.GeneratorConfig(
        seed=args.seed, n_range=args.n, k_range=args.k, m_range=args.m,
        max_exponent=args.max_exponent, count=args.count,
    )
    summary, reports = audit_mod.audit_batch(
        args.theorem, cfg,
        exhaustive=args.exhaustive,
        counterexample_dir=args.counterexamples,
    )
    lines = [r.to_json_line() for r in reports]
    lines.append(json.dumps({"summary": summary}, sort_keys=True))
    _emit(args, "\n".join(lines) + "\n")
    if args.assert_mode and summary["disagree"] > 0:
        return 1
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "check": _cmd_check,
    "conditions": _cmd_conditions,
    "polarize": _cmd_polarize,
    "product": _cmd_product,
    "iso": _cmd_iso,
    "audit": _cmd_audit,
}


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except SystemExit:  # --help printed; every argparse error is a CliError
        return 0
    except (CliError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except Exception as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "internal": type(exc).__name__}) + "\n")
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
