"""Command-line front end: lcmlat <subcommand> [flags].

Results go to stdout as JSON (or DOT for `build --format dot`); all
diagnostics go to stderr. Exit codes: 0 success, 1 property false under
--assert, 2 input or validation errors, 3 internal error (one JSON line
naming the exception type on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
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
    Hypergraph,
    MonomialIdeal,
    edge_ideal,
    ideal_to_text,
    monomial_str,
    parse_hypergraph_json,
    parse_ideal_text,
    polarize,
)

PROPERTY_ORDER = (
    "boolean",
    "modular",
    "distributive",
    "complemented",
    "relatively-complemented",
)


class CliError(Exception):
    pass


def _parse_range(text: str) -> tuple:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliError(f"bad range {text!r}; expected 'a..b'")
    if lo > hi:
        raise CliError(f"empty range {text!r}")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lcmlat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_input_flags(p, two_ideals=False):
        if two_ideals:
            p.add_argument("--ideal", action="append", required=True,
                           help="ideal file (give twice)")
        else:
            p.add_argument("--ideal", help="ideal file")
            p.add_argument("--hypergraph", help="hypergraph JSON file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--max-generators", type=int, default=16)
        p.add_argument("--max-lattice", type=int, default=65536)

    p = sub.add_parser("build", help="construct an lcm-lattice")
    add_input_flags(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("check", help="decide lattice properties")
    add_input_flags(p)
    p.add_argument("--property", default="all",
                   choices=PROPERTY_ORDER + ("all",))
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="exit 1 if any checked property is false")

    p = sub.add_parser("conditions", help="structural predicates on a hypergraph")
    add_input_flags(p)

    p = sub.add_parser("polarize", help="polarize a monomial ideal")
    add_input_flags(p)

    p = sub.add_parser("product", help="product of two lcm-lattices")
    add_input_flags(p, two_ideals=True)

    p = sub.add_parser("iso", help="lattice isomorphism between two ideals")
    add_input_flags(p, two_ideals=True)

    p = sub.add_parser("audit", help="audit a theorem against ground truth")
    p.add_argument("--theorem", required=True, choices=audit_mod.THEOREMS)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", default="2..5", help="vertex/variable range a..b")
    p.add_argument("--k", default="2..3", help="edge size range a..b")
    p.add_argument("--m", default="1..4", help="edge/generator count range a..b")
    p.add_argument("--max-exponent", type=int, default=3)
    p.add_argument("--exhaustive", action="store_true",
                   help="force exhaustive enumeration")
    p.add_argument("--counterexamples", help="directory for disagreement instances")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="exit 1 on any disagreement")

    return parser


def _load_lattice(args):
    if getattr(args, "ideal", None) and getattr(args, "hypergraph", None):
        raise CliError("--ideal and --hypergraph are mutually exclusive")
    if getattr(args, "ideal", None):
        I = _read_ideal(args.ideal)
    elif getattr(args, "hypergraph", None):
        I = edge_ideal(_read_hypergraph(args.hypergraph))
    else:
        raise CliError("one of --ideal or --hypergraph is required")
    return build_lcm_lattice(
        I, max_generators=args.max_generators, max_elements=args.max_lattice
    )


def _read_ideal(path: str) -> MonomialIdeal:
    try:
        return parse_ideal_text(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _read_hypergraph(path: str) -> Hypergraph:
    try:
        return parse_hypergraph_json(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    L = _load_lattice(args)
    if args.format == "dot":
        _emit(args, lattice_dot(L))
    else:
        _emit(args, lattice_json(L.lattice) + "\n")
    return 0


def _cmd_check(args) -> int:
    L = _load_lattice(args)
    if args.property == "all":
        verdicts = properties.all_properties(L)
    else:
        fn = {
            "boolean": lambda: properties.is_boolean(L),
            "modular": lambda: properties.is_modular(L.lattice),
            "distributive": lambda: properties.is_distributive(L.lattice),
            "complemented": lambda: properties.is_complemented(L.lattice),
            "relatively-complemented":
                lambda: properties.is_relatively_complemented(L.lattice),
        }[args.property]
        verdicts = [fn()]
    lines = [json.dumps(v.to_json_dict(), sort_keys=True) for v in verdicts]
    _emit(args, "\n".join(lines) + "\n")
    if args.assert_mode and not all(v.holds for v in verdicts):
        return 1
    return 0


def _cmd_conditions(args) -> int:
    if not getattr(args, "hypergraph", None):
        raise CliError("conditions needs --hypergraph")
    H = _read_hypergraph(args.hypergraph)
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
    if not getattr(args, "ideal", None):
        raise CliError("polarize needs --ideal")
    I = _read_ideal(args.ideal)
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
    L1 = build_lcm_lattice(_read_ideal(args.ideal[0]),
                           max_generators=args.max_generators,
                           max_elements=args.max_lattice)
    L2 = build_lcm_lattice(_read_ideal(args.ideal[1]),
                           max_generators=args.max_generators,
                           max_elements=args.max_lattice)
    return L1, L2


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
        seed=args.seed,
        n_range=_parse_range(args.n),
        k_range=_parse_range(args.k),
        m_range=_parse_range(args.m),
        max_exponent=args.max_exponent,
        count=args.count,
    )
    summary, reports = audit_mod.audit_batch(
        args.theorem, cfg,
        exhaustive=True if args.exhaustive else None,
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.subcommand](args)
    except (CliError, ValueError, IndexError) as exc:
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
