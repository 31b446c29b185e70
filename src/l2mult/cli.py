"""Command line workbench.

Subcommands:
  table <group-spec>                 print a character table
  spectral <matrix> <quotient>       spectral measure / determinant / moments
  farber <config.json>               Farber and relative-Farber diagnostics
  run <config.json>                  full approximation experiment

Exit codes: 0 success, 1 configuration error, 2 per-level partial failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .finite_groups import L2MultError, character_table
from .runner import (ConfigInvalid, ExperimentConfig, ExperimentContext,
                     emit, farber_diagnostic, finite_group_from_spec, run)
from .spectral import fk_det, moments_check, regular_rep, spectral_measure
from .word_groups import (FreeAbelianGroup, GroupRingMatrix,
                          InfiniteDihedralGroup, QuotientMap, push_matrix)


def _cmd_table(args) -> int:
    group = finite_group_from_spec(args.group_spec)
    table = character_table(group)
    classes = table.classes
    header = ["chi\\class"] + [group.label(r) for r in classes.representatives]
    print("\t".join(header))
    print("\t".join(["size"] + [str(s) for s in classes.sizes]))
    for idx, chi in enumerate(table.irreducibles):
        cells = []
        for v in chi.values:
            if abs(v.imag) < 1e-10:
                cells.append(f"{v.real:.6g}")
            else:
                cells.append(f"{v.real:.4g}{v.imag:+.4g}i")
        print("\t".join([f"chi_{idx}"] + cells))
    return 0


def _quotient_setup(quotient_spec: str):
    family = quotient_spec.split(":")[0]
    if family not in ("cyclic", "dihedral", "abelian"):
        raise ConfigInvalid(f"unknown quotient spec {quotient_spec!r}")
    target = finite_group_from_spec(quotient_spec)
    if family == "dihedral":
        m = target.order // 2
        group = InfiniteDihedralGroup()
        return group, QuotientMap(group, target,
                                  [target.index_of((1 % m, 0)),
                                   target.index_of((0, 1))])
    # each letter maps to its factor's unit, taken mod the factor's order
    if family == "cyclic":
        units = [1 % target.order]
    else:
        moduli = target.moduli
        units = [tuple(1 % m if j == i else 0 for j, m in enumerate(moduli))
                 for i in range(len(moduli))]
    group = FreeAbelianGroup(len(units))
    return group, QuotientMap(group, target,
                              [target.index_of(u) for u in units])


def _cmd_spectral(args) -> int:
    group, qmap = _quotient_setup(args.quotient)
    rows = [row.split(",") for row in args.matrix.split(";")]
    mat = GroupRingMatrix.from_strings(group, rows)
    pushed = push_matrix(qmap, mat)
    gram = pushed.adjoint() @ pushed
    rho = regular_rep(qmap.target)
    mu = spectral_measure(gram, rho)
    print(json.dumps(mu.to_json()))
    print(f"fk_det = {fk_det(mu):.12g}")
    for row in moments_check(gram, rho, args.kmax, mu=mu):
        print(f"moment {row['k']}: measure {row['moment']:.9g} "
              f"trace {row['trace']:.9g} delta {row['delta']:.3g}")
    return 0


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(json.load(fh))


def _cmd_farber(args) -> int:
    ctx = ExperimentContext(_load_config(args.config))
    print("level\tword\tcount\tfraction")
    for row in farber_diagnostic(ctx.chain, ctx.probes):
        print(f"{row['level']}\t{row['word']}\t{row['count']}\t{row['fraction']}")
    if ctx.h_abs.order > 1:
        print("level\tg\th\tvalue\tlimit\tdeviation")
        # H not normalizing a fiber: one error row
        for row in ctx.rel_farber():
            print(row["error"] if "error" in row else
                  f"{row['level']}\t{row['g']}\t{row['h']}\t{row['value']}"
                  f"\t{row['limit']}\t{row['deviation']}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    records, report = run(config, levels=args.levels)
    out_dir = args.out or config.out or "."
    fmt = args.format or config.format
    paths = emit(records, report, out_dir, fmt)
    for path in paths:
        print(f"wrote {path}")
    errors = [r for r in records if r.error is not None]
    for r in errors:
        print(f"level {r.level} skipped: {r.error}", file=sys.stderr)
    return 2 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="l2mult", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="character table of a finite group")
    p_table.add_argument("group_spec")

    p_spec = sub.add_parser("spectral",
                            help="spectral measure of A*A in a finite quotient")
    p_spec.add_argument("matrix", help="rows ';'-separated, entries ','-separated")
    p_spec.add_argument("quotient", help="cyclic:N | dihedral:M | abelian:n1,n2")
    p_spec.add_argument("--kmax", type=int, default=4)

    p_farber = sub.add_parser("farber", help="Farber diagnostics for a chain")
    p_farber.add_argument("config")

    p_run = sub.add_parser("run", help="full approximation experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=["csv", "json", "both"], default=None)
    p_run.add_argument("--levels", type=int, default=None)

    args = parser.parse_args(argv)
    handlers = {"table": _cmd_table, "spectral": _cmd_spectral,
                "farber": _cmd_farber, "run": _cmd_run}
    try:
        return handlers[args.command](args)
    except (L2MultError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
