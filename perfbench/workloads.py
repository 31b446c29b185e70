"""The benchmark workloads.

Each workload builds its inputs from a seed, runs one pass through the
user-facing calls (``run`` with a ``NullTracer``), or a traced pass that
also times the public sub-steps those calls hide (``run`` with a
``Tracer``), and checks every item of a pass with ``check``.  Sizes are
chosen so that a pass takes a few seconds on a 2-core machine: a run repeats
passes and reports their median.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from l2mult import (FreeAbelianGroup, FreeGroup, GroupRingMatrix,
                    QuotientMap, abelian_group, character_table, cyclic_group,
                    dihedral_group, fk_det, from_generators, induced_rep,
                    irreducible_rep, luck_bound_check, moments_check,
                    phi_betti, push_matrix, rank_nullity, regular_rep,
                    spectral_measure, symmetric_group)
from l2mult import _linalg, complexes, runner, word_groups
from l2mult.spectral import WordPermRep, operator_columns_exact
from l2mult.word_groups import FiniteAlgebraMatrix


def _guarded(items, do_item):
    """Run every item; an item that raises is recorded and the pass goes on."""
    out = []
    for item in items:
        try:
            out.append(do_item(item))
        except Exception as exc:
            out.append(exc)
    return out


class FbfChain:
    """Criterion 6: F2 x| C2 acting on its tree, quotient chain
    ``semidirect_mod`` base 2, through ``runner.run`` and ``runner.emit``."""

    name = "fbf_chain"
    entry_layer = "runner"

    def __init__(self, depth: int = 5, trace: int = -3):
        self.depth = depth
        # Tr(c | H_1) is the constant -3 at every level (the criterion-8
        # Lefschetz constant); it is expected here, not loosened.
        self.trace = trace

    def inputs(self, seed: int, out_dir: Path):
        return runner.ExperimentConfig.from_json({
            "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
                      "action": {"0": ["a'", "b'"]}},
            "complex": "tree_semidirect",
            "chain": {"template": "semidirect_mod", "base": 2,
                      "depth": self.depth},
            "h_words": ["1", "c"], "degrees": [0, 1], "b2": {"1": "1"},
            "infinite_centralizers": True, "normalize_per_h": True,
            "probe_words": ["a", "c"], "out": str(out_dir)})

    def run(self, config, tr):
        """Items: one per level, then the emitted report."""
        try:
            if tr.on:
                records, report = self._traced_run(config, tr)
                with tr.span("runner.emit_s"):
                    paths = runner.emit(records, report, config.out)
                tr.count("runner.emit_bytes",
                         sum(os.path.getsize(p) for p in paths))
            else:
                records, report = runner.run(config)
                paths = runner.emit(records, report, config.out)
        except Exception as exc:
            return [exc] * (self.depth + 1)
        return list(records) + [paths]

    def _traced_run(self, config, tr):
        """``runner.run(config)`` call by call, with replicas of the
        sub-steps that ``ExperimentContext``, ``run_level`` and
        ``assemble_report`` hide."""
        with tr.span("runner.context_s") as sid:
            ctx = runner.ExperimentContext(config)
        with tr.span("runner.build_chain_s", replica_of=sid):
            runner.build_chain(config.chain, ctx.group)
        with tr.span("word_groups.validate_chain_s", replica_of=sid):
            word_groups.validate_chain(ctx.chain)
        records = []
        for n, level in enumerate(ctx.chain.levels):
            with tr.span(f"runner.level_s.L{n}") as sid:
                record = ctx.run_level(n)
            records.append(record)
            if record.error is None:
                self._trace_level(ctx, level, n, sid, tr)
        with tr.span("runner.report_s") as sid:
            report = runner.assemble_report(ctx, records)
        with tr.span("runner.farber_s", replica_of=sid):
            runner.farber_diagnostic(ctx.chain, ctx.probes)
        with tr.span("runner.rel_farber_s", replica_of=sid):
            runner.rel_farber_diagnostic(
                ctx.chain, ctx.h_elems, ctx.probes,
                assert_infinite=config.infinite_centralizers)
        with tr.span("word_groups.intersection_s", replica_of=sid):
            word_groups.intersection_heuristic(ctx.chain)
        return records, report

    @staticmethod
    def _trace_level(ctx, level, n, sid, tr):
        with tr.span("complexes.quotient_complex_s", replica_of=sid):
            qc = complexes.quotient_complex(ctx.cw, level,
                                            h_ctx=(ctx.h_abs, ctx.h_elems))
        tr.count(f"complexes.cells.L{n}", sum(qc.n_cells.values()))
        tr.count(f"complexes.boundary_nnz.L{n}",
                 sum(len(c) for _, cols in qc.boundaries.values()
                     for c in cols))
        with tr.span("linalg.elim_s", replica_of=sid):
            qc.betti_numbers()
        tr.count("linalg.elim_rank", sum(qc.rank(p) for p in qc.boundaries))
        # Expansion sizes live in the complex's elimination cache; a complex
        # without that cache leaves the counter at 0 instead of failing.
        for elim in getattr(qc, "_elims", {}).values():
            if elim is not None:
                tr.count("linalg.elim_fill_nnz",
                         sum(len(e) for e in elim.col_expr.values()))
        with tr.span("complexes.traces_s", replica_of=sid):
            qc.multiplicities(ctx.table)

    def check(self, outcomes, config) -> list[str | None]:
        out = []
        for n, rec in enumerate(outcomes[:-1]):
            if isinstance(rec, Exception):
                out.append(f"level {n}: {type(rec).__name__}: {rec}")
                continue
            k = 2 ** (2 * n + 1)
            want = {(0, 0): 1, (0, 1): 0, (1, 0): k - 1, (1, 1): k + 2}
            if rec.error is not None:
                out.append(f"level {n}: {rec.error}")
            elif rec.raw != want:
                out.append(f"level {n}: raw {rec.raw} != {want}")
            elif rec.norm_index != 4 ** (n + 1):
                out.append(f"level {n}: norm_index {rec.norm_index}")
            elif rec.traces.get((1, 1)) != self.trace:
                out.append(f"level {n}: Tr(c|H_1) = {rec.traces.get((1, 1))}"
                           f" != {self.trace}")
            else:
                out.append(None)
        paths = outcomes[-1]
        if isinstance(paths, Exception):
            out.append(f"emit: {type(paths).__name__}: {paths}")
            return out
        try:
            report = json.loads(Path(paths[-1]).read_text())
            levels = [lv["level"] for lv in report["levels"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.append(f"emit: report.json unreadable: {exc}")
            return out
        out.append(None if levels == list(range(self.depth))
                   else f"emit: report.json levels {levels}")
        return out


def _cayley(group):
    cols = [{0: Fraction(1), g: Fraction(-1)} for g in group.generators]
    return {1: FiniteAlgebraMatrix(group, 1, len(cols),
                                   {(0, j): col for j, col in enumerate(cols)})}


def _cyclic_line(group):
    return {1: FiniteAlgebraMatrix(group, 1, 1,
                                   {(0, 0): {0: Fraction(1), 1: Fraction(-1)}})}


class Crosscheck:
    """Criterion 3's corpus through ``complexes.finite_group_crosscheck``.

    The corpus is criterion 3's without its D_48 instance: that one takes
    about 26 s alone, longer than a run.  The largest instances left (S_4
    and D_24, induced representations of dimension 12 and 6) keep the exact
    induced representation the dominant cost.
    """

    name = "crosscheck"
    entry_layer = "complexes"
    tol = 1e-7

    def __init__(self, max_order: int = 24):
        self.max_order = max_order

    def inputs(self, seed: int, out_dir: Path):
        s3 = from_generators([(1, 0, 2), (0, 2, 1)])
        s4 = symmetric_group(4)
        d4, d12, d24 = dihedral_group(4), dihedral_group(6), dihedral_group(12)
        k4 = abelian_group([2, 2])
        c4, c6, c8 = cyclic_group(4), cyclic_group(6), cyclic_group(8)
        norm = {i: Fraction(1) for i in range(6)}
        three_term = {1: _cyclic_line(c6)[1],
                      2: FiniteAlgebraMatrix(c6, 1, 1, {(0, 0): norm})}
        corpus = [
            (c4, [0, 2], _cyclic_line(c4)),
            (c6, [0, 3], _cyclic_line(c6)),
            (c6, [0, 2, 4], _cyclic_line(c6)),
            (c8, [0, 4], _cyclic_line(c8)),
            (s3, sorted(s3.subgroup_generated(
                [s3.index_of((1, 0, 2))]).members), _cayley(s3)),
            (s3, sorted(s3.subgroup_generated(
                [s3.index_of((2, 0, 1))]).members), _cayley(s3)),
            (d4, [0, d4.index_of((0, 1))], _cayley(d4)),
            (d4, [0, d4.index_of((2, 0))], _cayley(d4)),
            (k4, [0, k4.index_of((1, 0))], _cayley(k4)),
            (d12, [0, d12.index_of((0, 1))], _cayley(d12)),
            (s4, sorted(s4.subgroup_generated([s4.generators[0]]).members),
             _cayley(s4)),
            (d24, [0, d24.index_of((6, 0)), d24.index_of((0, 1)),
                   d24.index_of((6, 1))], _cayley(d24)),
            (c6, [0, 3], three_term),
        ]
        return [c for c in corpus if c[0].order <= self.max_order]

    def run(self, corpus, tr):
        return _guarded(corpus, lambda inst: self._instance(*inst, tr))

    def _instance(self, group, members, boundaries, tr):
        sub = group.subgroup(members)
        h_abs, _ = sub.abstract_group()
        with tr.span("finite_groups.character_table_s"):
            table = character_table(h_abs)
        with tr.span("complexes.crosscheck_s") as sid:
            out = complexes.finite_group_crosscheck(group, sub, boundaries,
                                                    table, tol=self.tol)
        if tr.on:
            with tr.span("complexes.materialize_s", replica_of=sid):
                complexes.materialize_regular(group, boundaries, sub)
            degrees = sorted({q for p in boundaries for q in (p - 1, p)})
            for chi in table.irreducibles:
                with tr.span("spectral.irreducible_rep_s", replica_of=sid):
                    rho_h = irreducible_rep(h_abs, chi)
                with tr.span("spectral.induced_rep_s", replica_of=sid):
                    rho = induced_rep(group, sub, rho_h)
                tr.count("spectral.induced_rep_calls")
                tr.maximum("spectral.induced_rep_dim_max", rho.dim)
                for p in degrees:
                    with tr.span("spectral.phi_betti_s", replica_of=sid):
                        phi_betti(boundaries.get(p), boundaries.get(p + 1),
                                  rho)
        return out

    def check(self, outcomes, corpus) -> list[str | None]:
        out = []
        for i, res in enumerate(outcomes):
            if isinstance(res, Exception):
                out.append(f"instance {i}: {type(res).__name__}: {res}")
            elif not res:
                out.append(f"instance {i}: no comparisons")
            else:
                bad = [(key, pair) for key, pair in res.items()
                       if abs(pair[0] - pair[1]) > self.tol]
                out.append(f"instance {i}: disagree at {bad}" if bad else None)
        return out


def _dense_operator(a, rho):
    """The integer operator and reconstruction bound that
    ``luck_bound_check`` hands to ``charpoly_trailing``."""
    _, cols = operator_columns_exact(a, rho)
    size = a.cols * rho.dim
    dense = np.zeros((size, size), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, v in col.items():
            dense[r, j] = int(v)
    growth = max(2, math.ceil(float(a.sup_norm_bound())))
    return dense, growth ** size


class CrtDet:
    """Criterion 2 through ``spectral.luck_bound_check``: ``1 - a`` on Z/N
    for N = 1..64, then one instance ``(w1 - w2)*(w1 - w2)`` of F2 per
    permutation size in ``sizes``, with words and permutations drawn from
    the seed.  Fixing the sizes and the matrix shape fixes the matrix sizes
    and the number of primes of a pass, so seeds differ in content, not in
    size.  Criterion 2's own 50 instances take about 16 s, and their cost
    varies with the seed."""

    name = "crt_det"
    entry_layer = "spectral"

    def __init__(self, max_cyclic: int = 64,
                 sizes: tuple[int, ...] = (25, 50, 75, 100, 125, 150, 175, 200)):
        self.max_cyclic = max_cyclic
        self.sizes = sizes

    def inputs(self, seed: int, out_dir: Path):
        z = FreeAbelianGroup(1)
        a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
        gram = a.adjoint() @ a
        items = []
        for n in range(1, self.max_cyclic + 1):
            target = cyclic_group(n)
            items.append((n, push_matrix(QuotientMap(z, target, [1 % n]),
                                         gram), regular_rep(target)))
        rng = random.Random(seed)
        f2 = FreeGroup(2)

        def word():
            return f2.word("".join(rng.choice(["a", "a'", "b", "b'"])
                                   for _ in range(rng.randint(1, 4))))

        for size in self.sizes:
            w1, w2 = word(), word()
            while w2 == w1:
                w2 = word()
            mat = GroupRingMatrix(f2, 1, 1, {(0, 0): {w1: 1, w2: -1}})
            rho = WordPermRep(f2, [rng.sample(range(size), size)
                                   for _ in range(2)])
            items.append((None, mat.adjoint() @ mat, rho))
        return items

    def run(self, items, tr):
        return _guarded(items, lambda item: self._instance(*item[1:], tr))

    @staticmethod
    def _instance(gram, rho, tr):
        with tr.span("spectral.luck_bound_check_s") as sid:
            rep = luck_bound_check(gram, rho, 1)
        if tr.on:
            with tr.span("spectral.measure_s", replica_of=sid):
                spectral_measure(gram, rho)
            tr.maximum("spectral.eig_dim_max", gram.cols * rho.dim)
            with tr.span("spectral.operator_columns_s", replica_of=sid):
                dense, bound = _dense_operator(gram, rho)
            with tr.span("linalg.charpoly_s", replica_of=sid):
                _linalg.charpoly_trailing(dense, bound)
            tr.count("linalg.charpoly_calls")
            tr.count("linalg.charpoly_n3_sum", dense.shape[0] ** 3)
        return rep

    def check(self, outcomes, items) -> list[str | None]:
        out = []
        for (n, _, _), rep in zip(items, outcomes):
            label = f"Z/{n}" if n else "permutation instance"
            if isinstance(rep, Exception):
                out.append(f"{label}: {type(rep).__name__}: {rep}")
            elif n and rep.char_trailing != n * n:
                out.append(f"{label}: trailing coefficient "
                           f"{rep.char_trailing} != {n * n}")
            elif not n and not (rep.char_trailing or 0) >= 1:
                out.append(f"{label}: trailing coefficient {rep.char_trailing}")
            elif rep.log_gap is None or not rep.log_gap < 1e-8:
                out.append(f"{label}: log gap {rep.log_gap}")
            elif not rep.det >= 1.0 - 1e-9:
                out.append(f"{label}: det {rep.det} < 1")
            else:
                out.append(None)
        return out


class SpectralLine:
    """``1 - a`` on Z/2^k under the regular representation, as
    ``l2mult spectral`` runs it: measure and determinant, rank and nullity,
    moments up to 4."""

    name = "spectral_line"
    entry_layer = "spectral"

    def __init__(self, kmin: int = 6, kmax: int = 10):
        self.ks = range(kmin, kmax + 1)

    def inputs(self, seed: int, out_dir: Path):
        z = FreeAbelianGroup(1)
        a = GroupRingMatrix.from_strings(z, [["1 + -1*a"]])
        items = []
        for k in self.ks:
            qmap = QuotientMap(z, cyclic_group(2 ** k), [1])
            pushed = push_matrix(qmap, a)
            items.append((2 ** k, pushed, pushed.adjoint() @ pushed,
                          regular_rep(qmap.target)))
        return items

    def run(self, items, tr):
        return _guarded(items, lambda item: self._instance(*item[1:], tr))

    @staticmethod
    def _instance(pushed, gram, rho, tr):
        with tr.span("spectral.measure_s"):
            mu = spectral_measure(gram, rho)
        tr.maximum("spectral.eig_dim_max", gram.cols * rho.dim)
        with tr.span("spectral.fk_det_s"):
            det = fk_det(mu)
        with tr.span("spectral.rank_nullity_s"):
            _, nullity = rank_nullity(pushed, rho)
        with tr.span("spectral.moments_s"):
            rows = moments_check(gram, rho, 4)
        return det, nullity, rows

    def check(self, outcomes, items) -> list[str | None]:
        out = []
        for (n, *_), res in zip(items, outcomes):
            if isinstance(res, Exception):
                out.append(f"Z/{n}: {type(res).__name__}: {res}")
                continue
            det, nullity, rows = res
            if nullity != Fraction(1, n):
                out.append(f"Z/{n}: nullity {nullity} != 1/{n}")
            elif not abs(det ** n - n * n) <= 1e-6 * n * n:
                out.append(f"Z/{n}: fk_det^N = {det ** n} != {n * n}")
            elif len(rows) != 4:
                out.append(f"Z/{n}: {len(rows)} moments checked")
            else:
                out.append(None)
        return out


WORKLOADS = {w.name: w for w in (FbfChain(), Crosscheck(), CrtDet(),
                                 SpectralLine())}
