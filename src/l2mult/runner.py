"""Approximation experiments along chains of finite quotients.

A run walks a quotient chain, builds each quotient complex, records raw and
normalized multiplicities plus symmetry traces, compares against predicted
limits, and attaches Farber / relative-Farber diagnostics.  Levels that fail
(stabilizers surviving, symmetry collapsing) are recorded and skipped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .finite_groups import (ConfigInvalid, FiniteGroup, L2MultError,
                            abelian_group, character_table, cyclic_group,
                            dihedral_group, from_generators, induced_value,
                            semidirect_vector_group, symmetric_group)
from .characters import (HNotNormalizing, check_normalizes,
                         finite_word_subgroup, fixed_coset_count)
from .complexes import (EquivariantCWData, ComplexError, builtin_line_Dinf,
                        builtin_line_Z, builtin_rose_free,
                        builtin_tree_free_by_finite, cw_from_json,
                        quotient_complex)
from .word_groups import (BuiltinGroup, FiniteIndexSubgroup, FreeAbelianGroup,
                          FreeGroup, FreeByFiniteGroup, InfiniteDihedralGroup,
                          QuotientChain, QuotientMap, Word, WordGroupError,
                          intersection_heuristic, validate_chain)


def _frac(x) -> Fraction:
    if isinstance(x, bool):
        raise ConfigInvalid(f"expected a number, got {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    group: dict
    complex: object
    chain: dict
    h_words: list[str] = field(default_factory=lambda: ["1"])
    irreducibles: object = "all"
    degrees: list[int] = field(default_factory=lambda: [0, 1])
    b2: dict[int, Fraction] = field(default_factory=dict)
    infinite_centralizers: bool = False
    normalize_per_h: bool = False
    probe_words: list[str] = field(default_factory=list)
    char_convergence: int | None = None
    out: str | None = None
    format: str = "both"

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        try:
            kwargs = dict(data)
            if "b2" in kwargs:
                b2 = kwargs["b2"]
                if not isinstance(b2, dict):
                    raise ConfigInvalid(f"b2 must be a JSON object, got {b2!r}")
                kwargs["b2"] = {int(k): _frac(v) for k, v in b2.items()}
            cfg = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc
        if cfg.format not in ("csv", "json", "both"):
            raise ConfigInvalid(f"unknown format {cfg.format!r}")
        for what in ("infinite_centralizers", "normalize_per_h"):
            if not isinstance(getattr(cfg, what), bool):
                raise ConfigInvalid(f"{what} must be true or false, got "
                                    f"{getattr(cfg, what)!r}")
        if not isinstance(cfg.out, (str, type(None))):
            raise ConfigInvalid(f"out must be a path, got {cfg.out!r}")
        for what, spec in (("group", cfg.group), ("chain", cfg.chain)):
            if not isinstance(spec, dict):
                raise ConfigInvalid(f"the {what} spec must be a JSON object, "
                                    f"got {spec!r}")
        lists = {"h_words": cfg.h_words, "degrees": cfg.degrees,
                 "probe_words": cfg.probe_words}
        if cfg.irreducibles != "all":
            lists["irreducibles"] = cfg.irreducibles
        for what, value in lists.items():
            if not isinstance(value, list):
                raise ConfigInvalid(f"{what} must be a list, got {value!r}")
        for what in ("h_words", "probe_words"):
            for w in lists[what]:
                if not isinstance(w, str):
                    raise ConfigInvalid(f"{what} must hold words as strings, "
                                        f"got {w!r}")
        return cfg

    def to_json(self) -> dict:
        out = {
            "group": self.group, "complex": self.complex, "chain": self.chain,
            "h_words": self.h_words, "irreducibles": self.irreducibles,
            "degrees": self.degrees,
            "b2": {str(k): _frac_str(v) for k, v in self.b2.items()},
            "infinite_centralizers": self.infinite_centralizers,
            "normalize_per_h": self.normalize_per_h,
            "probe_words": self.probe_words,
            "char_convergence": self.char_convergence,
            "out": self.out, "format": self.format,
        }
        return out


def _int(value, what: str) -> int:
    """int(value), refusing a JSON boolean, which int() would read as 0 or
    1, and a number with a fractional part, which int() would truncate."""
    fractional = isinstance(value, float) and not value.is_integer()
    try:
        if not isinstance(value, bool) and not fractional:
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ConfigInvalid(f"{what} must be an integer, got {value!r}")


def build_group(spec: dict) -> BuiltinGroup:
    family = spec.get("family")
    if family == "free":
        return FreeGroup(_int(spec.get("rank", 2), "rank"))
    if family == "free_abelian":
        return FreeAbelianGroup(_int(spec.get("rank", 1), "rank"))
    if family == "dihedral_infinite":
        return InfiniteDihedralGroup()
    if family == "free_by_finite":
        h_spec = spec.get("h", "cyclic:2")
        h_group = finite_group_from_spec(h_spec)
        rank = _int(spec.get("rank", 2), "rank")
        raw_action = spec.get("action")
        if raw_action is None:
            raise ConfigInvalid("free_by_finite needs an action")
        if not isinstance(raw_action, dict):
            raise ConfigInvalid(f"the action must be a JSON object, "
                                f"got {raw_action!r}")
        gens = h_group.generators
        action = {}
        for k, v in raw_action.items():
            i = _int(k, "action key")
            if not 0 <= i < len(gens):
                raise ConfigInvalid(f"H has no generator {i}")
            if not isinstance(v, list) or \
                    not all(isinstance(w, str) for w in v):
                raise ConfigInvalid(f"the action of H generator {i} must be "
                                    f"a list of words, got {v!r}")
            action[gens[i]] = v
        missing = [i for i, g in enumerate(gens) if g not in action]
        if missing:
            raise ConfigInvalid(f"the action gives no images for H "
                                f"generator {missing[0]}")
        return FreeByFiniteGroup(rank, h_group, action)
    raise ConfigInvalid(f"unknown group family {family!r}")


def finite_group_from_spec(spec) -> FiniteGroup:
    """The finite group of a spec: ``cyclic:N``, ``dihedral:M``,
    ``abelian:n1,n2,...``, ``sym:N`` with N >= 0, or ``perm:`` and a JSON
    list of permutations, each a list of integers.  The field after the
    family is read whole, so an extra ``:`` field is refused."""
    family, _, arg = spec.partition(":") if isinstance(spec, str) \
        else (None, "", "")
    if family == "cyclic":
        return cyclic_group(_int(arg, "order"))
    if family == "dihedral":
        return dihedral_group(_int(arg, "order"))
    if family == "abelian":
        return abelian_group([_int(x, "modulus") for x in arg.split(",")])
    if family == "sym":
        degree = _int(arg, "degree")
        if degree < 0:
            raise ConfigInvalid(f"degree must be non-negative, got {degree}")
        return symmetric_group(degree)
    if family == "perm":
        try:
            perms = json.loads(arg)
        except json.JSONDecodeError:
            perms = None
        if not isinstance(perms, list) or not all(
                isinstance(p, list) and all(type(x) is int for x in p)
                for p in perms):
            raise ConfigInvalid(f"perm needs a JSON list of permutations, "
                                f"each a list of integers, got {arg!r}")
        return from_generators(perms)
    raise ConfigInvalid(f"unknown finite group spec {spec!r}")


def build_complex(spec, group: BuiltinGroup) -> EquivariantCWData:
    if isinstance(spec, dict) and "file" in spec:
        path = spec["file"]
        if not isinstance(path, str):
            raise ConfigInvalid(f"the complex file must be a path, got "
                                f"{path!r}")
        with open(path) as fh:
            return cw_from_json(group, json.load(fh))
    if isinstance(spec, dict) and "cells" in spec:
        return cw_from_json(group, spec)
    if spec == "line_z":
        if not isinstance(group, FreeAbelianGroup):
            raise ConfigInvalid("line_z needs the free abelian group")
        return builtin_line_Z(group)
    if spec == "line_dinf":
        if not isinstance(group, InfiniteDihedralGroup):
            raise ConfigInvalid("line_dinf needs the infinite dihedral group")
        return builtin_line_Dinf(group)
    if spec == "rose":
        if not isinstance(group, FreeGroup):
            raise ConfigInvalid("rose needs a free group")
        return builtin_rose_free(group)
    if spec == "tree_semidirect":
        if not isinstance(group, FreeByFiniteGroup):
            raise ConfigInvalid("tree_semidirect needs a free-by-finite group")
        return builtin_tree_free_by_finite(group)
    raise ConfigInvalid(f"unknown complex spec {spec!r}")


def _base_depth(spec: dict, depth: int) -> tuple[int, int]:
    base = _int(spec.get("base", 2), "base")
    depth = _int(spec.get("depth", depth), "depth")
    if base < 2:
        raise ConfigInvalid(f"chain base must be at least 2, got {base}")
    if depth < 1:
        raise ConfigInvalid(f"chain depth must be at least 1, got {depth}")
    return base, depth


def build_chain(spec: dict, group: BuiltinGroup) -> QuotientChain:
    template = spec.get("template")
    if template == "cyclic_mod":
        return _chain_cyclic(group, *_base_depth(spec, 5))
    if template == "abelianized_mod":
        return _chain_abelianized(group, *_base_depth(spec, 3))
    if template in ("dihedral", "dihedral_reflection"):
        orders = spec.get("orders", [2, 4, 8, 16])
        if not isinstance(orders, list) or not orders:
            raise ConfigInvalid(f"dihedral chain orders must be a non-empty "
                                f"list, got {orders!r}")
        orders = [_int(m, "order") for m in orders]
        if min(orders) < 1:
            raise ConfigInvalid(f"dihedral chain orders must be positive, "
                                f"got {orders}")
        return _chain_dihedral(group, orders,
                               reflection=template == "dihedral_reflection")
    if template == "semidirect_mod":
        return _chain_semidirect(group, *_base_depth(spec, 3))
    raise ConfigInvalid(f"unknown chain template {template!r}")


def _chain_cyclic(group, base, depth) -> QuotientChain:
    if not isinstance(group, FreeAbelianGroup) or group.rank != 1:
        raise ConfigInvalid("cyclic_mod chains need FreeAbelian(1)")
    levels = []
    for n in range(1, depth + 1):
        target = cyclic_group(base ** n)
        qmap = QuotientMap(group, target, target.generators)
        levels.append(FiniteIndexSubgroup(qmap, target.subgroup([0])))
    return QuotientChain(levels)


def _chain_abelianized(group, base, depth) -> QuotientChain:
    if not isinstance(group, FreeGroup):
        raise ConfigInvalid("abelianized_mod chains need a free group")
    r = group.rank
    levels = []
    for n in range(1, depth + 1):
        target = abelian_group([base ** n] * r)
        # base >= 2, so the generators are all r unit vectors, in letter order
        qmap = QuotientMap(group, target, target.generators)
        levels.append(FiniteIndexSubgroup(qmap, target.subgroup([0])))
    return QuotientChain(levels)


def _chain_dihedral(group, orders, reflection=False) -> QuotientChain:
    if not isinstance(group, InfiniteDihedralGroup):
        raise ConfigInvalid("dihedral chains need the infinite dihedral group")
    for a, b in zip(orders, orders[1:]):
        if b % a:
            raise ConfigInvalid("dihedral chain orders must divide each other")
    levels = []
    for m in orders:
        target = dihedral_group(m)
        t_img = target.index_of((1 % m, 0))
        s_img = target.index_of((0, 1))
        qmap = QuotientMap(group, target, [t_img, s_img])
        if reflection:
            fiber = target.subgroup([0, target.index_of((0, 1))])
        else:
            fiber = target.subgroup([0])
        levels.append(FiniteIndexSubgroup(qmap, fiber))
    return QuotientChain(levels)


def _chain_semidirect(group, base, depth) -> QuotientChain:
    if not isinstance(group, FreeByFiniteGroup):
        raise ConfigInvalid("semidirect_mod chains need a free-by-finite group")
    r = group.rank
    h = group.h_group
    levels = []
    for n in range(1, depth + 1):
        mod = base ** n
        mats = {}
        for g in h.generators:
            img_words = group._aut[g]
            mat = []
            for i in range(r):
                row = [0] * r
                for gen_idx, exp in img_words[i]:
                    row[gen_idx] += exp
                mat.append(row)
            # images of generators under h give the ROWS of the action of h
            # on the abelianization; transpose to act on column vectors
            mats[g] = [[mat[j][i] % mod for j in range(r)] for i in range(r)]
        target = semidirect_vector_group([mod] * r, h, mats)
        # the unit vectors, then the H generators: the letter order of group
        qmap = QuotientMap(group, target, target.generators)
        levels.append(FiniteIndexSubgroup(qmap, target.subgroup([0])))
    return QuotientChain(levels)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def farber_diagnostic(chain: QuotientChain, probe_words: list[Word]):
    """Fixed-coset fractions |{f : g in f Gamma f^-1}| / [G:Gamma], exact."""
    rows = []
    for n, level in enumerate(chain.levels):
        for w in probe_words:
            count = fixed_coset_count(level, level.via.evaluate(w))
            rows.append({"level": n, "word": str(w), "count": count,
                         "fraction": Fraction(count, level.index)})
    return rows


def _check_infinite_classes(h_elems: list[Word]):
    """Refuse the claim that every h != 1 of H has an infinite conjugacy
    class in G, which ``prediction`` rests on, when G's oracle finds a
    finite one."""
    for h in h_elems:
        if not h.is_identity() and h.group.finite_class(h) is not None:
            raise ConfigInvalid(f"infinite_centralizers does not hold: "
                                f"{h} has a finite conjugacy class")


def rel_farber_diagnostic(chain: QuotientChain, h_words: list[Word],
                          probe_words: list[Word],
                          assert_infinite: bool = False):
    """Deviation of the biset characters of G/Gamma_n from the limit i_G;
    ``assert_infinite`` claims an infinite class for every h != 1, and is
    checked first (``_check_infinite_classes``)."""
    h_abs, h_elems = finite_word_subgroup(h_words)
    if assert_infinite:
        _check_infinite_classes(h_elems)
    group = chain.group
    # the limit does not depend on the level
    limits = [[group.i_value(w, h) for h in h_elems] for w in probe_words]
    rows = []
    for n, level in enumerate(chain.levels):
        h_images = [level.via.evaluate(w) for w in h_elems]
        try:
            check_normalizes(level, h_images)
        except HNotNormalizing as exc:
            raise HNotNormalizing(
                f"level {n}: H does not normalize the fiber") from exc
        for w, w_limits in zip(probe_words, limits):
            g = level.via.evaluate(w)
            for h_word, him, limit in zip(h_elems, h_images, w_limits):
                value = Fraction(fixed_coset_count(level, g, him), level.index)
                rows.append({"level": n, "g": str(w), "h": str(h_word),
                             "value": value, "limit": limit,
                             "deviation": abs(value - limit)})
    return rows


def centralizer_growth(chain: QuotientChain, word: Word) -> list[int]:
    """[Q_n : C(image of the word)] per level."""
    out = []
    for level in chain.levels:
        q = level.via.target
        out.append(q.conjugacy_class_size(level.via.evaluate(word)))
    return out


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    level: int
    index: int
    norm_index: int
    betti: dict[int, int] = field(default_factory=dict)
    raw: dict[tuple[int, int], int] = field(default_factory=dict)
    normalized: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    traces: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    seconds: float = 0.0
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "level": self.level, "index": self.index,
            "norm_index": self.norm_index,
            "betti": {str(p): b for p, b in self.betti.items()},
            "raw": {f"{p},{c}": m for (p, c), m in self.raw.items()},
            "normalized": {f"{p},{c}": _frac_str(v)
                           for (p, c), v in self.normalized.items()},
            "traces": {f"{p},{h}": _frac_str(v)
                       for (p, h), v in self.traces.items()},
            "seconds": round(self.seconds, 6),
            "error": self.error,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LevelRecord":
        def keypair(s):
            a, b = s.split(",")
            return int(a), int(b)
        return cls(
            level=data["level"], index=data["index"],
            norm_index=data["norm_index"],
            betti={int(p): b for p, b in data["betti"].items()},
            raw={keypair(k): v for k, v in data["raw"].items()},
            normalized={keypair(k): _frac(v)
                        for k, v in data["normalized"].items()},
            traces={keypair(k): _frac(v) for k, v in data["traces"].items()},
            seconds=data.get("seconds", 0.0), error=data.get("error"),
        )


class ExperimentContext:
    """Everything reconstructible from a config: group, complex, chain and
    its ``validate_chain`` reports, H."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        try:
            self.group = build_group(config.group)
            self.cw = build_complex(config.complex, self.group)
            self.chain = build_chain(config.chain, self.group)
        except (WordGroupError, ComplexError) as exc:
            raise ConfigInvalid(str(exc)) from exc
        self.chain_reports = validate_chain(self.chain)
        words = [self.group.word(w) for w in config.h_words]
        self.h_abs, self.h_elems = finite_word_subgroup(words)
        self.table = character_table(self.h_abs)
        if config.irreducibles == "all":
            self.chi_indices = list(range(len(self.table.irreducibles)))
        else:
            self.chi_indices = [_int(i, "irreducible")
                               for i in config.irreducibles]
        self.char_convergence = None
        if config.char_convergence is not None:
            self.char_convergence = _int(config.char_convergence,
                                         "char_convergence")
        for i in self.chi_indices + [self.char_convergence]:
            if i is not None and not 0 <= i < len(self.table.irreducibles):
                raise ConfigInvalid(f"no irreducible {i}")
        self.degrees = [_int(p, "degree") for p in config.degrees]
        for p in self.degrees:
            if p not in self.cw.cells:
                raise ConfigInvalid(f"complex has no cells in degree {p}")
        self.probes = [self.group.word(w) for w in config.probe_words]
        if config.infinite_centralizers:
            _check_infinite_classes(self.h_elems)

    def norm_index(self, level: FiniteIndexSubgroup) -> int:
        n = level.index
        if self.config.normalize_per_h:
            if n % self.h_abs.order:
                raise ConfigInvalid("index not divisible by |H|")
            n //= self.h_abs.order
        return n

    def prediction(self, p: int, chi_idx: int) -> Fraction | None:
        cfg = self.config
        if not cfg.infinite_centralizers or p not in cfg.b2:
            return None
        chi = self.table.irreducibles[chi_idx]
        return Fraction(chi.degree, self.h_abs.order) * cfg.b2[p]

    def rel_farber(self) -> list[dict]:
        """``rel_farber_diagnostic`` on H and the probes, or one error row
        for an H that does not normalize a fiber."""
        try:
            return rel_farber_diagnostic(self.chain, self.h_elems,
                                         self.probes)
        except HNotNormalizing as exc:
            return [{"error": f"{type(exc).__name__}: {exc}"}]

    def run_level(self, n: int) -> LevelRecord:
        level = self.chain.levels[n]
        record = LevelRecord(level=n, index=level.index,
                             norm_index=self.norm_index(level))
        start = time.perf_counter()
        try:
            qc = quotient_complex(self.cw, level,
                                  h_ctx=(self.h_abs, self.h_elems))
            report = qc.multiplicities(self.table)
            for p in self.degrees:
                record.betti[p] = report.betti[p]
                for c in self.chi_indices:
                    m = report.multiplicities[(p, c)]
                    record.raw[(p, c)] = m
                    record.normalized[(p, c)] = Fraction(m, record.norm_index)
                for h in range(self.h_abs.order):
                    record.traces[(p, h)] = report.traces[(p, h)]
        except L2MultError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        record.seconds = time.perf_counter() - start
        return record


def run(config: ExperimentConfig, levels: int | None = None):
    """Execute an experiment; returns (records, report_dict).  ``levels``
    caps the number of chain levels run, and must be at least 1."""
    if levels is not None and levels < 1:
        raise ConfigInvalid(f"levels must be at least 1, got {levels}")
    ctx = ExperimentContext(config)
    n_levels = len(ctx.chain.levels)
    if levels is not None:
        n_levels = min(n_levels, levels)
    records = [ctx.run_level(n) for n in range(n_levels)]
    return records, assemble_report(ctx, records)


def assemble_report(ctx: ExperimentContext, records: list[LevelRecord]) -> dict:
    """JSON-ready convergence report (fractions encoded as strings)."""
    cfg = ctx.config
    sequences = {}
    for p in ctx.degrees:
        for c in ctx.chi_indices:
            seq = [(_frac_str(r.normalized[(p, c)]) if (p, c) in r.normalized
                    else None) for r in records]
            pred = ctx.prediction(p, c)
            good = [r for r in records if (p, c) in r.normalized]
            final_dev = None
            if pred is not None and good:
                final_dev = float(abs(good[-1].normalized[(p, c)] - pred))
            sequences[f"{p},{c}"] = {
                "values": seq,
                "prediction": None if pred is None else _frac_str(pred),
                "final_deviation": final_dev,
            }
    trace_sequences = {}
    for p in ctx.degrees:
        for h in range(1, ctx.h_abs.order):
            trace_sequences[f"{p},{h}"] = [
                (_frac_str(r.traces[(p, h)] / r.norm_index)
                 if (p, h) in r.traces else None)
                for r in records]
    farber_rows = farber_diagnostic(ctx.chain, ctx.probes)
    rel_rows = ctx.rel_farber() if ctx.h_abs.order > 1 or ctx.probes else []
    growth = {str(w): centralizer_growth(ctx.chain, w) for w in ctx.probes}
    char_rows = []
    if ctx.char_convergence is not None:
        char_rows = _char_convergence_rows(ctx, ctx.char_convergence)
    report = {
        "config": cfg.to_json(),
        "levels": [r.to_json() for r in records],
        "sequences": sequences,
        "trace_sequences": trace_sequences,
        "farber": [_jsonify(row) for row in farber_rows],
        "rel_farber": [_jsonify(row) for row in rel_rows],
        "centralizer_growth": growth,
        "char_convergence": char_rows,
        "intersection_ball_length": intersection_heuristic(ctx.chain),
        "assumptions": {
            "normal_kernel_chain": all(r.normal for r in ctx.chain_reports),
            "infinite_centralizers_asserted": cfg.infinite_centralizers,
        },
    }
    return report


def _char_convergence_rows(ctx: ExperimentContext, chi_idx: int):
    """Induced character of chi at each probe, per level against its limit:
    one formula, ``induced_value``, with Q_n's i-function and with G's."""
    chi = ctx.table.irreducibles[chi_idx]
    # chi / chi(1) at element h of H, which h_elems[h] realizes
    chi_at = [complex(chi.value(h) / chi.degree)
              for h in range(ctx.h_abs.order)]
    # the limit does not depend on the level
    limits = [complex(induced_value(ctx.group.i_value, w,
                                    zip(ctx.h_elems, chi_at)))
              for w in ctx.probes]
    rows = []
    for n, level in enumerate(ctx.chain.levels):
        h_images = [level.via.evaluate(w) for w in ctx.h_elems]
        if len(set(h_images)) != ctx.h_abs.order:
            rows.append({"level": n, "error": "symmetry collapses"})
            continue
        # in Q's element order, which fixes the rounding of the sum
        pairs = sorted(zip(h_images, chi_at))
        rows += [_char_convergence_row(n, level, w, pairs, lim)
                 for w, lim in zip(ctx.probes, limits)]
    return rows


def _char_convergence_row(n: int, level: FiniteIndexSubgroup, w: Word,
                          pairs, lim: complex) -> dict:
    observed = induced_value(level.via.target.i_value, level.via.evaluate(w),
                             pairs)
    return {"level": n, "word": str(w),
            "observed": [observed.real, observed.imag],
            "limit": [lim.real, lim.imag], "deviation": abs(observed - lim)}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _jsonify(row: dict) -> dict:
    out = {}
    for k, v in row.items():
        out[k] = _frac_str(v) if isinstance(v, Fraction) else v
    return out


CSV_COLUMNS = ["level", "index", "p", "chi", "raw", "normalized",
               "normalized_decimal", "prediction", "deviation"]


def emit(records: list[LevelRecord], report: dict, out_dir, fmt: str = "both"):
    """Write results.csv / report.json with a fixed column order."""
    import csv
    from pathlib import Path
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    if fmt in ("csv", "both"):
        path = out_dir / "results.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                if r.error is not None:
                    continue
                for (p, c), m in sorted(r.raw.items()):
                    norm = r.normalized[(p, c)]
                    seq = report["sequences"].get(f"{p},{c}", {})
                    pred = seq.get("prediction")
                    dev = ""
                    if pred is not None:
                        dev = str(abs(norm - _frac(pred)))
                    writer.writerow([r.level, r.index, p, c, m,
                                     _frac_str(norm), float(norm),
                                     pred if pred is not None else "",
                                     dev])
        paths.append(path)
    if fmt in ("json", "both"):
        path = out_dir / "report.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths

