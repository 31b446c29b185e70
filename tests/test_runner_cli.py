import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from l2mult import (FiniteIndexSubgroup, FreeAbelianGroup,
                    InfiniteDihedralGroup, QuotientChain, QuotientMap,
                    centralizer_growth, cyclic_group, emit, farber_diagnostic,
                    rel_farber_diagnostic, run)
from l2mult.characters import (check_normalizes, finite_word_subgroup,
                               fixed_coset_count)
from l2mult.cli import main as cli_main
from l2mult import runner
from l2mult.runner import (ConfigInvalid, ExperimentConfig, ExperimentContext,
                           LevelRecord, build_chain, build_group)
from l2mult.word_groups import BuiltinGroup

from conftest import make_rng
from oracles import fixed_coset_count_oracle


def dinf_data(**overrides):
    data = {
        "group": {"family": "dihedral_infinite"},
        "complex": "line_dinf",
        "chain": {"template": "dihedral", "orders": [2, 4, 8]},
        "h_words": ["1", "b"],
        "degrees": [0, 1],
        "b2": {"0": "0", "1": "0"},
        "infinite_centralizers": True,
        "probe_words": ["a", "b"],
    }
    data.update(overrides)
    return data


def dinf_config(**overrides):
    return ExperimentConfig.from_json(dinf_data(**overrides))


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_json({"group": {}, "complex": "line_z",
                                    "chain": {}, "format": "xml"})
    with pytest.raises(ConfigInvalid):
        build_group({"family": "nope"})
    with pytest.raises(ConfigInvalid):
        build_chain({"template": "nope"}, FreeAbelianGroup(1))
    with pytest.raises(ConfigInvalid):
        ExperimentContext(dinf_config(irreducibles=[7]))
    with pytest.raises(ConfigInvalid):
        ExperimentContext(dinf_config(complex="line_z"))
    with pytest.raises(ConfigInvalid):
        build_chain({"template": "dihedral", "orders": [2, 3]},
                    InfiniteDihedralGroup())


def test_config_round_trip():
    cfg = dinf_config()
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.to_json() == cfg.to_json()
    assert again.b2[1] == Fraction(0)


def test_farber_diagnostic_cyclic_chain():
    cfg = ExperimentConfig.from_json({
        "group": {"family": "free_abelian", "rank": 1},
        "complex": "line_z",
        "chain": {"template": "cyclic_mod", "base": 2, "depth": 3},
        "probe_words": ["a", "aaaa"],
    })
    ctx = ExperimentContext(cfg)
    rows = farber_diagnostic(ctx.chain, ctx.probes)
    frac = {(r["level"], r["word"]): r["fraction"] for r in rows}
    # fraction is 1 exactly when the word lies in the kernel, else 0
    assert frac[(0, "a")] == 0 and frac[(2, "a")] == 0
    assert frac[(0, "aaaa")] == 1 and frac[(1, "aaaa")] == 1
    assert frac[(2, "aaaa")] == 0


def test_rel_farber_kernel_chain_decays():
    cfg = dinf_config(chain={"template": "dihedral", "orders": [2, 4, 8, 16]})
    ctx = ExperimentContext(cfg)
    rows = rel_farber_diagnostic(ctx.chain, ctx.h_elems, ctx.probes)
    at_ss = {r["level"]: r["value"] for r in rows
             if r["g"] == "b" and r["h"] == "b"}
    # |C(s)| / 2m = 2/m for the even dihedral quotients
    assert at_ss == {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 4),
                     3: Fraction(1, 8)}
    assert all(r["limit"] == 0 for r in rows if r["h"] == "b")


def test_rel_farber_non_normal_persistent():
    cfg = dinf_config(chain={"template": "dihedral_reflection",
                             "orders": [2, 4, 8]},
                      probe_words=["1", "a"])
    ctx = ExperimentContext(cfg)
    rows = rel_farber_diagnostic(ctx.chain, ctx.h_elems, ctx.probes)
    persistent = [r["deviation"] for r in rows
                  if r["g"] == "1" and r["h"] == "b"]
    assert persistent == [1, 1, 1]


def test_centralizer_growth():
    cfg = dinf_config(chain={"template": "dihedral", "orders": [2, 4, 8, 16]})
    ctx = ExperimentContext(cfg)
    d = ctx.group
    assert centralizer_growth(ctx.chain, d.identity()) == [1, 1, 1, 1]
    growth_s = centralizer_growth(ctx.chain, d.word("b"))
    assert growth_s == [1, 2, 4, 8]       # class size of the reflection
    z_cfg = ExperimentConfig.from_json({
        "group": {"family": "free_abelian", "rank": 1},
        "complex": "line_z",
        "chain": {"template": "cyclic_mod", "base": 2, "depth": 3}})
    z_ctx = ExperimentContext(z_cfg)
    assert centralizer_growth(z_ctx.chain, z_ctx.group.word("a")) == [1, 1, 1]


def test_finite_classes_match_the_quotient_classes():
    # read in the quotients, not from the oracle: the class of each h in H
    # has a size in Q_n that is constant from some level on when its class
    # in G is finite, and that grows at every level when it is infinite.
    # The quotients factor through Z^r : H, so a free word is read only at
    # rank 1, where F_1 = Z
    from suites import C4_INVERSION, C4_ROTATION, KLEIN_SWAP, S3_PERMUTING
    z_by_c2 = {"group": {"family": "free_by_finite", "rank": 1,
                         "h": "cyclic:2", "action": {"0": ["a'"]}},
               "chain": {"template": "semidirect_mod", "depth": 4},
               "h_words": ["1", "b"]}
    configs = {
        "fbf": (GOLDEN_CONFIGS["fbf_semidirect_mod"], 4, []),
        "c4_rotation": (C4_ROTATION, 3, []),
        "klein_swap": (KLEIN_SWAP, 3, []),
        "s3_permuting": (S3_PERMUTING, 3, []),
        "c4_inversion": (C4_INVERSION, 3, []),
        "z_by_c2": (z_by_c2, 4, ["a", "aa", "ab"]),
    }
    sizes, finite = {}, set()
    for name, (data, depth, extra) in configs.items():
        group = build_group(data["group"])
        chain = build_chain(dict(data["chain"], depth=depth), group)
        _, h_elems = finite_word_subgroup(
            [group.word(w) for w in data["h_words"]])
        for w in h_elems + [group.word(x) for x in extra]:
            sizes[name, str(w)] = growth = centralizer_growth(chain, w)
            cls = group.finite_class(w)
            if cls is None:
                assert all(a < b for a, b in zip(growth, growth[1:])), \
                    (name, str(w), growth)
            else:
                assert growth[-2:] == [len(cls)] * 2, (name, str(w), growth)
                if not w.is_identity():
                    finite.add((name, str(w)))
    assert finite == {("c4_inversion", "cc"), ("z_by_c2", "a"),
                      ("z_by_c2", "aa")}
    assert sizes["fbf", "c"] == [1, 4, 16, 64]
    assert sizes["c4_inversion", "cc"] == [1, 1, 1]
    assert sizes["z_by_c2", "a"] == [1, 2, 2, 2]


def test_a_finite_class_in_h_gives_its_limit_and_refuses_the_flag():
    # c^2 is central in F_2 : C_4 with c inverting both generators: the
    # limit at (cc, cc) is 1, which the quotients read at every level, and
    # a config that asserts infinite classes for H is refused
    from suites import C4_INVERSION
    ctx = ExperimentContext(ExperimentConfig.from_json(
        dict(C4_INVERSION, probe_words=["cc"])))
    rows = [(r["value"], r["limit"]) for r in ctx.rel_farber()
            if r["g"] == r["h"] == "cc"]
    assert rows == [(1, 1)] * 3
    refused = "infinite_centralizers does not hold: cc has a finite " \
        "conjugacy class"
    with pytest.raises(ConfigInvalid, match=refused):
        rel_farber_diagnostic(ctx.chain, ctx.h_elems, ctx.probes,
                              assert_infinite=True)


FIXED_COSET_CONFIGS = [
    dinf_data(chain={"template": "dihedral_reflection",
                     "orders": [2, 4, 8, 16, 32, 64]},
              probe_words=["1", "b", "a", "aa", "ab", "aab", "aaab"]),
    dinf_data(chain={"template": "dihedral", "orders": [3, 6, 12, 24]},
              probe_words=["1", "b", "a", "aa", "ab", "aab", "aaab"]),
    {"group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
               "action": {"0": ["a'", "b'"]}},
     "complex": "tree_semidirect",
     "chain": {"template": "semidirect_mod", "base": 2, "depth": 4},
     "h_words": ["1", "c"], "infinite_centralizers": True,
     "probe_words": ["1", "c", "a", "b", "ac", "abc", "aab", "aac"]},
]


@pytest.mark.parametrize("data", FIXED_COSET_CONFIGS,
                         ids=["dinf_reflection", "dinf_kernel", "fbf"])
def test_fixed_coset_counts_match_coset_loop(data):
    # the class-equation counts against one conjugation per coset, at
    # every level, for probes including the identity and each element of H
    ctx = ExperimentContext(ExperimentConfig.from_json(data))
    assert {"1"} | {str(h) for h in ctx.h_elems} <= set(data["probe_words"])
    levels = ctx.chain.levels
    farber = farber_diagnostic(ctx.chain, ctx.probes)
    assert len(farber) == len(levels) * len(ctx.probes)
    for row in farber:
        level = levels[row["level"]]
        g = level.via.evaluate(ctx.group.word(row["word"]))
        assert row["count"] == fixed_coset_count_oracle(level, g), row
    rel = rel_farber_diagnostic(ctx.chain, ctx.h_elems, ctx.probes,
                                ctx.config.infinite_centralizers)
    assert len(rel) == len(farber) * len(ctx.h_elems)
    for row in rel:
        level = levels[row["level"]]
        g = level.via.evaluate(ctx.group.word(row["g"]))
        him = level.via.evaluate(ctx.group.word(row["h"]))
        assert row["value"] == Fraction(
            fixed_coset_count_oracle(level, g, him), level.index), row
    for level in levels:
        h_images = [level.via.evaluate(w) for w in ctx.h_elems]
        check_normalizes(level, h_images)
        for g in level.via.target.conjugacy_classes().representatives:
            for him in h_images:
                assert fixed_coset_count(level, g, him) == \
                    fixed_coset_count_oracle(level, g, him)


def test_run_dinf_records_and_report():
    records, report = run(dinf_config(char_convergence=0))
    assert [r.index for r in records] == [4, 8, 16]
    for r in records:
        assert r.error is None
        assert r.raw[(0, 0)] == 1 and r.raw[(1, 1)] == 1
        assert r.normalized[(1, 1)] == Fraction(1, r.index)
    seq = report["sequences"]["1,1"]
    assert seq["values"] == ["1/4", "1/8", "1/16"]
    assert seq["prediction"] == "0"
    # deviation sequences are non-increasing on the built-in example
    for key, entry in report["sequences"].items():
        devs = [abs(Fraction(v)) for v in entry["values"]]
        assert all(a >= b for a, b in zip(devs, devs[1:]))
    assert report["assumptions"]["normal_kernel_chain"]
    assert json.loads(json.dumps(report)) == report
    # induced-character convergence at the reflection: the observed value is
    # the reciprocal reflection-class size, 2/m for even m, decaying to 0
    rows = [r for r in report["char_convergence"] if r.get("word") == "b"]
    assert [round(r["deviation"], 6) for r in rows] == [1.0, 0.5, 0.25]


def test_char_convergence_matches_ind_finite():
    # the report evaluates the induced character at the probes only; the
    # oracle is the normalized trace of the induced representation there,
    # which reads chi through rho_H and the H images through the cosets
    from l2mult import OrdinaryCharacter, induced_rep, irreducible_rep
    fbf = ExperimentConfig.from_json({
        "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
                  "action": {"0": ["a'", "b'"]}},
        "complex": "tree_semidirect",
        "chain": {"template": "semidirect_mod", "base": 2, "depth": 3},
        "h_words": ["1", "c"], "infinite_centralizers": True,
        "probe_words": ["1", "a", "c", "ac", "abc"]})
    dinf = dinf_config(chain={"template": "dihedral",
                              "orders": [2, 4, 8, 16, 32]},
                       probe_words=["1", "a", "b", "ab", "aab"])
    for base in (fbf, dinf):
        ctx = ExperimentContext(base)
        for chi_idx, chi in enumerate(ctx.table.irreducibles):
            base.char_convergence = chi_idx
            rows = iter(run(base)[1]["char_convergence"])
            for level in ctx.chain.levels:
                q = level.via.target
                h_images = [level.via.evaluate(w) for w in ctx.h_elems]
                sub = q.subgroup(h_images)
                h_sub, to_local = sub.abstract_group()
                at = {to_local[im]: chi.value(h)
                      for h, im in enumerate(h_images)}
                on_sub = OrdinaryCharacter(h_sub, [
                    at[r] for r in h_sub.conjugacy_classes().representatives])
                rho = induced_rep(q, sub, irreducible_rep(h_sub, on_sub))
                for w in ctx.probes:
                    row = next(rows)
                    expect = rho.trace(level.via.evaluate(w)) / rho.dim
                    assert row["word"] == str(w)
                    assert abs(complex(*row["observed"]) - expect) < 1e-12


def test_char_convergence_computes_each_limit_once(monkeypatch):
    # the limit does not depend on the level: one induction with G's
    # i-function per probe
    calls = []
    induced_value = runner.induced_value

    def counted(i_value, g, pairs):
        if isinstance(i_value.__self__, BuiltinGroup):
            calls.append(str(g))
        return induced_value(i_value, g, pairs)
    monkeypatch.setattr(runner, "induced_value", counted)
    config = dinf_config(chain={"template": "dihedral_reflection",
                                "orders": [2, 4, 8]},
                         probe_words=["1", "a", "b"], char_convergence=1)
    _, report = run(config)
    assert calls == ["1", "a", "b"]
    assert [(row["level"], row["word"]) for row in report["char_convergence"]
            ] == [(n, w) for n in range(3) for w in ("1", "a", "b")]


def test_run_rose_abelianized_chain():
    # free group of rank 2 over its tree, abelianized-mod-2^n kernels:
    # normalized first Betti number (N+1)/N converges to the supplied limit 1
    cfg = ExperimentConfig.from_json({
        "group": {"family": "free", "rank": 2},
        "complex": "rose",
        "chain": {"template": "abelianized_mod", "base": 2, "depth": 3},
        "h_words": ["1"],
        "degrees": [0, 1],
        "b2": {"1": "1"},
        "infinite_centralizers": True,
        "probe_words": ["a", "aba'b'"],
    })
    records, report = run(cfg)
    for r in records:
        n = r.index
        assert r.betti[1] == n + 1
        assert r.normalized[(1, 0)] == Fraction(n + 1, n)
    assert [r.index for r in records] == [4, 16, 64]
    seq = report["sequences"]["1,0"]
    assert seq["prediction"] == "1"
    assert seq["final_deviation"] == pytest.approx(1 / 64)
    # commutators die in every abelian quotient: Farber fraction stays 1
    frac = {(row["level"], row["word"]): row["fraction"]
            for row in report["farber"]}
    assert all(frac[(lvl, "aba'b'")] == "1" for lvl in range(3))
    assert all(frac[(lvl, "a")] == "0" for lvl in range(3))


def test_semidirect_chain_with_rotation_action():
    # order-4 twist a -> b, b -> a^-1: the abelianized action matrix is not
    # symmetric, so the quotient-map relator checks pin down its orientation
    cfg = ExperimentConfig.from_json({
        "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:4",
                  "action": {"0": ["b", "a'"]}},
        "complex": "rose",       # placeholder; chain validation is the point
        "chain": {"template": "semidirect_mod", "base": 2, "depth": 2},
        "h_words": ["1"],
    })
    from l2mult.runner import build_chain, build_group
    from l2mult import validate_chain
    group = build_group(cfg.group)
    sigma, a = group.word("c"), group.word("a")
    assert sigma * a * sigma.inverse() == group.word("b")
    assert (sigma * sigma * a * sigma.inverse() * sigma.inverse()
            == group.word("a'"))
    chain = build_chain(cfg.chain, group)
    reports = validate_chain(chain)
    assert [r.index for r in reports] == [16, 64]
    level = chain.levels[1]
    assert level.via.evaluate(group.word("cac'")) == \
        level.via.evaluate(group.word("b"))


def test_run_partial_failure_records_errors():
    cfg = dinf_config(chain={"template": "dihedral_reflection",
                             "orders": [2, 4]})
    records, report = run(cfg)
    assert all(r.error is not None for r in records)
    assert all("NotFree" in r.error for r in records)


def test_run_level_records_collapsing_symmetry_group():
    # b maps to the identity of C2, so H = {1, b} collapses at the level
    ctx = ExperimentContext(dinf_config())
    c2 = cyclic_group(2)
    ctx.chain = QuotientChain([FiniteIndexSubgroup(
        QuotientMap(ctx.group, c2, [1, 0]), c2.subgroup([0]))])
    record = ctx.run_level(0)
    assert record.error == \
        "ComplexError: symmetry group collapses in the quotient"


def test_run_levels_cap():
    records, _ = run(dinf_config(), levels=2)
    assert len(records) == 2


def test_level_record_json_round_trip():
    records, _ = run(dinf_config(), levels=1)
    again = LevelRecord.from_json(records[0].to_json())
    assert again.to_json() == records[0].to_json()
    assert again.normalized == records[0].normalized


def test_emit_files(tmp_path):
    records, report = run(dinf_config(), levels=2)
    paths = emit(records, report, tmp_path, "both")
    csv_lines = paths[0].read_text().splitlines()
    assert csv_lines[0] == ("level,index,p,chi,raw,normalized,"
                            "normalized_decimal,prediction,deviation")
    assert len(csv_lines) == 1 + 2 * 4      # 2 levels x (2 degrees x 2 chis)
    data = json.loads(paths[1].read_text())
    assert data == report
    # empty record list gives a header-only CSV
    paths_empty = emit([], {"sequences": {}}, tmp_path / "empty", "csv")
    assert paths_empty[0].read_text().splitlines() == [csv_lines[0]]


def test_cli_commands(tmp_path, capsys):
    assert cli_main(["table", "cyclic:3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chi\\class")
    assert cli_main(["spectral", "1 + -1*a", "cyclic:6", "--kmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "fk_det" in out
    assert cli_main(["spectral", "2*1 + -1*a + -1*b", "abelian:2,2"]) == 0
    capsys.readouterr()
    assert cli_main(["spectral", "1 + -1*a", "dihedral:4"]) == 0
    capsys.readouterr()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dinf_config().to_json()))
    assert cli_main(["farber", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--format", "csv", "--levels", "2"]) == 0
    assert (tmp_path / "out" / "results.csv").exists()

    # config errors exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": {"family": "nope"},
                               "complex": "line_z", "chain": {}}))
    assert cli_main(["run", str(bad)]) == 1
    assert cli_main(["farber", str(tmp_path / "missing.json")]) == 1

    # partial failure exits 2
    failing = dinf_config(chain={"template": "dihedral_reflection",
                                 "orders": [2, 4]})
    fail_path = tmp_path / "fail.json"
    fail_path.write_text(json.dumps(failing.to_json()))
    assert cli_main(["run", str(fail_path), "--out",
                     str(tmp_path / "out2")]) == 2

    # an H that does not normalize a fiber is one error row of the
    # rel-Farber table in both commands, not a configuration error: <ts>
    # does not normalize <s> in D_4
    skew = dinf_config(chain={"template": "dihedral_reflection",
                              "orders": [4, 8]}, h_words=["1", "ab"])
    skew_path = tmp_path / "skew.json"
    skew_path.write_text(json.dumps(skew.to_json()))
    capsys.readouterr()
    error = "HNotNormalizing: level 0: H does not normalize the fiber"
    assert cli_main(["farber", str(skew_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-2:] == [
        "level\tg\th\tvalue\tlimit\tdeviation", error]
    assert cli_main(["run", str(skew_path), "--out",
                     str(tmp_path / "out3")]) == 2
    report = json.loads((tmp_path / "out3" / "report.json").read_text())
    assert report["rel_farber"] == [{"error": error}]


def test_cli_spectral_bad_input_prints_errors(capsys):
    # malformed specs and coefficients exit 1 with one error line; trivial
    # factors map each letter to its unit mod 1, the identity
    cases = {("1 + -1*a", "cyclic:x"): 1,
             ("1 + -1*a", "abelian:2,x"): 1,
             ("1 + -1*a", "cyclic:1"): 0,
             ("2*1 + -1*a + -1*b", "abelian:1,2"): 0,
             ("x*a", "cyclic:4"): 1,
             ("1/0*a", "cyclic:4"): 1,
             # A*A has coefficients past the float range
             ("1e200*a", "cyclic:2"): 1}
    for (matrix, quotient), code in cases.items():
        args = ["spectral", matrix, quotient, "--kmax", "1"]
        assert cli_main(args) == code, args
        err = capsys.readouterr().err
        assert err.startswith("error:") == (code == 1), args
        assert "Traceback" not in err, args


def test_cli_refuses_levels_and_kmax_below_one(tmp_path, capsys):
    # a level cap below 1 would write a report with no level, and kmax
    # below 1 would print no moment: both are one error line and exit 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dinf_data()))
    for levels in ("0", "-1"):
        out = tmp_path / f"out{levels}"
        assert cli_main(["run", str(cfg_path), "--out", str(out),
                         "--levels", levels]) == 1
        assert capsys.readouterr().err == \
            f"error: levels must be at least 1, got {levels}\n"
        assert not out.exists()
    for kmax in ("0", "-2"):
        assert cli_main(["spectral", "1", "cyclic:4", "--kmax", kmax]) == 1
        assert capsys.readouterr().err == \
            f"error: kmax must be at least 1, got {kmax}\n"


def test_cli_run_bad_configs_print_errors(tmp_path, capsys):
    # failures in and past config parsing: the H closure, the tree builder,
    # non-integer values where the context reads an int, an action on an
    # H-generator that does not exist, list fields of the wrong type,
    # infinite classes claimed for an H with a finite one, and malformed H
    # specs, each in a config that would run with H read some other way
    from suites import C4_INVERSION, C4_ROTATION, S3_PERMUTING

    def with_h(config, h, action=None):
        group = dict(config["group"], h=h)
        if action is not None:
            group["action"] = action
        return dict(config, group=group)
    bad_configs = {
        "h_closure": dinf_config(h_words=["a"]).to_json(),
        "tree_action": {
            "group": {"family": "free_by_finite", "rank": 2,
                      "h": "cyclic:2", "action": {"0": ["b", "a"]}},
            "complex": "tree_semidirect",
            "chain": {"template": "semidirect_mod", "base": 2, "depth": 2},
        },
        "irreducible_x": dinf_config(irreducibles=["x"]).to_json(),
        "depth_x": {
            "group": {"family": "free_abelian", "rank": 1},
            "complex": "line_z",
            "chain": {"template": "cyclic_mod", "depth": "x"},
        },
        "action_key": {
            "group": {"family": "free_by_finite", "rank": 2,
                      "h": "cyclic:2", "action": {"5": ["a'", "b'"]}},
            "complex": "tree_semidirect",
            "chain": {"template": "semidirect_mod", "base": 2, "depth": 2},
        },
        "cyclic_base_1": {
            "group": {"family": "free_abelian", "rank": 1},
            "complex": "line_z",
            "chain": {"template": "cyclic_mod", "base": 1},
        },
        "abelianized_base_1": {
            "group": {"family": "free", "rank": 2},
            "complex": "rose",
            "chain": {"template": "abelianized_mod", "base": 1},
        },
        "cyclic_depth_0": {
            "group": {"family": "free_abelian", "rank": 1},
            "complex": "line_z",
            "chain": {"template": "cyclic_mod", "depth": 0},
        },
        "dihedral_order_0": dinf_config(
            chain={"template": "dihedral", "orders": [0, 2]}).to_json(),
        "char_convergence_9": dinf_config(char_convergence=9).to_json(),
        "char_convergence_x": dinf_config(char_convergence="x").to_json(),
        "group_string": {"group": "free", "complex": "rose",
                         "chain": {"template": "abelianized_mod"}},
        "chain_string": {"group": {"family": "free_abelian", "rank": 1},
                         "complex": "line_z", "chain": "cyclic_mod"},
        "semidirect_base_1": {
            "group": {"family": "free_by_finite", "rank": 2,
                      "h": "cyclic:2", "action": {"0": ["a'", "b'"]}},
            "complex": "tree_semidirect",
            "chain": {"template": "semidirect_mod", "base": 1, "depth": 2},
        },
        # list fields that are not lists, or hold something other than words
        "irreducibles_int": dinf_data(irreducibles=5),
        "h_words_int": dinf_data(h_words=5),
        "probe_words_int": dinf_data(probe_words=5),
        "degrees_int": dinf_data(degrees=5),
        "b2_list": dinf_data(b2=[1]),
        "h_words_int_item": dinf_data(h_words=[5]),
        "probe_words_int_item": dinf_data(probe_words=[5]),
        # JSON booleans are no integers or fractions, strings no booleans,
        # and an out path is a string
        "infinite_centralizers_string": dinf_data(infinite_centralizers="no"),
        "normalize_per_h_string": dinf_data(normalize_per_h="no"),
        "degrees_bool": dinf_data(degrees=[True]),
        "char_convergence_bool": dinf_data(char_convergence=True),
        "orders_bool": dinf_data(chain={"template": "dihedral",
                                        "orders": [True, 2]}),
        "b2_bool": dinf_data(b2={"1": True}),
        # a number with a fractional part is no integer either
        "degrees_float": dinf_data(degrees=[1.7]),
        "char_convergence_float": dinf_data(char_convergence=0.9),
        "orders_float": dinf_data(chain={"template": "dihedral",
                                         "orders": [2.5, 4]}),
        "out_int": dinf_data(out=5),
        # c^2 has a finite class, so infinite classes for H do not hold
        "c4_inversion_flag": dict(C4_INVERSION, infinite_centralizers=True),
        "h_perm_int": with_h(C4_INVERSION, "perm:5"),
        "h_perm_int_item": with_h(C4_INVERSION, "perm:[5]"),
        "h_perm_null": with_h(C4_INVERSION, "perm:null"),
        "h_sym_extra_field": with_h(S3_PERMUTING, "sym:3:4"),
        "h_cyclic_extra_field": with_h(C4_ROTATION, "cyclic:4:3"),
        "h_sym_negative": with_h(C4_INVERSION, "sym:-1", action={}),
    }
    for name, data in bad_configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--out",
                         str(tmp_path / name)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error:"), name
        assert "Traceback" not in err, name
        if name == "semidirect_base_1":
            assert err == "error: chain base must be at least 2, got 1\n"
        if name == "c4_inversion_flag":
            assert err == "error: infinite_centralizers does not hold: " \
                "cc has a finite conjugacy class\n"
        if name == "h_sym_negative":
            assert err == "error: degree must be non-negative, got -1\n"
    assert cli_main(["table", "perm:[5]"]) == 1
    assert capsys.readouterr().err == "error: perm needs a JSON list of " \
        "permutations, each a list of integers, got '[5]'\n"
    # the out path is checked with the config, not where it is first used
    with pytest.raises(ConfigInvalid, match="out must be a path"):
        ExperimentConfig.from_json(bad_configs["out_int"])


_VERTEX = [{"label": "v"}]
# inline complex specs over Z; all but the last two have the wrong JSON
# shape, which cw_from_json refuses with ConfigInvalid
BAD_COMPLEX_SPECS = {
    "cells_int": {"cells": 5},
    "cells_list": {"cells": []},
    "orbits_int": {"cells": {"0": 5}},
    "record_int": {"cells": {"0": [5]}},
    "degree_x": {"cells": {"x": []}},
    "stabilizer_int": {"cells": {"0": [{"stabilizer": 5}]}},
    "stabilizer_string": {"cells": {"0": [{"stabilizer": "1"}]}},
    "stabilizer_word_int": {"cells": {"0": [{"stabilizer": [5]}]}},
    "signs_int": {"cells": {"0": [{"signs": 5}]}},
    "signs_bool": {"cells": {"0": [{"stabilizer": ["1"], "signs": [True]}]}},
    "boundaries_int": {"cells": {"0": _VERTEX}, "boundaries": 5},
    "boundary_int": {"cells": {"0": _VERTEX}, "boundaries": {"1": 5}},
    "boundary_row_int": {"cells": {"0": _VERTEX}, "boundaries": {"1": [5]}},
    "boundary_entry_int": {"cells": {"0": _VERTEX},
                           "boundaries": {"1": [[5]]}},
    "boundary_degree_x": {"cells": {"0": _VERTEX},
                          "boundaries": {"x": [["1"]]}},
    # right shape, wrong content: refused by OrbitCell and Word parsing
    "signs_strings": {"cells": {"0": [{"signs": ["a"]}]}},
    "stabilizer_unknown_letter": {"cells": {"0": [{"stabilizer": ["zz"]}]}},
}


def test_cli_run_malformed_complex_specs_print_errors(tmp_path, capsys,
                                                      monkeypatch):
    # each is refused with exit 1 and one "error: ..." line; a complex
    # "file" that is not a path is refused before anything is opened
    opened = []
    monkeypatch.setattr(runner, "open", lambda *a: opened.append(a),
                        raising=False)
    specs = dict(BAD_COMPLEX_SPECS, file_int={"file": 5})
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "group": {"family": "free_abelian", "rank": 1},
            "complex": spec,
            "chain": {"template": "cyclic_mod", "depth": 2}}))
        assert cli_main(["run", str(path), "--out",
                         str(tmp_path / name)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name
        shape_error = name not in ("signs_strings",
                                   "stabilizer_unknown_letter")
        if shape_error:
            with pytest.raises(ConfigInvalid):
                runner.build_complex(spec, FreeAbelianGroup(1))
    assert opened == []


# One config per chain template.  tests/data/reports.json holds what each
# emits, timings removed, as generated before chains derived their connecting
# maps; a refactor of the run path must leave it unchanged.
GOLDEN = Path(__file__).resolve().parent / "data" / "reports.json"
GOLDEN_CONFIGS = {
    "fbf_semidirect_mod": {
        "group": {"family": "free_by_finite", "rank": 2, "h": "cyclic:2",
                  "action": {"0": ["a'", "b'"]}},
        "complex": "tree_semidirect",
        "chain": {"template": "semidirect_mod", "base": 2, "depth": 4},
        "h_words": ["1", "c"], "degrees": [0, 1], "b2": {"1": "1"},
        "infinite_centralizers": True, "normalize_per_h": True,
        "probe_words": ["a", "c"]},
    "dinf_dihedral_reflection": {
        "group": {"family": "dihedral_infinite"},
        "complex": "line_dinf",
        "chain": {"template": "dihedral_reflection",
                  "orders": [2, 4, 8, 16, 32]},
        "h_words": ["1", "b"], "degrees": [0, 1],
        "b2": {"0": "0", "1": "0"}, "infinite_centralizers": True,
        "probe_words": ["1", "a", "b", "ab"], "char_convergence": 1},
    "rose_abelianized_mod": {
        "group": {"family": "free", "rank": 2},
        "complex": "rose",
        "chain": {"template": "abelianized_mod", "base": 2, "depth": 3},
        "h_words": ["1"], "degrees": [0, 1], "b2": {"1": "1"},
        "infinite_centralizers": True, "probe_words": ["a", "aba'b'"]},
    "z_cyclic_mod": {
        "group": {"family": "free_abelian", "rank": 1},
        "complex": "line_z",
        "chain": {"template": "cyclic_mod", "base": 3, "depth": 4},
        "h_words": ["1"], "degrees": [0, 1], "b2": {"0": "0", "1": "0"},
        "infinite_centralizers": True, "probe_words": ["a", "aaa"]},
}


def emitted_without_timings(data: dict, out_dir) -> dict:
    """report.json minus the level timings, and results.csv, as ``emit``
    writes them for the config ``data``."""
    records, report = run(ExperimentConfig.from_json(data))
    csv_path, json_path = emit(records, report, out_dir)
    written = json.loads(json_path.read_text())
    for level in written["levels"]:
        del level["seconds"]
    return {"report": written, "csv": csv_path.read_text()}


def test_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(GOLDEN_CONFIGS)
    for name, data in GOLDEN_CONFIGS.items():
        emitted = emitted_without_timings(data, tmp_path / name)
        assert emitted == golden[name], name


# In a fresh interpreter: the golden fbf run, a crosscheck that realizes a
# degree-2 irreducible (H = S_3, the stabilizer of a point of S_4, on the
# Cayley complex of S_4) and the table of S_4.  Prints the numpy.random
# modules they loaded.
RUN_PATH_SCRIPT = """
import json, sys
from fractions import Fraction
from pathlib import Path
from l2mult import (ExperimentConfig, FiniteAlgebraMatrix, character_table,
                    emit, finite_group_crosscheck, run, symmetric_group)
config, out_dir = json.loads(sys.argv[1]), Path(sys.argv[2])
emit(*run(ExperimentConfig.from_json(config)), out_dir)
s4 = symmetric_group(4)
cols = [{0: Fraction(1), g: Fraction(-1)} for g in s4.generators]
cayley = {1: FiniteAlgebraMatrix(s4, 1, len(cols),
                                 {(0, j): c for j, c in enumerate(cols)})}
sub = s4.subgroup([x for x in range(s4.order) if s4.rows[x, 3] == 3])
table = character_table(sub.abstract_group()[0])
assert sorted(ch.degree for ch in table.irreducibles) == [1, 1, 2]
assert finite_group_crosscheck(s4, sub, cayley, table)
character_table(s4)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:2] == ["numpy", "random"])))
"""


def test_run_path_does_not_load_numpy_random(tmp_path):
    # a subprocess, because other tests import numpy.random into pytest's
    # interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PATH_SCRIPT,
         json.dumps(GOLDEN_CONFIGS["fbf_semidirect_mod"]), str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()
    loaded = json.loads(proc.stdout)
    assert "numpy.random" not in loaded, loaded


# stdout of `l2mult spectral` for three quotients, written before the two
# group-ring matrix classes were merged: the whole CLI path from_strings,
# push_matrix, adjoint() @, operator_matrix and moments_check
SPECTRAL_GOLDEN = Path(__file__).resolve().parent / "data" / "spectral_cli.json"


def spectral_output(text: str):
    """(measure, fk_det, moment rows) read from `l2mult spectral` stdout."""
    lines = text.splitlines()
    measure = json.loads(lines[0])
    name, det = lines[1].split(" = ")
    assert name == "fk_det"
    moments = []
    for line in lines[2:]:
        k, rest = line.removeprefix("moment ").split(": ")
        words = rest.split()
        assert words[0::2] == ["measure", "trace", "delta"]
        moments.append((int(k), [float(x) for x in words[1::2]]))
    return measure, float(det), moments


def test_cli_spectral_matches_golden(capsys):
    # multiplicities and normalizers exactly; atom values, fk_det and the
    # moment lines within 1e-9, which BLAS rounding stays far inside
    golden = json.loads(SPECTRAL_GOLDEN.read_text())
    assert sorted(golden) == ["abelian3x4", "cyclic8", "dihedral4"]
    for name, case in golden.items():
        assert cli_main(["spectral", case["matrix"], case["quotient"]]) == 0
        mu, det, moments = spectral_output(capsys.readouterr().out)
        mu_0, det_0, moments_0 = spectral_output(case["stdout"])
        assert (mu["normalizer"], mu["matrix_size"]) == \
            (mu_0["normalizer"], mu_0["matrix_size"]), name
        assert [m for _, m in mu["atoms"]] == [m for _, m in mu_0["atoms"]], name
        assert all(abs(v - v_0) < 1e-9 for (v, _), (v_0, _)
                   in zip(mu["atoms"], mu_0["atoms"])), name
        assert abs(det - det_0) < 1e-9, name
        assert [k for k, _ in moments] == [k for k, _ in moments_0], name
        assert all(abs(x - x_0) < 1e-9
                   for (_, row), (_, row_0) in zip(moments, moments_0)
                   for x, x_0 in zip(row, row_0)), name


def _two_levels(data: dict) -> dict:
    """A golden config cut to depth 2, or to its first two orders."""
    chain = dict(data["chain"])
    if "orders" in chain:
        chain["orders"] = chain["orders"][:2]
    else:
        chain["depth"] = 2
    return dict(data, chain=chain)


@pytest.mark.parametrize("char_convergence", [None, 0])
@pytest.mark.parametrize("infinite_centralizers", [True, False])
@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_run_golden_variants_write_a_report(tmp_path, capsys, name,
                                            infinite_centralizers,
                                            char_convergence):
    # every level is a record or a recorded error, and every character
    # convergence row has its observed value and its limit, with or without
    # asserted infinite centralizers
    data = dict(_two_levels(GOLDEN_CONFIGS[name]),
                infinite_centralizers=infinite_centralizers,
                char_convergence=char_convergence)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    code = cli_main(["run", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rows = report["char_convergence"]
    assert len(rows) == (0 if char_convergence is None
                         else 2 * len(data["probe_words"]))
    for row in rows:
        assert row["word"] in data["probe_words"]
        assert "error" not in row and len(row["observed"]) == 2


# Config mutations: values of the wrong type for any field, and for some
# fields values out of range or of another family, H or action
WRONG_TYPES = [None, "x", 3, -1, 2.5, True, [], [1, "a"], {}, {"0": 1}]
OUT_OF_RANGE = {
    ("group", "family"): ["free", "free_abelian", "dihedral_infinite",
                          "free_by_finite", "bogus"],
    ("group", "rank"): [0, -1, 3],
    ("group", "h"): ["cyclic:3", "cyclic:1", "cyclic:0", "cyclic:-2",
                     "dihedral:2", "abelian:2,2", "sym:3", "perm:[[1,0]]",
                     "perm:x", "perm:[]", "cyclic:x", "abelian:", "bogus"],
    ("group", "action"): [{"0": ["a", "b"]}, {"0": ["b", "a"]},
                          {"0": ["a'"]}, {"0": ["x", "y"]}, {"0": "ab"},
                          {"0": [5, 6]}, {"0": None}, [["a'", "b'"]],
                          {"0": ["a'", "b'"], "1": ["a", "b"]},
                          {"x": ["a'", "b'"]}, {"0": ["c", "b"]}],
    ("chain", "base"): [0, 1, -2],
    ("chain", "depth"): [0, -1],
    ("chain", "orders"): [[-2, 4], [0], [3, 4], [4, 2], [2, "x"]],
    ("chain", "template"): ["cyclic_mod", "abelianized_mod", "dihedral",
                            "semidirect_mod", "bogus"],
    ("degrees",): [[-1], [2], [0, 0]],
    ("irreducibles",): [[-1], [99], "none"],
    ("char_convergence",): [-1, 99, 0, 1, None],
    ("infinite_centralizers",): [True, False],
    ("b2",): [{"-1": "1"}, {"x": "1"}, {"1": "x"}, {"1": None}],
    ("h_words",): [["1", "x"], ["1", "a"], ["c"]],
}
DROP = object()


def _field_paths(data: dict) -> list[tuple]:
    return [(k,) for k in data] + [(k, k2) for k in ("group", "chain")
                                   if isinstance(data.get(k), dict)
                                   for k2 in data[k]]


def _mutate(data: dict, path: tuple, value) -> None:
    target = data
    for key in path[:-1]:
        if not isinstance(target.get(key), dict):
            target[key] = {}
        target = target[key]
    if value is DROP:
        target.pop(path[-1], None)
    else:
        target[path[-1]] = value


def config_mutants(rng, count: int):
    """``count`` (label, config) pairs: a golden config at depth 2 with one
    or two fields dropped, given a value of the wrong type, or given a value
    out of range or of another family, H or action."""
    for _ in range(count):
        name = rng.choice(sorted(GOLDEN_CONFIGS))
        data = copy.deepcopy(_two_levels(GOLDEN_CONFIGS[name]))
        label = [name]
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(["drop", "type", "range"])
            if kind == "range":
                path = rng.choice(sorted(OUT_OF_RANGE))
                value = rng.choice(OUT_OF_RANGE[path])
            else:
                path = rng.choice(_field_paths(data))
                value = DROP if kind == "drop" else rng.choice(WRONG_TYPES)
            _mutate(data, path, value if value is DROP
                    else copy.deepcopy(value))
            label.append(".".join(path) + ("" if value is DROP
                                           else f"={value!r}"))
        yield " ".join(label), data


def test_cli_run_mutated_configs_never_crash(tmp_path, capsys):
    # each mutant writes a report whose levels are records or recorded level
    # errors (exit 0, or 2 when a level failed), or is refused with one
    # "error: ..." line (exit 1); a library exception escaping cli.main
    # fails the test
    path = tmp_path / "cfg.json"
    codes = set()
    for i, (label, data) in enumerate(config_mutants(make_rng(60), 300)):
        path.write_text(json.dumps(data))
        out = tmp_path / str(i)
        code = cli_main(["run", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        codes.add(code)
        assert "Traceback" not in err, label
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, label
            continue
        levels = json.loads((out / "report.json").read_text())["levels"]
        assert [lv["level"] for lv in levels] == list(range(len(levels)))
        assert levels, label
        failed = [lv["error"] for lv in levels if lv["error"] is not None]
        assert code == (2 if failed else 0), label
        assert all(isinstance(e, str) and e for e in failed), label
    assert codes == {0, 1, 2}
