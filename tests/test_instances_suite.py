"""Instance generators, JSON serialization, the check suite, and the CLI."""

import dataclasses
import importlib
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import addcomb.cli as cli_mod
import addcomb.covering as covering_mod
import addcomb.instances as instances_mod
import addcomb.suite as suite_mod
from addcomb import (
    CHECK_NAMES,
    BudgetError,
    CyclicGroup,
    GSet,
    IntegerWindow,
    NotApplicable,
    SuiteConfig,
    TorsionGroup,
    canonical_affine_form,
    difference_set,
    dilate,
    dump_instances,
    dumps,
    exhaustive_sets,
    gset_from_obj,
    gset_to_obj,
    lev_interval,
    load_instances,
    parse_elements,
    parse_group,
    parse_shape,
    progression,
    random_sets,
    round_sig,
    run_suite,
    spectrum,
    subspace_coset,
    to_jsonable,
    translate,
    union_progressions,
)
from addcomb.cli import main
from oracles import brute_canonical_affine_form

# the package re-exports the function rectify under the submodule's name
rectify_mod = importlib.import_module("addcomb.rectify")


class TestExhaustive:
    def test_count_z11_up_to_3(self):
        sets = list(exhaustive_sets(CyclicGroup(11), 3))
        assert len(sets) == 11 + 55 + 165

    def test_sizes_ascend(self):
        sizes = [len(s) for s in exhaustive_sets(CyclicGroup(5), 3)]
        assert sizes == sorted(sizes)

    def test_torsion_pool(self):
        sets = list(exhaustive_sets(TorsionGroup(2, 2), 1))
        assert len(sets) == 4

    def test_normalized_yields_canonical_reps_only(self):
        sets = list(exhaustive_sets(CyclicGroup(7), 2, normalize=True))
        assert all(s == canonical_affine_form(s) for s in sets)
        # 7 singletons collapse to {0}; all pairs collapse to {0,1}
        assert len(sets) == 2

    @pytest.mark.parametrize("N", range(1, 25))
    def test_normalized_sets_are_the_oracle_filtered_sets(self, N):
        """For every k <= 4: the sets of exhaustive_sets(g, k) the oracle finds canonical, in their order."""
        g = CyclicGroup(N)
        canonical = [A for A in exhaustive_sets(g, 4) if brute_canonical_affine_form(A.elements, N) == A.elements]
        for k in range(1, 5):
            assert list(exhaustive_sets(g, k, normalize=True)) == [A for A in canonical if len(A) <= k]

    def test_normalization_takes_one_kernel_call_per_size(self, monkeypatch):
        calls = []
        real = instances_mod._canonical_rows
        monkeypatch.setattr(instances_mod, "_canonical_rows", lambda rows, N: calls.append(rows.shape) or real(rows, N))
        assert len(list(exhaustive_sets(CyclicGroup(17), 4, normalize=True))) == 16
        # the candidates of size s are the sets through 0: (0,) + (s-1)-subsets of 1..16
        assert calls == [(1, 1), (16, 2), (120, 3), (560, 4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(exhaustive_sets(CyclicGroup(5), 0))
        with pytest.raises(ValueError):
            list(exhaustive_sets(TorsionGroup(2, 2), 2, normalize=True))


class TestCanonicalAffineForm:
    def test_interval_is_canonical(self):
        A = GSet(CyclicGroup(7), [0, 1, 2])
        assert canonical_affine_form(A) == A

    def test_orbit_invariance(self):
        g = CyclicGroup(13)
        A = GSet(g, [0, 1, 5])
        for lam in (2, 5, 12):
            moved = translate(dilate(A, lam), 7)
            assert canonical_affine_form(moved) == canonical_affine_form(A)

    def test_singleton_maps_to_zero(self):
        A = GSet(CyclicGroup(11), [8])
        assert canonical_affine_form(A).elements == (0,)

    def test_window_rejected(self):
        with pytest.raises(ValueError):
            canonical_affine_form(GSet(IntegerWindow(0, 5), [1]))

    def test_z1_is_one_orbit(self):
        # the only unit of Z/1 is 0, which is also 1
        assert canonical_affine_form(GSet(CyclicGroup(1), [0])).elements == (0,)
        assert [A.elements for A in exhaustive_sets(CyclicGroup(1), 3, normalize=True)] == [(0,)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda N: st.tuples(st.just(N), st.lists(st.integers(0, N - 1), max_size=5, unique=True))
    ))
    @example((1, []))
    @example((1, [0]))
    @example((2, [1]))
    @example((4, [1, 3]))
    @example((4, [0, 1, 2, 3]))
    @example((36, [5, 11, 20, 27, 35]))
    @example((37, [0, 6, 14, 15, 30]))
    def test_matches_the_oracle(self, case):
        N, idx = case
        A = GSet(CyclicGroup(N), idx)
        assert canonical_affine_form(A).elements == brute_canonical_affine_form(A.elements, N)


class TestRandomSets:
    def test_deterministic(self):
        a = random_sets(CyclicGroup(101), 8, 100, seed=7)
        b = random_sets(CyclicGroup(101), 8, 100, seed=7)
        assert a == b
        assert len(a) == 100
        assert all(len(s) == 8 for s in a)

    def test_seed_matters(self):
        a = random_sets(CyclicGroup(101), 8, 20, seed=1)
        b = random_sets(CyclicGroup(101), 8, 20, seed=2)
        assert a != b

    def test_torsion_sampling(self):
        sets = random_sets(TorsionGroup(2, 4), 5, 10, seed=0)
        assert all(len(s) == 5 for s in sets)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            random_sets(CyclicGroup(5), 6, 1, seed=0)

    def test_negative_count_rejected(self, capsys):
        with pytest.raises(ValueError, match="count"):
            random_sets(CyclicGroup(5), 2, -3, seed=0)
        assert main(["verify", "--group", "cyclic:5", "--shape", "random:2:-3"]) == 2
        assert "count" in capsys.readouterr().err


class TestBuilders:
    def test_progression(self):
        P = progression(CyclicGroup(101), 0, 5, 5)
        assert P.elements == (0, 5, 10, 15, 20)

    def test_progression_wraps(self):
        P = progression(CyclicGroup(7), 5, 3, 4)
        assert set(P.elements) == {5, 1, 4, 0}

    def test_zero_step_collapses(self):
        P = progression(CyclicGroup(11), 3, 0, 6)
        assert P.elements == (3,)

    def test_union(self):
        U = union_progressions(CyclicGroup(50), [(0, 1, 3), (20, 2, 3)])
        assert set(U.elements) == {0, 1, 2, 20, 22, 24}

    def test_coset(self):
        g = TorsionGroup(2, 3)
        C = subspace_coset(g, [(1, 0, 0)])
        assert set(C.elements) == {(0, 0, 0), (1, 0, 0)}

    def test_validation(self):
        with pytest.raises(ValueError):
            progression(CyclicGroup(7), 0, 1, 0)
        with pytest.raises(ValueError):
            union_progressions(CyclicGroup(7), [])


class TestParsers:
    def test_groups(self):
        assert parse_group("cyclic:101") == CyclicGroup(101)
        assert parse_group("window:-5:9") == IntegerWindow(-5, 9)
        assert parse_group("torsion:2:3") == TorsionGroup(2, 3)

    def test_bad_groups(self):
        for spec in ("cyclic", "cyclic:x", "ring:5", "window:1", ""):
            with pytest.raises(ValueError):
                parse_group(spec)

    def test_elements(self):
        A = parse_elements("0, 1,3", CyclicGroup(11))
        assert A.elements == (0, 1, 3)
        B = parse_elements("0,0,1;1,0,1", TorsionGroup(2, 3))
        assert set(B.elements) == {(0, 0, 1), (1, 0, 1)}
        with pytest.raises(ValueError):
            parse_elements("  ", CyclicGroup(11))

    @pytest.mark.parametrize("group, spec", [
        (CyclicGroup(11), " 0, 1,3 "),
        (CyclicGroup(11), "4 ,-2"),
        (CyclicGroup(11), "0,x"),
        (CyclicGroup(11), "0,,1"),
        (CyclicGroup(11), "0;1"),
        (IntegerWindow(-5, 9), "-5,9"),
        (IntegerWindow(-5, 9), "10"),
        (TorsionGroup(2, 3), "0,0,1;1,0,1"),
        (TorsionGroup(2, 3), "0,0;1,0,1"),
        (TorsionGroup(3, 2), "1,y"),
        (TorsionGroup(3, 2), "1,2;"),
    ], ids=repr)
    def test_elements_follow_the_written_grammar(self, group, spec):
        # cyclic and window elements are ','-separated ints; torsion elements
        # are ';'-separated tuples of ','-separated ints
        def written():
            if group.kind == "torsion":
                return GSet(group, [tuple(int(c) for c in chunk.split(",")) for chunk in spec.strip().split(";")])
            return GSet(group, [int(c) for c in spec.strip().split(",")])

        def outcome(parse):
            try:
                return parse().elements
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(lambda: parse_elements(spec, group)) == outcome(written)

    def test_shapes(self):
        g = CyclicGroup(11)
        assert len(list(parse_shape("exhaustive:2", g))) == 11 + 55
        rand = list(parse_shape("random:3:5", g, seed=9))
        assert rand == random_sets(g, 3, 5, seed=9)
        prog = list(parse_shape("progression:0:2:4", g))
        assert prog[0].elements == (0, 2, 4, 6)
        union = list(parse_shape("union:0:1:2;5:1:2", g))
        assert set(union[0].elements) == {0, 1, 5, 6}
        coset = list(parse_shape("coset:1,0", TorsionGroup(2, 2)))
        assert set(coset[0].elements) == {(0, 0), (1, 0)}

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            list(parse_shape("mystery:3", CyclicGroup(7)))
        with pytest.raises(ValueError):
            list(parse_shape("coset:1,0", CyclicGroup(7)))

    @pytest.mark.parametrize("spec, form", [
        ("random:8", "random:<size>:<count>"),
        ("progression:0:1", "progression:<start>:<step>:<length>"),
        ("union:0:1:2;3", "union:<a:d:l>;<a:d:l>..."),
    ])
    def test_a_shape_with_too_few_fields_names_its_form(self, capsys, spec, form):
        message = f"bad shape {spec!r}: expected {form}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_shape(spec, CyclicGroup(7))
        assert main(["enumerate", "--group", "cyclic:7", "--shape", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("group, spec, form", [
        ("cyclic:7", "random:a:5", "random:<size>:<count>"),
        ("cyclic:7", "random:3:1.5", "random:<size>:<count>"),
        ("cyclic:7", "exhaustive:x", "exhaustive:<max_size>[:normalize]"),
        ("cyclic:7", "progression:0:1:z", "progression:<start>:<step>:<length>"),
        ("cyclic:7", "progression:a:1:2", "progression:<start>:<step>:<length>"),
        ("cyclic:7", "union:0:1:2;x:1:1", "union:<a:d:l>;<a:d:l>..."),
        ("torsion:3:2", "progression:0,1:1,y:3", "progression:<start>:<step>:<length>"),
        ("torsion:3:2", "coset:1,0;0,q", "coset:<basis elements, ';'-separated>"),
    ])
    def test_a_shape_field_that_is_not_a_number_names_its_form(self, capsys, group, spec, form):
        message = f"bad shape {spec!r}: expected {form}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_shape(spec, parse_group(group))
        assert main(["enumerate", "--group", group, "--shape", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


class TestSerialize:
    def test_gset_round_trip(self):
        for A in (
            GSet(CyclicGroup(11), [0, 1, 3]),
            GSet(IntegerWindow(-4, 9), [-2, 0, 7]),
            GSet(TorsionGroup(3, 2), [(0, 0), (1, 2)]),
        ):
            assert gset_from_obj(gset_to_obj(A)) == A

    def test_file_round_trip(self, tmp_path):
        sets = [GSet(CyclicGroup(7), [0, 2]), GSet(TorsionGroup(2, 2), [(1, 1)])]
        path = tmp_path / "instances.json"
        dump_instances(sets, path)
        assert load_instances(path) == sets

    def test_single_object_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(gset_to_obj(GSet(CyclicGroup(5), [1]))))
        assert load_instances(path) == [GSet(CyclicGroup(5), [1])]

    def test_round_sig(self):
        assert round_sig(1 / 3) == 0.333333333333
        assert round_sig(0.0) == 0.0
        assert round_sig(123456.7890123456) == 123456.789012

    def test_to_jsonable_values(self):
        import numpy as np

        obj = to_jsonable(
            {
                "frac": Fraction(9, 10007),
                "arr": np.array([1.0, 2.0]),
                "npint": np.int64(5),
                "set": {3, 1, 2},
                "z": complex(1, -1),
            }
        )
        assert obj["frac"] == "9/10007"
        assert obj["arr"] == [1.0, 2.0]
        assert obj["npint"] == 5
        assert obj["set"] == [1, 2, 3]
        assert obj["z"] == [1.0, -1.0]

    def test_to_jsonable_rejects_unknown(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_dumps_shape(self):
        text = dumps({"a": 1})
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}


# each library call a suite check makes, with the checks that make it
SUITE_TARGETS = [
    ("covering_certificate", ("inc", "incm", "estjcov", "estecov")),
    ("spectrum", ("parseval",)),
    ("moment_chain", ("moment",)),
    ("gap_cover", ("cover",)),
    ("lev_interval", ("lev",)),
    ("diam_from_spectrum", ("diam",)),
    ("rectify", ("iso",)),
    ("torsion_cover", ("torsion",)),
]


class TestSuite:
    def test_all_checks_pass_exhaustive_z13(self):
        instances = list(exhaustive_sets(CyclicGroup(13), 3))
        report = run_suite(instances)
        assert report.ok
        assert report.instance_count == len(instances)
        assert report.suite == ",".join(CHECK_NAMES)
        assert report.counterexamples == []
        for name in ("inc", "incm", "parseval", "moment", "lev", "diam"):
            assert report.tallies[name].failed == 0
            assert report.tallies[name].passed > 0
        # no torsion instances in a cyclic stream
        assert report.tallies["torsion"].skipped == len(instances)
        assert report.elapsed is None

    def test_torsion_stream(self):
        instances = list(exhaustive_sets(TorsionGroup(2, 3), 3))
        report = run_suite(instances, SuiteConfig(checks=("torsion", "parseval")))
        assert report.ok
        assert report.tallies["torsion"].passed == len(instances)

    def test_selection_keeps_canonical_order(self):
        report = run_suite(
            [GSet(CyclicGroup(11), [0, 1])],
            SuiteConfig(checks=("moment", "inc")),
        )
        assert report.suite == "inc,moment"
        assert set(report.tallies) == {"inc", "moment"}

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], SuiteConfig(checks=("inc", "bogus")))

    def test_timing_toggle(self):
        inst = [GSet(CyclicGroup(11), [0, 1])]
        with_timing = run_suite(inst, SuiteConfig(checks=("inc",), include_timing=True))
        assert with_timing.elapsed is not None and with_timing.elapsed >= 0

    def test_reports_are_byte_identical(self):
        instances = list(exhaustive_sets(CyclicGroup(11), 2))
        cfg = SuiteConfig(checks=("inc", "incm", "parseval", "jbound"))
        a = dumps(run_suite(instances, cfg))
        b = dumps(run_suite(instances, cfg))
        assert a == b

    def test_corrupted_check_is_caught(self, monkeypatch):
        def broken(A):
            return "fail", {"planted": True}

        monkeypatch.setitem(suite_mod.INSTANCE_CHECKS, "inc", broken)
        report = run_suite([GSet(CyclicGroup(11), [0, 1])], SuiteConfig(checks=("inc",)))
        assert not report.ok
        assert report.tallies["inc"].failed == 1
        ce = report.counterexamples[0]
        assert ce["check"] == "inc"
        assert ce["index"] == 0
        assert ce["detail"] == {"planted": True}
        assert gset_from_obj(ce["instance"]).elements == (0, 1)

    def test_jbound_reads_the_k1_count_claim(self, monkeypatch):
        real = suite_mod.j_bound_report
        monkeypatch.setattr(suite_mod, "j_bound_report", lambda k, m: dataclasses.replace(real(k, m), count=2) if k == 1 else real(k, m))
        report = run_suite([], SuiteConfig(checks=("jbound",)))
        # J(1, m) for m = 0, 1, ..., _J_M_MAX, all read from the report's count claim
        assert report.tallies["jbound"].failed == suite_mod._J_M_MAX + 1
        assert {(ce["k"], ce["count"]) for ce in report.counterexamples} == {(1, 2)}

    def test_jbound_reads_the_m0_count_claim(self, monkeypatch):
        assert dataclasses.astuple(run_suite([], SuiteConfig(checks=("jbound",))).tallies["jbound"]) == (38, 0, 0)
        real = suite_mod.j_bound_report
        monkeypatch.setattr(suite_mod, "j_bound_report", lambda k, m: dataclasses.replace(real(k, m), count=2) if m == 0 else real(k, m))
        report = run_suite([], SuiteConfig(checks=("jbound",)))
        assert report.tallies["jbound"].failed == suite_mod._J_K_MAX
        assert {(ce["m"], ce["count"]) for ce in report.counterexamples} == {(0, 2)}

    def test_certificate_error_fails_incm(self, monkeypatch):
        # a RuntimeError is a library bug, not "not applicable or over budget"
        def broken(*args, **kwargs):
            raise RuntimeError("planted")

        monkeypatch.setattr(suite_mod, "covering_certificate", broken)
        report = run_suite([GSet(CyclicGroup(11), [0, 1])], SuiteConfig(checks=("inc", "incm")))
        for check in ("inc", "incm"):
            assert report.tallies[check].failed == 1
            assert report.tallies[check].skipped == 0
        assert [ce["detail"] for ce in report.counterexamples] == [{"error": "planted"}] * 2

    def test_short_iterated_inclusion_fails_incm_as_a_fault(self, monkeypatch):
        # with B = A a verified inclusion gives every m, so covering_certificate raises on a shortfall
        monkeypatch.setattr(covering_mod, "verify_incm", lambda A, T, m_max: m_max - 1)
        report = run_suite([GSet(CyclicGroup(11), [0, 1])], SuiteConfig(checks=("inc", "incm")))
        assert dataclasses.astuple(report.tallies["inc"]) == (1, 0, 0)
        assert dataclasses.astuple(report.tallies["incm"]) == (0, 1, 0)
        [ce] = report.counterexamples
        assert ce["check"] == "incm" and list(ce["detail"]) == ["error"]
        assert "only up to m = 2 of 3" in ce["detail"]["error"]

    def test_failed_inclusion_fails_incm_with_the_m_reached(self, monkeypatch):
        # T = {0} covers nothing: 2(A-A) is not inside A-A, so the inclusion fails and no m is reached
        g = CyclicGroup(101)
        monkeypatch.setattr(covering_mod, "greedy_translates", lambda core, candidates: GSet(g, [0]))
        report = run_suite([GSet(g, [0, 1, 5])], SuiteConfig(checks=("incm",)))
        assert dataclasses.astuple(report.tallies["incm"]) == (0, 1, 0)
        assert [ce["detail"] for ce in report.counterexamples] == [{"verified_m": 0, "wanted_m": 3}]

    def test_incm_judges_the_inclusion_claim_alone(self, monkeypatch):
        # a failed size bound is inc's counterexample; the iterated inclusion still holds
        real = suite_mod.covering_certificate
        monkeypatch.setattr(
            suite_mod,
            "covering_certificate",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), size_bound=0),
        )
        report = run_suite([GSet(CyclicGroup(11), [0, 1])], SuiteConfig(checks=("inc", "incm")))
        assert dataclasses.astuple(report.tallies["inc"]) == (0, 1, 0)
        assert dataclasses.astuple(report.tallies["incm"]) == (1, 0, 0)

    def test_failed_certificate_fails_inc_with_its_payload(self, monkeypatch):
        real = suite_mod.covering_certificate
        monkeypatch.setattr(
            suite_mod,
            "covering_certificate",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), size_bound=0),
        )
        A = GSet(CyclicGroup(11), [0, 1])
        report = run_suite([A], SuiteConfig(checks=("inc",)))
        assert report.tallies["inc"].failed == 1
        cert = real(A, A, A)
        assert [ce["detail"] for ce in report.counterexamples] == [
            {"translates": gset_to_obj(cert.translates), "size_bound": 0, "inclusion_verified": True}
        ]

    def test_tiny_budget_falls_back_cleanly(self):
        # above the witness budget the counting bound takes over; no failure
        big = GSet(CyclicGroup(101), range(20))
        report = run_suite([big], SuiteConfig(checks=("inc",)))
        assert report.tallies["inc"].passed == 1
        assert report.ok

    @pytest.mark.parametrize("target, checks", SUITE_TARGETS)
    def test_over_budget_counts_as_skip(self, monkeypatch, target, checks):
        # a check whose work passes a budget, or that does not apply, did not run; it never fails
        if checks == ("torsion",):
            A = GSet(TorsionGroup(2, 3), [(0, 0, 0), (1, 0, 0)])
        else:
            A = GSet(CyclicGroup(11), [0, 1, 5])
        for refusal in (BudgetError, NotApplicable):

            def refuse(*args, **kwargs):
                raise refusal("planted")

            monkeypatch.setattr(suite_mod, target, refuse)
            report = run_suite([A], SuiteConfig(checks=checks))
            for check in checks:
                assert dataclasses.astuple(report.tallies[check]) == (0, 0, 1)
            assert report.ok and not report.counterexamples

    @pytest.mark.parametrize(
        "A, skipped",
        [
            (GSet(CyclicGroup(11), [0, 1, 5]), {"torsion"}),
            (GSet(CyclicGroup(12), [0, 1, 5]), {"iso", "torsion"}),
            (GSet(TorsionGroup(2, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 1)]), {"cover", "lev", "diam", "iso"}),
            (GSet(IntegerWindow(-5, 20), [0, 1, 5]), {"parseval", "moment", "cover", "lev", "diam", "iso", "torsion"}),
        ],
        ids=["Z/11", "Z/12", "(Z/2)^3", "window"],
    )
    def test_each_check_skips_exactly_the_groups_it_does_not_apply_to(self, A, skipped):
        # the library's NotApplicable alone decides these skips; every other check runs and passes
        report = run_suite([A])
        assert report.ok
        assert {name for name, t in report.tallies.items() if t.skipped} == skipped
        assert all(dataclasses.astuple(report.tallies[name]) == (0, 0, 1) for name in skipped)

    @pytest.mark.parametrize("group", [CyclicGroup(11), TorsionGroup(2, 3), IntegerWindow(0, 9)], ids=str)
    def test_empty_set_is_bad_input_not_a_skip(self, group):
        # NotApplicable is a ValueError, but no other ValueError counts as a skip
        with pytest.raises(ValueError) as info:
            run_suite([GSet(group, [])])
        assert not isinstance(info.value, NotApplicable)

    @pytest.mark.parametrize("target, checks", SUITE_TARGETS)
    def test_fault_counts_as_fail(self, monkeypatch, target, checks):
        # a RuntimeError is a library fault: a counterexample, and the run goes on
        if checks == ("torsion",):
            A = GSet(TorsionGroup(2, 3), [(0, 0, 0), (1, 0, 0)])
            second = GSet(TorsionGroup(2, 3), [(0, 0, 0), (0, 1, 0)])
        else:
            A, second = GSet(CyclicGroup(11), [0, 1, 5]), GSet(CyclicGroup(13), [0, 1, 5])
        real = getattr(suite_mod, target)

        def fault(x, *args, **kwargs):
            if x is A:
                raise RuntimeError("planted")
            return real(x, *args, **kwargs)

        monkeypatch.setattr(suite_mod, target, fault)
        alone = run_suite([A], SuiteConfig(checks=checks))
        both = run_suite([A, second], SuiteConfig(checks=checks))
        for check in checks:
            assert dataclasses.astuple(alone.tallies[check]) == (0, 1, 0)
            assert dataclasses.astuple(both.tallies[check]) == (1, 1, 0)
        for report in (alone, both):
            assert [(ce["index"], ce["check"], ce["detail"]) for ce in report.counterexamples] == [
                (0, check, {"error": "planted"}) for check in checks
            ]

    def test_failed_inclusion_fails_the_growth_checks(self, monkeypatch):
        # the growth tables presuppose the inc claim; without it they fail, never abort
        real = suite_mod.covering_certificate
        monkeypatch.setattr(
            suite_mod,
            "covering_certificate",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), inclusion_verified=False),
        )
        report = run_suite([GSet(CyclicGroup(11), [0, 1, 5])], SuiteConfig(checks=("estjcov", "estecov")))
        for check in ("estjcov", "estecov"):
            assert dataclasses.astuple(report.tallies[check]) == (0, 1, 0)
        assert all("do not cover A-A" in ce["detail"]["error"] for ce in report.counterexamples)

    @given(st.integers(1, 1 << 62))
    @example(1)
    @example(3)
    @example(1 << 62)
    def test_every_grid_point_applies_at_every_modulus(self, N):
        # cover, lev and diam run every grid point on every Z/N, with no filter to skip one
        for delta in suite_mod._DELTA_GRID:
            l = math.ceil(delta * N) - 1
            assert 0 < delta < 1 / 3 and 0 <= 3 * l < N
        assert all(0 < eps < 1 for eps in suite_mod._EPS_GRID)

    def test_unverified_iso_counts_as_skip(self):
        # C(641, 2) = 205,120 multisets, past the multiset check's budget of 200,000
        report = run_suite([GSet(CyclicGroup(2003), range(640))], SuiteConfig(checks=("iso",)))
        assert dataclasses.astuple(report.tallies["iso"]) == (0, 0, 1)


class TestCli:
    def test_window_checks_decide_above_the_dense_limit(self, capsys):
        # lev and cover find their best window among |B| + 1 starts, so at N = 2^62 - 57 they decide;
        # parseval and diam need a spectrum of N points, which is over budget there
        argv = "verify --group cyclic:4611686018427387847 --shape progression:0:1:3 --checks lev,cover,parseval,diam"
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        for check in ("cover", "lev"):
            assert f"{check}: 1 pass, 0 fail, 0 skip" in out
        for check in ("parseval", "diam"):
            assert f"{check}: 0 pass, 0 fail, 1 skip" in out

    def test_window_verdicts_at_2_62_do_not_wrap(self):
        # {0, 1, 2} and A - A = {N - 2, ..., 2} sit at both ends of Z/N, so their windows wrap and p + N nears 2^63
        N = (1 << 62) - 57
        A = GSet(CyclicGroup(N), [0, 1, 2])
        D = difference_set(A, A)
        for delta in (0.1, 0.2, 0.3):
            l = math.ceil(delta * N) - 1
            assert rectify_mod._best_window(D, l) == (N + 2 - l, 5)
            res = lev_interval(A, 0.25, delta)
            assert (res.hypothesis_met, res.start, res.length, res.exceptions, res.ok) == (True, 0, l, 0, True)
        report = run_suite([A], SuiteConfig(checks=("cover", "lev")))
        assert (report.tallies["cover"].passed, report.tallies["lev"].passed, report.ok) == (1, 1, True)

    def test_sumset(self, capsys):
        assert main(["sumset", "--group", "cyclic:11", "--elements", "0,1,3"]) == 0
        out = capsys.readouterr().out
        assert "|A+B| = 6" in out
        assert "{0, 1, 2, 3, 4, 6}" in out

    def test_diam(self, capsys):
        assert main(["diam", "--group", "cyclic:7", "--elements", "0,2,4"]) == 0
        assert "diameter 2" in capsys.readouterr().out

    def test_spectrum_structured(self, capsys):
        rc = main(
            ["spectrum", "--group", "cyclic:31", "--elements", "0,1,2",
             "--format", "structured"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 31
        assert doc["parseval_residual"] <= 1e-9

    def test_cover(self, capsys):
        rc = main(["cover", "--group", "window:-50:50", "--elements", "0,1,3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound 7" in out
        assert "inclusion verified: True" in out

    def test_cover_short_iterated_inclusion_exits_one(self, capsys, monkeypatch):
        # 2(A-A) <= (A-A)+(T-T) gives every m by induction, so a shortfall is a library fault
        monkeypatch.setattr(covering_mod, "verify_incm", lambda A, T, m_max: 0)
        rc = main(["cover", "--group", "cyclic:31", "--elements", "0,1,3", "--check-m", "3"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("check failed:") and "only up to m = 0 of 3" in err

    @pytest.mark.parametrize("spelling", [[], ["--elements-b", "0,1,3"]])
    def test_cover_check_m_shortfall_with_b_equal_to_a_exits_one(self, capsys, monkeypatch, spelling):
        # B given with A's elements is the same summand as B defaulting to A; B = {0} is another summand
        monkeypatch.setattr(covering_mod, "verify_incm", lambda A, T, m_max: m_max - 1)
        rc = main(["cover", "--group", "cyclic:31", "--elements", "0,1,3", *spelling, "--check-m", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("check failed:")
        rc = main(["cover", "--group", "cyclic:31", "--elements", "0,1,3", "--elements-b", "0", "--check-m", "2"])
        assert rc == 0
        assert "iterated inclusion verified up to m = 1" in capsys.readouterr().out

    def test_cover_check_m_step_two_shortfall_with_other_b_exits_one(self, capsys, monkeypatch):
        # A is a coset, so A-A is a subgroup and every step holds; failing the
        # m = 2 step alone contradicts the induction from m = 1 for any B
        calls = []
        real = covering_mod._in_sumset

        def fail_past_the_first_right_side(X, Y, T):
            calls.append(Y)  # the certificate and the m = 1 step read A-A itself
            return real(X, Y, T) and Y is calls[0]

        monkeypatch.setattr(covering_mod, "_in_sumset", fail_past_the_first_right_side)
        rc = main(["cover", "--group", "cyclic:30", "--elements", "1,11,21", "--elements-b", "0", "--check-m", "2"])
        out, err = capsys.readouterr()
        assert len(calls) == 3
        assert rc == 1 and out == ""
        assert err.startswith("check failed:") and "fails at m = 2" in err

    def test_cover_check_m_with_other_b_keeps_verdict(self, capsys):
        # with B != A the certificate does not imply 2(A-A) <= (A-A)+(T-T)
        rc = main(
            ["cover", "--group", "cyclic:31", "--elements", "0,1,3", "--elements-b", "0", "--check-m", "1"]
        )
        assert rc == 0
        assert "iterated inclusion verified up to m = 0" in capsys.readouterr().out

    def test_cover_check_m_exits_zero(self, capsys):
        rc = main(["cover", "--group", "cyclic:31", "--elements", "0,1,3", "--check-m", "3"])
        assert rc == 0
        assert "iterated inclusion verified up to m = 3" in capsys.readouterr().out

    def test_diam_past_its_budget_exits_two(self, capsys, monkeypatch):
        # {0, 1, 5} has diameter 5, so a budget of 4 multipliers stops the scan before it is decided
        monkeypatch.setattr(rectify_mod, "_DIAMETER_BUDGET", 4)
        rc = main(["diam", "--group", "cyclic:4611686018427387847", "--elements", "0,1,5"])
        assert rc == 2
        assert "visited 4 multipliers up to its budget" in capsys.readouterr().err

    def test_verify_iso_past_the_diameter_budget_skips(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(rectify_mod, "_DIAMETER_BUDGET", 4)
        path = tmp_path / "long-scan.json"
        dump_instances([GSet(CyclicGroup(1_000_000_007), [0, 1, 5])], path)
        rc = main(["verify", "--input", str(path), "--checks", "iso"])
        assert rc == 0
        assert "iso: 0 pass, 0 fail, 1 skip" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["diam", "parseval", "moment"])
    def test_verify_past_the_indicator_budget_skips(self, capsys, tmp_path, check):
        # 16777259 is the first prime above DENSE_ORDER_LIMIT = 2^24
        path = tmp_path / "large-order.json"
        dump_instances([GSet(CyclicGroup(16_777_259), [0, 1, 5])], path)
        rc = main(["verify", "--input", str(path), "--checks", check])
        assert rc == 0
        assert f"{check}: 0 pass, 0 fail, 1 skip" in capsys.readouterr().out

    def test_verify_iso_near_2_62_passes(self, capsys, tmp_path):
        # primality is decided up to 2^62, and t <= 5 decides the diameter of {0, 1, 5}
        path = tmp_path / "near-2-62.json"
        dump_instances([GSet(CyclicGroup((1 << 62) - 57), [0, 1, 5])], path)
        rc = main(["verify", "--input", str(path), "--checks", "iso"])
        assert rc == 0
        assert "iso: 1 pass, 0 fail, 0 skip" in capsys.readouterr().out

    def test_rectify_near_2_62_is_verified(self, capsys):
        rc = main(["rectify", "--group", f"cyclic:{(1 << 62) - 57}", "--elements", "0,1,5"])
        assert rc == 0
        assert "length 5; multiset check: verified" in capsys.readouterr().out

    def test_bounds_near_2_62_is_over_the_indicator_budget(self, capsys):
        # the prime test passes; the pipeline's spectrum needs an indicator of N entries
        rc = main(["bounds", "--group", f"cyclic:{(1 << 62) - 57}", "--elements", "0,1,5"])
        assert rc == 2
        assert "too large for an indicator" in capsys.readouterr().err

    def test_rectify(self, capsys):
        rc = main(
            ["rectify", "--group", "cyclic:23", "--elements", "0,5,10", "--order", "2"]
        )
        assert rc == 0
        assert "{0, 1, 2}" in capsys.readouterr().out

    def test_torsion_cover(self, capsys):
        rc = main(
            ["torsion-cover", "--group", "torsion:2:3",
             "--elements", "0,0,0;1,0,0;0,1,0;0,0,1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "subgroup of size 8" in out
        assert "contains A: True" in out

    def test_torsion_cover_failed_bound_a_exits_one(self, capsys, monkeypatch):
        real = cli_mod.torsion_cover
        monkeypatch.setattr(
            cli_mod,
            "torsion_cover",
            lambda A, **kw: dataclasses.replace(real(A, **kw), bound_a_holds=False),
        )
        rc = main(
            ["torsion-cover", "--group", "torsion:2:3",
             "--elements", "0,0,0;1,0,0;0,1,0;0,0,1"]
        )
        assert rc == 1

    def test_bounds_calculator(self, capsys):
        rc = main(["bounds", "--alpha", "1/16", "--doubling", "1"])
        assert rc == 0
        assert "delta" in capsys.readouterr().out

    def test_bounds_at_threshold(self, capsys):
        rc = main(["bounds", "--at-threshold", "--doubling", "1"])
        assert rc == 0
        assert "< 1/3: True" in capsys.readouterr().out

    def test_bounds_pipeline(self, capsys):
        rc = main(
            ["bounds", "--group", "cyclic:10007", "--elements", "0,1,2,3,4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "K = 1.8" in out
        assert "true diameter 4" in out

    def test_bounds_needs_alpha(self, capsys):
        assert main(["bounds", "--doubling", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flags", [
        ("bounds --group cyclic:1009 --elements 0,1,2,3 --order 3 --alpha 0.5 --doubling 9",
         "bounds on a set would ignore --alpha, --doubling, --order"),
        ("bounds --group cyclic:1009 --elements 0,1,2,3 --at-threshold", "bounds on a set would ignore --at-threshold"),
        ("bounds --doubling 2 --alpha 0.001 --delta 0.2", "the bounds calculator would ignore --delta"),
        ("bounds --doubling 2 --alpha 0.001 --delta 0", "the bounds calculator would ignore --delta"),
        ("bounds --group cyclic:1009 --elements 0,1 --order 0", "bounds on a set would ignore --order"),
        ("bounds --doubling 2 --alpha 0.001 --elements 0,1", "the bounds calculator would ignore --elements"),
        ("bounds --doubling 2 --at-threshold --alpha 0.001", "bounds --at-threshold would ignore --alpha"),
        ("verify --group cyclic:11 --shape exhaustive:1 --elements 0,1", "verify would ignore --elements"),
        ("enumerate --group cyclic:11 --shape exhaustive:1 --elements 0,1", "enumerate would ignore --elements"),
        ("enumerate --group cyclic:11 --shape exhaustive:1 --input x.json", "enumerate would ignore --input"),
        ("verify --input x.json --group cyclic:11 --shape exhaustive:1", "verify --input would ignore --group, --shape"),
        ("diam --input x.json --group cyclic:11 --elements 0,1", "a set from --input would ignore --group, --elements"),
    ])
    def test_a_flag_the_command_would_ignore_exits_two(self, capsys, argv, flags):
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flags}\n"

    def test_verify_refuses_a_seed_for_a_loaded_file(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        dump_instances([GSet(CyclicGroup(11), [0, 1, 3])], path)
        argv = ["verify", "--input", str(path), "--checks", "inc"]
        assert main(argv + ["--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0
        for seed in ("5", "0"):  # a given 0 is refused too
            assert main(argv + ["--seed", seed]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: verify --input would ignore --seed\n"

    @pytest.mark.parametrize("argv", [
        "verify --group cyclic:13 --shape random:3:4 --checks inc --format structured",
        "enumerate --group cyclic:13 --shape random:3:4 --format structured",
    ])
    def test_a_shape_without_a_seed_reads_seed_zero(self, capsys, argv):
        assert main(argv.split()) == 0
        unseeded = capsys.readouterr().out
        assert main(argv.split() + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == unseeded
        assert main(argv.split() + ["--seed", "1"]) == 0
        assert capsys.readouterr().out != unseeded

    def test_verify(self, capsys):
        rc = main(
            ["verify", "--group", "cyclic:11", "--shape", "exhaustive:2",
             "--checks", "inc,parseval"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 counterexamples over 66 instances" in out

    def test_verify_fault_exits_one_with_its_report(self, capsys, monkeypatch):
        def fault(*args, **kwargs):
            raise RuntimeError("planted")

        monkeypatch.setattr(suite_mod, "torsion_cover", fault)
        rc = main(["verify", "--group", "torsion:2:3", "--shape", "exhaustive:1", "--checks", "torsion"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "8 counterexamples over 8 instances" in out
        assert "torsion: 0 pass, 8 fail, 0 skip" in out

    @pytest.mark.parametrize(
        "check", ["inc", "incm", "estjcov", "estecov", "parseval", "moment", "cover", "lev", "diam", "iso"]
    )
    def test_verify_empty_set_exits_two(self, capsys, tmp_path, check):
        # bad input is never a counterexample
        path = tmp_path / "empty.json"
        path.write_text('{"group": {"type": "cyclic", "modulus": 11}, "elements": []}')
        assert main(["verify", "--input", str(path), "--checks", check]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("shape", ["exhaustive:2:normalise", "exhaustive:2:normalize:x"])
    def test_enumerate_bad_exhaustive_modifier_exits_two(self, capsys, shape):
        assert main(["enumerate", "--group", "cyclic:7", "--shape", shape]) == 2
        assert repr(shape) in capsys.readouterr().err

    def test_verify_corrupted_check_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setitem(
            suite_mod.INSTANCE_CHECKS, "inc", lambda A: ("fail", {})
        )
        rc = main(
            ["verify", "--group", "cyclic:11", "--shape", "exhaustive:1",
             "--checks", "inc"]
        )
        assert rc == 1
        assert "11 counterexamples" in capsys.readouterr().out

    def test_enumerate_limit(self, capsys):
        rc = main(
            ["enumerate", "--group", "cyclic:7", "--shape", "exhaustive:2",
             "--limit", "3"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["{0}", "{1}", "{2}"]

    def test_enumerate_normalize_z1(self, capsys):
        assert main(["enumerate", "--group", "cyclic:1", "--shape", "exhaustive:1:normalize"]) == 0
        assert capsys.readouterr().out == "{0}\n"

    def test_enumerate_negative_limit_exits_two(self, capsys):
        assert main(["enumerate", "--group", "cyclic:7", "--shape", "exhaustive:2", "--limit", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--limit" in captured.err

    def test_enumerate_limit_zero(self, capsys):
        assert main(["enumerate", "--group", "cyclic:7", "--shape", "exhaustive:2", "--limit", "0"]) == 0
        assert capsys.readouterr().out == "(no instances)\n"

    @pytest.mark.parametrize(
        "argv, option",
        [
            ("cover --group cyclic:31 --elements 0,1,5 --check-m -1", "check_m"),
            ("spectrum --group cyclic:31 --elements 0,1,5 --top -1", "top"),
        ],
        ids=["cover-check-m", "spectrum-top"],
    )
    def test_negative_budget_or_count_exits_two(self, capsys, argv, option):
        assert main(argv.split(" ")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"{option} must be >= 0" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            "cover --group cyclic:31 --elements 0,1,5 --check-m 0",
            "spectrum --group cyclic:31 --elements 0,1,5 --top 0",
        ],
    )
    def test_zero_budget_or_count_is_valid(self, capsys, argv):
        assert main(argv.split(" ")) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("size, searched", [(18, True), (19, False)])
    def test_verify_inc_searches_the_witness_up_to_the_default_budget(self, capsys, monkeypatch, size, searched):
        # verify builds its certificates at covering._WITNESS_BUDGET = 18: an
        # 18-point set takes the witness path, a 19-point set the counting bound
        sizes = []
        real = covering_mod.pluennecke_witness
        monkeypatch.setattr(covering_mod, "pluennecke_witness", lambda A, *a, **kw: sizes.append(len(A)) or real(A, *a, **kw))
        argv = ["verify", "--group", "cyclic:1009", "--shape", f"random:{size}:1", "--seed", "1", "--checks", "inc"]
        assert main(argv) == 0
        assert sizes == ([size] if searched else [])
        assert "inc: 1 pass, 0 fail, 0 skip" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["cover", "torsion-cover", "verify"])
    def test_no_command_takes_a_budget(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--group", "cyclic:31", "--elements", "0,1,5", "--budget", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 4" in capsys.readouterr().err

    def test_negative_budgets_are_rejected_by_the_library(self):
        A = GSet(CyclicGroup(31), [0, 1, 5])
        calls = [
            lambda: covering_mod.covering_certificate(A, A, A, witness_budget=-1),
            lambda: covering_mod.covering_certificate(A, A, A, check_m=-1),
            lambda: spectrum(A, top=-1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be >= 0"):
                call()

    def test_a_witness_budget_can_only_lower_the_cap(self, monkeypatch):
        A = GSet(CyclicGroup(31), [0, 1, 5])
        with pytest.raises(ValueError, match="<= 18, got 19"):
            covering_mod.covering_certificate(A, A, A, witness_budget=19)
        monkeypatch.setattr(covering_mod, "_WITNESS_BUDGET", 2)
        with pytest.raises(ValueError, match="<= 2, got 3"):
            covering_mod.covering_certificate(A, A, A, witness_budget=3)
        assert not covering_mod.covering_certificate(A, A, A).witness_is_optimal
        assert covering_mod.covering_certificate(A, A, A, witness_budget=2) == covering_mod.covering_certificate(A, A, A)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main(
            ["diam", "--group", "cyclic:7", "--elements", "0,1,2", "--out", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["length"] == 2

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        dump_instances([GSet(CyclicGroup(7), [0, 1, 2])], path)
        rc = main(["diam", "--input", str(path)])
        assert rc == 0
        assert "diameter 2" in capsys.readouterr().out

    def test_input_file_must_hold_one(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        dump_instances(
            [GSet(CyclicGroup(7), [0]), GSet(CyclicGroup(7), [1])], path
        )
        assert main(["diam", "--input", str(path)]) == 2

    def test_missing_input_is_config_error(self, capsys):
        assert main(["diam", "--input", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("command", ["diam", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [
            '{"elements": [1, 2]}',
            '{"group": {"type": "cyclic"}, "elements": [1, 2]}',
            '{"group": {"type": "cyclic", "modulus": 7}, "elements": 5}',
            '{"group": {"type": "cyclic", "modulus": 7}, "elements": "12"}',
            '{"group": 7, "elements": [1, 2]}',
            '[{"group": {"type": "cyclic", "modulus": 7}, "elements": [null]}]',
            "[3]",
        ],
        ids=["no-group", "no-modulus", "elements-not-a-list", "elements-a-string", "group-not-an-object", "null-element", "not-an-object"],
    )
    def test_malformed_input_file_exits_two(self, capsys, tmp_path, command, doc):
        # exit 1 is kept for counterexamples; a file off the instance schema is bad input
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main([command, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "group, elements",
        [
            ('{"type": "cyclic", "modulus": 7.9}', "[1]"),
            ('{"type": "cyclic", "modulus": 7}', "[1.5]"),
            ('{"type": "cyclic", "modulus": 7}', '["3"]'),
            ('{"type": "cyclic", "modulus": 7}', "[true]"),
            ('{"type": "torsion", "exponent": 3, "rank": "2"}', "[[0, 1]]"),
            ('{"type": "torsion", "exponent": 3, "rank": 2}', "[[0, false]]"),
        ],
        ids=["float-modulus", "float-element", "string-element", "bool-element", "string-rank", "bool-coordinate"],
    )
    def test_values_that_are_no_integers_exit_two(self, capsys, tmp_path, group, elements):
        # int() would read 7.9 as 7, "3" as 3 and true as 1; the file is refused instead
        path = tmp_path / "coerced.json"
        path.write_text(f'{{"group": {group}, "elements": {elements}}}')
        assert main(["sumset", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: instance 0: ") and "is not an integer" in err

    def test_integral_floats_load_as_integers(self, capsys, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text('{"group": {"type": "cyclic", "modulus": 7.0}, "elements": [1, 3.0]}')
        assert main(["sumset", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "|A+B| = 3: {2, 4, 6}\n"

    def test_bad_group_spec(self, capsys):
        assert main(["diam", "--group", "ring:9", "--elements", "0"]) == 2
