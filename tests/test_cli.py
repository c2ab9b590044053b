"""End-to-end command line behavior: exit codes, document shapes,
determinism, and the cache plumbing."""

import json

import pytest

from nimlab.cli import build_parser, main
from nimlab.errors import NotApplicableError
from nimlab.monoscan import EdgeColoring, nim_edges
from nimlab.turan import ex_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths


def test_ex_triangle(capsys):
    code, doc = run_json(capsys, "ex", "--n", "5", "--pattern", "k3")
    assert code == 0
    assert doc["value"] == 6
    assert doc["exact"] is True


def test_ex_quadrilateral(capsys):
    code, doc = run_json(capsys, "ex", "--n", "8", "--pattern", "c4")
    assert code == 0
    assert doc["value"] == 11


def test_ex_inexact_record_still_reports(capsys):
    # beyond every exact route the record is a greedy lower bound
    code, doc = run_json(capsys, "ex", "--n", "14", "--pattern", "c6")
    assert code == 0
    assert doc["exact"] is False
    assert doc["value"] >= 14


def test_exstar_reduced_quadrilateral(capsys):
    code, doc = run_json(
        capsys, "exstar", "--m", "3", "--n", "4", "--pattern", "c4", "--reduce"
    )
    assert code == 0
    assert doc["value"] == 3


def test_f_exact_pentagon_value(capsys):
    code, doc = run_json(
        capsys, "f", "--n", "5", "--pattern", "k3", "--k", "2", "--exact"
    )
    assert code == 0
    assert doc["value"] == 10
    col = EdgeColoring.parse(doc["witness"])
    assert col.n == 5 and col.k == 2


def test_f_heuristic_reports_witness(capsys):
    code, doc = run_json(
        capsys, "f", "--n", "6", "--pattern", "c4", "--k", "2",
        "--budget", "200", "--seed", "1",
    )
    assert code == 0
    assert doc["mode"] == "heuristic"
    col = EdgeColoring.parse(doc["witness"])
    assert col.n == 6


def test_nim_command_and_recompute(capsys, tmp_path, c4):
    col = EdgeColoring.random(8, 2, seed=3)
    path = tmp_path / "col.txt"
    col.write(str(path))
    code, doc = run_json(capsys, "nim", "--coloring", str(path), "--pattern", "c4")
    assert code == 0
    assert doc["nim_count"] == nim_edges(col, c4).count
    assert len(doc["nim_edges"]) == doc["nim_count"]


def test_construct_extremal_roundtrip(capsys, tmp_path, c4):
    code, doc = run_json(
        capsys, "construct", "extremal", "--n", "8", "--pattern", "c4"
    )
    assert code == 0
    assert doc["nim_count"] >= ex_exact(8, c4).value
    # the reported coloring reproduces the reported count
    path = tmp_path / "re.txt"
    path.write_text(doc["coloring"])
    code2, doc2 = run_json(capsys, "nim", "--coloring", str(path), "--pattern", "c4")
    assert code2 == 0
    assert doc2["nim_count"] == doc["nim_count"]


def test_construct_pentagon(capsys):
    code, doc = run_json(
        capsys, "construct", "pentagon", "--n", "10", "--pattern", "k3"
    )
    assert code == 0
    assert doc["nim_count"] == 45
    assert doc["k"] == 3
    col = EdgeColoring.parse(doc["coloring"])
    assert col.n == 10


def test_construct_overlay(capsys):
    code, doc = run_json(
        capsys, "construct", "overlay", "--n", "8", "--pattern", "k3",
        "--k", "3", "--seed", "1",
    )
    assert code == 0
    assert doc["construction"] == "overlay"
    assert doc["nim_count"] >= doc["nim_lower_bound"]
    assert isinstance(doc["bound_met"], bool)
    assert len(doc["permutations"]) == 2


def _applicable_two_coloring(pattern):
    for seed in range(40):
        col = EdgeColoring.random(7, 2, seed=seed)
        from nimlab.audit import audit_two_color

        try:
            audit_two_color(col, pattern)
            return col
        except NotApplicableError:
            continue
    raise AssertionError("no applicable coloring found")


def test_audit2_passes_on_applicable_coloring(capsys, tmp_path, c4):
    col = _applicable_two_coloring(c4)
    path = tmp_path / "a.txt"
    col.write(str(path))
    code, doc = run_json(capsys, "audit2", "--coloring", str(path), "--pattern", "c4")
    assert code == 0
    assert doc["pass"] is True
    assert doc["rows"][-1]["claim"] == "TOTAL"


def test_audit2_single_color_exits_1(capsys, tmp_path):
    code, doc = run_json(
        capsys, "construct", "extremal", "--n", "8", "--pattern", "c4"
    )
    path = tmp_path / "ext.txt"
    path.write_text(doc["coloring"])
    code, err = run_json(capsys, "audit2", "--coloring", str(path), "--pattern", "c4")
    assert code == 1
    assert err["error"] == "single-color NIM set"


def test_auditk_passes(capsys, tmp_path, c4):
    from nimlab.audit import audit_k_color

    col = None
    for seed in range(30):
        cand = EdgeColoring.random(10, 3, seed=seed)
        try:
            audit_k_color(cand, c4)
            col = cand
            break
        except NotApplicableError:
            continue
    assert col is not None
    path = tmp_path / "k.txt"
    col.write(str(path))
    code, doc = run_json(capsys, "auditk", "--coloring", str(path), "--pattern", "c4")
    assert code == 0
    assert doc["pass"] is True
    assert "type_counts" in doc


def test_reduce_verdicts(capsys):
    code, doc = run_json(capsys, "reduce", "--pattern", "k4,7")
    assert code == 0
    assert doc["verdict"] == "reducible"
    assert doc["biclique_rule"]["verdict"] == "reducible-by-rule"

    code, doc = run_json(capsys, "reduce", "--pattern", "k4,5")
    assert code == 0
    assert doc["verdict"] == "unknown"

    code, doc = run_json(capsys, "reduce", "--pattern", "c6")
    assert code == 0
    assert doc["verdict"] == "reducible"
    assert "biclique_rule" not in doc


# ---------------------------------------------------------------------------
# exit codes


def test_missing_coloring_file_is_invalid_input(capsys):
    code, err = run_json(
        capsys, "nim", "--coloring", "/no/such/file", "--pattern", "c4"
    )
    assert code == 3
    assert err["error"] == "no-such-file"


def test_unknown_pattern_is_invalid_input(capsys):
    code, err = run_json(capsys, "ex", "--n", "5", "--pattern", "zzz")
    assert code == 3


def test_bad_flag_value_is_invalid_input(capsys):
    code, err = run_json(capsys, "ex", "--n", "five", "--pattern", "k3")
    assert code == 3
    assert err["error"] == "invalid-arguments"


def test_missing_required_flag_is_invalid_input(capsys):
    code, err = run_json(capsys, "ex", "--n", "5")
    assert code == 3
    assert err["error"] == "invalid-arguments"


def test_exact_ceiling_refusal_exits_2(capsys):
    code, err = run_json(
        capsys, "f", "--n", "10", "--pattern", "k3", "--k", "2", "--exact"
    )
    assert code == 2
    assert "ceiling" in err["error"] or "budget" in err["error"]


def test_ceiling_override_gives_no_driver_to_four_colors(capsys):
    # a ceiling bounds n for an existing driver; it must not send k = 4
    # through the three-color search
    code, err = run_json(
        capsys, "f", "--n", "4", "--pattern", "k1,2", "--k", "4", "--exact", "--ceiling", "4"
    )
    assert code == 2
    assert err["error"] == "search-ceiling"


def test_audit2_on_three_coloring_exits_3(capsys, tmp_path):
    col = EdgeColoring.random(8, 3, seed=0)
    path = tmp_path / "three.txt"
    col.write(str(path))
    code, err = run_json(capsys, "audit2", "--coloring", str(path), "--pattern", "c4")
    assert code == 3
    assert err["error"] == "not-a-two-coloring"


def test_auditk_missing_color_exits_1(capsys, tmp_path):
    m = 10 * 9 // 2
    col = EdgeColoring(10, 3, [1 + (i % 2) for i in range(m)])
    path = tmp_path / "gap.txt"
    col.write(str(path))
    code, err = run_json(capsys, "auditk", "--coloring", str(path), "--pattern", "c4")
    assert code == 1
    assert err["error"] == "missing color in NIM set"


# ---------------------------------------------------------------------------
# output plumbing


def test_reports_are_byte_identical(capsys):
    _, a = run(capsys, "ex", "--n", "7", "--pattern", "c4")
    _, b = run(capsys, "ex", "--n", "7", "--pattern", "c4")
    assert a == b


def test_shared_parser_carries_no_state(capsys, tmp_path, monkeypatch):
    import nimlab.cli as cli

    report = tmp_path / "report.txt"
    calls = [
        ("--format", "tabular", "--out", str(report), "ex", "--n", "5", "--pattern", "k3"),
        ("ex", "--n", "five", "--pattern", "k3"),
        ("ex", "--n", "5", "--pattern", "k3"),
    ]

    def outputs(fresh):
        got = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            code, out = run(capsys, *argv)
            got.append((code, out, report.read_text() if report.exists() else None))
            report.unlink(missing_ok=True)
        return got

    run(capsys, "reduce", "--pattern", "c4")
    shared = cli._PARSER
    reused = outputs(fresh=False)
    assert cli._PARSER is shared is not None
    assert [code for code, _, _ in reused] == [0, 3, 0]
    assert reused == outputs(fresh=True)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(
        capsys, "--out", str(target), "ex", "--n", "5", "--pattern", "k3"
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["value"] == 6


def test_tabular_format(capsys):
    code, out = run(
        capsys, "--format", "tabular", "ex", "--n", "5", "--pattern", "k3"
    )
    assert code == 0
    assert "value" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_tabular_audit_renders_rows(capsys, tmp_path, c4):
    col = _applicable_two_coloring(c4)
    path = tmp_path / "a.txt"
    col.write(str(path))
    code, out = run(
        capsys, "--format", "tabular", "audit2",
        "--coloring", str(path), "--pattern", "c4",
    )
    assert code == 0
    assert "claim" in out and "measured" in out
    assert "TOTAL" in out


def test_pattern_from_file(capsys, tmp_path):
    spec = tmp_path / "pattern.txt"
    spec.write_text("c4\n")
    code, doc = run_json(capsys, "ex", "--n", "6", "--pattern", str(spec))
    assert code == 0
    assert doc["value"] == 7


def test_explicit_cache_flag(capsys, tmp_path, monkeypatch):
    import nimlab.turan

    # an empty memo forces a real computation, so the result is persisted;
    # the records other tests built stay memoized
    monkeypatch.setattr(nimlab.turan, "_MEMO", {})
    cache_path = tmp_path / "cache.jsonl"
    code, a = run_json(
        capsys, "--cache", str(cache_path), "ex", "--n", "7", "--pattern", "c4"
    )
    assert code == 0
    assert cache_path.exists()
    code, b = run_json(
        capsys, "--cache", str(cache_path), "ex", "--n", "7", "--pattern", "c4"
    )
    assert a == b


def test_parser_rejects_unknown_subcommand(capsys):
    code, err = run_json(capsys, "frobnicate")
    assert code == 3
