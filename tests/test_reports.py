from __future__ import annotations

import json

import pytest

from edgeideals.families import cycle_graph
from edgeideals.reports import (
    RunConfig,
    VerificationReport,
    describe_instance,
    emit_csv,
    emit_json,
    emit_report,
    emit_text,
    exit_code,
    graph_hash,
)


def _sample_reports():
    info = describe_instance(cycle_graph(5), s=2, label="sample")
    ok = VerificationReport(
        suite="decomposition",
        check="layer-sum",
        instance=info,
        status="pass",
        details="4 ideals compared",
    )
    bad = VerificationReport(
        suite="m2s",
        check="truncation",
        instance=info,
        status="fail",
        witnesses=("x1*x2*x3", "left only"),
    )
    skip = VerificationReport(
        suite="regularity",
        check="equality",
        instance=info,
        status="skipped",
        reason="degree cap",
    )
    return [ok, bad, skip]


def test_run_config_validation():
    cfg = RunConfig()
    assert cfg.selected_suites()[0] == "decomposition"
    assert RunConfig(suites=("m2s", "invariants")).selected_suites() == (
        "m2s",
        "invariants",
    )
    with pytest.raises(ValueError):
        RunConfig(s_min=0)
    with pytest.raises(ValueError):
        RunConfig(s_min=3, s_max=2)
    with pytest.raises(ValueError):
        RunConfig(suites=("nope",))
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")
    # the CLI's --field check uses the same primality test; 0 is no field,
    # not the rationals
    for p in (0, 4, -3):
        with pytest.raises(ValueError, match=f"{p} is not a prime"):
            RunConfig(prime=p)
    echo = dict(RunConfig(seed=7).echo())
    assert echo["seed"] == "7"
    assert (echo["field"], echo["prime"]) == ("rational", "")
    echo = dict(RunConfig(prime=32003).echo())
    assert (echo["field"], echo["prime"]) == ("prime", "32003")


def test_graph_hash_stable_and_distinct():
    assert graph_hash(cycle_graph(5)) == graph_hash(cycle_graph(5))
    assert graph_hash(cycle_graph(5)) != graph_hash(cycle_graph(7))
    assert len(graph_hash(cycle_graph(5))) == 12


def test_report_invariants():
    info = describe_instance(cycle_graph(5))
    with pytest.raises(ValueError):
        VerificationReport("decomposition", "x", info, "bogus")
    with pytest.raises(ValueError):
        VerificationReport("decomposition", "x", info, "fail")  # no witnesses
    with pytest.raises(ValueError):
        VerificationReport("decomposition", "x", info, "skipped")  # no reason
    # a pass, a fail with a witness and a skip with a reason are accepted
    VerificationReport("decomposition", "x", info, "pass")
    VerificationReport("m2s", "x", info, "fail", witnesses=("w",))
    VerificationReport("m2s", "x", info, "skipped", reason="r")


def test_emitters_deterministic_and_parseable():
    reports = _sample_reports()
    j1, j2 = emit_json(reports), emit_json(reports)
    assert j1 == j2
    payload = json.loads(j1)
    assert [row["status"] for row in payload] == ["pass", "fail", "skipped"]
    assert json.loads(emit_json([])) == []

    c1, c2 = emit_csv(reports), emit_csv(reports)
    assert c1 == c2
    lines = c1.decode().strip().splitlines()
    assert len(lines) == 4 and lines[0].startswith("suite,")

    t1 = emit_text(reports).decode()
    assert t1 == emit_text(reports).decode()
    assert "[pass" in t1.lower()
    assert "3 checks" in t1

    assert emit_report(reports, "json") == j1
    with pytest.raises(ValueError):
        emit_report(reports, "toml")


def test_exit_code():
    reports = _sample_reports()
    assert exit_code(reports) == 1
    assert exit_code([r for r in reports if r.status != "fail"]) == 0
    assert exit_code([]) == 0
