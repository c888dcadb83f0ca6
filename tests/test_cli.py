from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgeideals import graphs
from edgeideals.cli import main
from edgeideals.graphs import parse_graph_text

EXTENDED = bool(os.environ.get("EDGEIDEALS_EXTENDED"))

C5_TEXT = """\
n 5
e 1 2
e 2 3
e 3 4
e 4 5
e 1 5
c 1 2 3 4 5
"""

BOWTIE_TEXT = """\
# central triangle 1-2-3 with ears on (2,3) and (1,3)
n 5
e 1 2
e 1 3
e 2 3
e 2 4
e 3 4
e 1 5
e 3 5
c 1 2 3
c 2 4 3
c 1 3 5
"""


@pytest.fixture()
def c5_file(tmp_path):
    p = tmp_path / "c5.graph"
    p.write_text(C5_TEXT)
    return str(p)


def test_parse_bowtie_three_cycles():
    g, certs = parse_graph_text(BOWTIE_TEXT)
    assert g.vertex_count == 5 and g.edge_count == 7
    assert len(certs) == 3
    assert all(c.length == 3 for c in certs)


def test_parse_rejects_loop_with_line_number(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("n 3\ne 1 1\n")
    assert main(["sympow", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "loop" in err


def test_parse_rejects_duplicate_edge(tmp_path, capsys):
    p = tmp_path / "dup.graph"
    p.write_text("n 3\ne 1 2\ne 2 1\n")
    assert main(["sympow", str(p)]) == 2
    assert "duplicate edge" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check", "sympow"])
def test_non_ascii_vertex_count_exits_2(tmp_path, capsys, verb):
    # '²' passes str.isdigit() but int() refuses it
    p = tmp_path / "sup.graph"
    p.write_text("n \u00b2\ne 1 2\n", encoding="utf-8")
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: line 1: expected 'n <count>'\n"


@pytest.mark.parametrize("verb", ["check", "sympow"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("n 3\ne +1 2\n", "line 2: edge endpoints must be integers"),
        ("n 3\ne 1_0 2\n", "line 2: edge endpoints must be integers"),
        ("n 3\ne 3 \u0661\n", "line 2: edge endpoints must be integers"),
        ("n 3\ne 1 2\ne 2 3\ne 1 3\nc 1 2 \u0663\n", "line 5: cycle vertices must be integers"),
    ],
    ids=["plus-sign", "underscore", "arabic-indic-edge", "arabic-indic-cycle"],
)
def test_non_ascii_digit_vertex_exits_2(tmp_path, capsys, verb, text, message):
    # int() takes '+1', '1_0' and other scripts' digits; the file format does not
    p = tmp_path / "digits.graph"
    p.write_text(text, encoding="utf-8")
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: {message}\n"


def test_vertex_cap_is_checked_before_any_graph_is_built(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(graphs, "Graph", lambda *args: built.append(args))
    p = tmp_path / "huge.graph"
    p.write_text("n 2000000\ne 1 2\n")
    assert main(["sympow", str(p)]) == 2
    assert built == []
    assert capsys.readouterr().err == (
        f"error: {p}: line 1: 2000000 vertices exceed the 16 cap\n"
    )


@pytest.mark.parametrize("verb", ["check", "invariants"])
def test_even_designated_cycle_exits_2(tmp_path, capsys, verb):
    p = tmp_path / "c4.graph"
    p.write_text("n 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\nc 1 2 3 4\n")
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: line 6: designated cycle has even length 4\n"


@pytest.mark.parametrize("verb", ["check", "sympow", "reg", "invariants"])
@pytest.mark.parametrize("vertex", ["7", "0"])
def test_cycle_vertex_out_of_range_exits_2(tmp_path, capsys, verb, vertex):
    p = tmp_path / "triangle.graph"
    p.write_text(f"n 3\ne 1 2\ne 2 3\ne 1 3\nc {vertex} 1 2\n")
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: line 5: cycle vertex {vertex} outside 1..3\n"


@pytest.mark.parametrize("verb", ["check", "sympow", "reg", "invariants"])
def test_format_error_names_the_second_file(tmp_path, capsys, c5_file, verb):
    # the first file reads; the error is at line 5 of the second one
    bad = tmp_path / "b.graph"
    bad.write_text("n 3\ne 1 2\ne 2 3\ne 1 3\ne 1 4\n")
    assert main([verb, c5_file, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 5: edge (1,4) outside 1..3\n"


def test_sympow_output(c5_file, capsys):
    assert main(["sympow", c5_file, "--s-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "s=1: 5 minimal generators, alpha=2" in out
    assert "x1*x2" in out
    assert "s=2: 15 minimal generators, alpha=4" in out


def test_reg_output(c5_file, capsys):
    assert main(["reg", c5_file, "--s-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "regularity 3" in out
    assert "beta[0][2] = 5" in out
    assert "beta[2][5] = 1" in out


def test_reg_prime_field(c5_file, capsys):
    assert main(["reg", c5_file, "--s-max", "1", "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert "regularity 3 (prime)" in out


def test_invariants_output(c5_file, capsys):
    assert main(["invariants", c5_file, "--s-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "alpha(s=4) = 7" in out
    assert "waldschmidt = 5/3" in out
    assert "resurgence = 6/5" in out
    assert "formula agreement: True" in out


def test_invariants_requires_cycle(tmp_path, capsys):
    p = tmp_path / "p3.graph"
    p.write_text("n 3\ne 1 2\ne 2 3\n")
    assert main(["invariants", str(p)]) == 2
    assert "no designated cycle" in capsys.readouterr().err


@pytest.fixture()
def edgeless_file(tmp_path):
    p = tmp_path / "edgeless.graph"
    p.write_text("n 3\n")
    return str(p)


def test_reg_edgeless_graph_exits_2(edgeless_file, capsys):
    # I^(s) of a graph with no edges is the zero ideal, which has no Betti table
    assert main(["reg", edgeless_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {edgeless_file}: the graph has no edges, so I^(1) is the zero ideal\n"


def test_sympow_edgeless_graph_exits_2(edgeless_file, capsys):
    assert main(["sympow", edgeless_file, "--s-min", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {edgeless_file}: the graph has no edges, so I^(2) is the zero ideal\n"


def test_check_json_deterministic(c5_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", c5_file, "--s-max", "2", "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())
    assert rows and all(row["status"] in ("pass", "skipped") for row in rows)
    assert all(dict(row["config"])["seed"] == "2024" for row in rows)


def test_check_suite_flag(c5_file, capsys):
    assert main(["check", c5_file, "--suite", "invariants", "--s-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "invariants/alpha-formula" in out
    assert "decomposition/" not in out


def test_check_csv_format(c5_file, capsys):
    assert main(["check", c5_file, "--suite", "hypotheses", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("suite,check,status")
    assert len(lines) == 2


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/x.graph"]) == 2
    assert "error" in capsys.readouterr().err


def test_vertex_cap(tmp_path, capsys, c5_file):
    lines = ["n 20"] + [f"e {i} {i + 1}" for i in range(1, 20)]
    p = tmp_path / "big.graph"
    p.write_text("\n".join(lines) + "\n")
    assert main(["sympow", str(p)]) == 2
    assert "exceed" in capsys.readouterr().err
    # the flag also tightens the gate below the default
    assert main(["sympow", c5_file, "--max-vertices", "4"]) == 2
    assert "exceed" in capsys.readouterr().err


def test_vertex_cap_below_seeded_graphs(capsys):
    # the seeded graphs have 4 to 6 vertices: under a smaller cap their rows skip
    assert main(["check", "--max-vertices", "3", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)
    assert len(rows) == 10
    for row in rows:
        assert row["instance"]["label"].startswith("seeded-")
        assert row["status"] == "skipped" and "max_vertices cap is 3" in row["reason"]


def test_bad_field_value(c5_file):
    with pytest.raises(SystemExit):
        main(["reg", c5_file, "--field", "fancy"])


def test_unknown_suite_rejected(c5_file):
    with pytest.raises(SystemExit):
        main(["check", c5_file, "--suite", "nope"])


@pytest.mark.parametrize(
    "args, message",
    [
        (["sympow", "--s-min", "0"], "--s-min must be at least 1, not 0"),
        (["check", "--s-min", "0"], "--s-min must be at least 1, not 0"),
        (["sympow", "--s-min", "3", "--s-max", "1"], "--s-max 1 is below --s-min 3"),
        (["invariants", "--s-max", "0"], "--s-max 0 is below --s-min 1"),
        (["check", "--max-vertices", "0"], "--max-vertices must be at least 1, not 0"),
        (["check", "--max-generators", "0"], "--max-generators must be at least 1, not 0"),
        (["reg", "--field", "4"], "--field 4 is not a prime"),
        (["check", "--field", "1"], "--field 1 is not a prime"),
        (["reg", "--field", "32001"], "--field 32001 is not a prime"),
    ],
)
def test_invalid_option_values_exit_2(c5_file, capsys, args, message):
    verb, *rest = args
    files = [] if verb == "check" else [c5_file]
    assert main([verb, *files, *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--s-min", "200", "--s-max", "200"],
        ["--s-min", "1000", "--s-max", "1000", "--suite", "banerjee"],
    ],
)
def test_check_past_the_exponent_limit_exits_2(c5_file, capsys, args):
    # I^s has (x_u x_v)^s among its generators: refused at once, not after building I^127
    assert main(["check", c5_file, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above 127, the packed-monomial limit" in captured.err


def test_large_prime_field_accepted(c5_file, capsys):
    assert main(["reg", c5_file, "--s-max", "1", "--field", "2147483647"]) == 0
    assert "regularity 3 (prime)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite_args, want",
    [
        (
            ["--suite", "regularity", "--s-max", "2"],
            "64dc02e722ca4285c8a39ed999f1b0ef6b7acd2424237bb978ae435940fb2720",
        ),
        (
            ["--s-max", "2"],
            "77bc16881a66f453055e6a8f87e93514b3c27506d27ea521a39bade57eba5776",
        ),
        # the default run: s = 3 Betti tables and capped rows
        ([], "146326b1bec3f17e565bc7afea7c7b0d74ea4759007b01328fc631e90fd401fe"),
        (
            ["--field", "32003", "--suite", "regularity"],
            "9758e786d34b5e237d513cebd7b5bf082c8d1e3eef09cdd36428aabe58da0aea",
        ),
        # another seed for the two seeded sweeps
        (
            ["--seed", "7"],
            "f6e96be00ea93ebd7560d573aa68d05a0f12a018d2637264d1ca0e3a0c4626e3",
        ),
        # the colon rows up to s = 4
        (
            ["--suite", "banerjee", "--s-max", "4"],
            "4aa159eabf4dfd752483b75d263241ec9d513e9e0faeed1c0c6eb12c63b0b87d",
        ),
        # the ordering rows up to s = 4: 55 pass, 9 skipped, orders of up to
        # 989 generators (about 2 s)
        pytest.param(
            ["--suite", "orderings", "--s-max", "4", "--max-generators", "2000"],
            "ddeaf7193d1a3256d2a89b15ce8a4d6e939a054f75d6882cac6d044e87fa8b06",
            marks=pytest.mark.skipif(
                not EXTENDED, reason="set EDGEIDEALS_EXTENDED=1 for the s <= 4 orderings"
            ),
        ),
    ],
    ids=[
        "regularity", "all-suites", "default", "regularity-prime", "seed-7", "banerjee-s4",
        "orderings-s4",
    ],
)
def test_regularity_suite_report_bytes_pinned(tmp_path, suite_args, want):
    # sha256 of these reports; the bytes may only change on purpose.
    out = tmp_path / "report.json"
    args = ["check", "--format", "json", *suite_args]
    assert main(args + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == want


def test_runs_without_numpy():
    # numpy is only a test dependency: the package imports and checks without it
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import edgeideals\n"
        "from edgeideals.cli import main\n"
        "sys.exit(main(['check', '--s-max', '1', '--format', 'json']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)
