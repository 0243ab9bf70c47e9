"""Command-line surface: exit codes, formats, and error handling."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starfactor

from starfactor.cli import (
    EXIT_CAP,
    EXIT_MEMBER,
    EXIT_NOT_MEMBER,
    EXIT_USAGE,
    EXIT_VACUOUS,
    run,
)
from starfactor.graph import Graph, to_graph6

from conftest import DATA_DIR, cycle, disjoint_union, format_edge_list, path, star


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.edgelist"
    p.write_text(format_edge_list(cycle(5)))
    return str(p)


@pytest.fixture
def c6_g6_file(tmp_path):
    p = tmp_path / "c6.g6"
    p.write_text(to_graph6(cycle(6)) + "\n")
    return str(p)


class TestClassifyCommand:
    def test_member_c5(self, c5_file):
        code, out, _ = invoke(["classify", c5_file])
        assert code == EXIT_MEMBER
        assert out.splitlines()[0] == "Member (C5)"

    def test_not_member_exit_code(self, c6_g6_file):
        code, out, _ = invoke(["classify", c6_g6_file])
        assert code == EXIT_NOT_MEMBER
        assert out.startswith("NotMember")

    def test_json_output_schema(self, c5_file):
        code, out, _ = invoke(["classify", c5_file, "--output", "json"])
        payload = json.loads(out)
        assert payload["verdict"] == "Member"
        assert payload["caseTag"] == "C5"
        assert payload["girth"] == 5
        assert len(payload["witness"]) == 5

    def test_stdin_edgelist(self):
        code, out, _ = invoke(["classify", "-"], stdin_text=format_edge_list(path(4)))
        assert code == EXIT_MEMBER
        assert "Member" in out

    def test_stdin_graph6_via_format_flag(self):
        code, out, _ = invoke(
            ["classify", "-", "--format", "graph6"], stdin_text=to_graph6(cycle(7)) + "\n"
        )
        assert code == EXIT_MEMBER
        assert "C7" in out

    def test_vacuous_exit_code(self):
        code, out, _ = invoke(["classify", "-"], stdin_text="1 0\n")
        assert code == EXIT_VACUOUS
        assert "Vacuous" in out


class TestOracleCommand:
    def test_member_with_witness(self, c5_file):
        code, out, _ = invoke(["oracle", c5_file])
        assert code == EXIT_MEMBER
        assert out.splitlines()[0] == "Member"
        assert "witness:" in out

    def test_refutation_json(self, c6_g6_file):
        code, out, _ = invoke(["oracle", c6_g6_file, "--output", "json"])
        assert code == EXIT_NOT_MEMBER
        payload = json.loads(out)
        assert payload["verdict"] == "NotMember"
        assert payload["refutation"]["coeffs"]
        assert len(payload["refutation"]["forcedZero"]) == 6

    def test_cap_exit_code(self, c6_g6_file):
        code, out, _ = invoke(["oracle", c6_g6_file, "--cap", "2"])
        assert code == EXIT_CAP

    def test_large_matching_single_factor(self):
        # a perfect matching has one star-factor, each edge a K_{1,1}
        text = format_edge_list(Graph.from_edges(3000, [(2 * i, 2 * i + 1) for i in range(1500)]))
        code, out, _ = invoke(["oracle", "-", "--output", "json"], stdin_text=text)
        assert code == EXIT_MEMBER
        payload = json.loads(out)
        assert payload["verdict"] == "Member"
        assert payload["factorCount"] == 1


class TestFactorsCommand:
    def test_p4_single_factor(self, tmp_path):
        p = tmp_path / "p4.edgelist"
        p.write_text(format_edge_list(path(4)))
        code, out, _ = invoke(["factors", str(p)])
        assert code == EXIT_MEMBER
        assert out.splitlines()[0] == "1 star-factor"

    def test_json_count_and_spectrum(self, c5_file):
        code, out, _ = invoke(["factors", c5_file, "--output", "json"])
        payload = json.loads(out)
        assert payload["count"] == 5
        assert payload["spectrum"] == [[3, 5]]
        assert len(payload["factors"]) == 5


class TestGirthAndWitness:
    def test_girth_values(self, c5_file):
        code, out, _ = invoke(["girth", c5_file])
        assert code == 0 and out.strip() == "5"
        code, out, _ = invoke(["girth", "-"], stdin_text=format_edge_list(path(3)))
        assert out.strip() == "Infinite"

    def test_girth_json(self, c5_file):
        code, out, _ = invoke(["girth", c5_file, "--output", "json"])
        assert code == 0 and json.loads(out) == {"girth": 5}
        code, out, _ = invoke(["girth", "-", "--output", "json"], stdin_text=format_edge_list(path(3)))
        assert code == 0 and json.loads(out) == {"girth": None}

    def test_witness_prints_edge_weight_triples(self):
        code, out, _ = invoke(["witness", "-"], stdin_text=format_edge_list(path(6)))
        assert code == EXIT_MEMBER
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(len(line.split()) == 3 for line in lines)

    def test_witness_on_non_member(self, c6_g6_file):
        code, out, _ = invoke(["witness", c6_g6_file])
        assert code == EXIT_NOT_MEMBER
        assert out.strip() == "NotMember"

    def test_witness_json(self, c6_g6_file):
        code, out, _ = invoke(["witness", "-", "--output", "json"], stdin_text=format_edge_list(path(6)))
        assert code == EXIT_MEMBER
        payload = json.loads(out)
        assert payload["verdict"] == "Member"
        assert [e["weight"] for e in payload["witness"]] == [1, 1, 2, 1, 1]
        code, out, _ = invoke(["witness", c6_g6_file, "--output", "json"])
        assert code == EXIT_NOT_MEMBER
        assert json.loads(out) == {"verdict": "NotMember", "witness": None}


    @pytest.mark.parametrize("command", ["classify", "witness", "girth"])
    def test_huge_edgeless_graph_without_adjacency(self, command, monkeypatch):
        # 10^9 adjacency lists would take tens of GB: a call to build them fails
        small = invoke([command, "-"], stdin_text="4 0\n")
        monkeypatch.setattr(Graph, "adjacency", property(lambda g: pytest.fail("adjacency built")))
        assert invoke([command, "-"], stdin_text="1000000000 0\n") == small

    @pytest.mark.parametrize("command", ["classify", "witness", "girth"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_huge_graph_with_a_triangle_without_adjacency(self, command, output, monkeypatch):
        # the girth BFS runs on the three vertices that edges touch
        triangle = "0 1\n1 2\n0 2\n"
        argv = [command, "-", "--output", output]
        small = invoke(argv, stdin_text="4 3\n" + triangle)
        monkeypatch.setattr(Graph, "adjacency", property(lambda g: pytest.fail("adjacency built")))
        assert invoke(argv, stdin_text="1000000000 3\n" + triangle) == small

    FALLBACK_MEMBERS = {"c4": cycle(4), "c5_plus_k3": disjoint_union(cycle(5), cycle(3))}

    @pytest.mark.parametrize("name", FALLBACK_MEMBERS)
    @pytest.mark.parametrize("command", ["classify", "witness"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_fallback_member_weights_without_edge_index(self, name, command, output, monkeypatch):
        # a girth <= 4 member's witness weights find their edges by bisection
        argv = [command, "-", "--output", output]
        stdin_text = format_edge_list(self.FALLBACK_MEMBERS[name])
        unpatched = invoke(argv, stdin_text)
        monkeypatch.setattr(Graph, "edge_index", property(lambda g: pytest.fail("edge_index built")))
        assert invoke(argv, stdin_text) == unpatched

    def test_fallback_member_golden_without_edge_index(self, monkeypatch):
        monkeypatch.setattr(Graph, "edge_index", property(lambda g: pytest.fail("edge_index built")))
        stdin_text = format_edge_list(self.FALLBACK_MEMBERS["c5_plus_k3"])
        golden = json.loads((DATA_DIR / "cli_golden.json").read_text(encoding="utf-8"))
        cases = [
            c for c in golden if c["graph"] == "c5_plus_k3" and c["argv"][0] in ("classify", "witness")
        ]
        assert len(cases) == 4
        for case in cases:
            code, out, _ = invoke([case["argv"][0], "-", *case["argv"][1:]], stdin_text)
            assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


class TestCapAndVacuousJson:
    """Cap and vacuous outcomes print a JSON verdict under --output json and
    the same text as before without it."""

    DIAMOND = format_edge_list(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))

    @pytest.mark.parametrize("command", ["classify", "witness", "factors"])
    def test_cap_exceeded(self, command):
        code, out, _ = invoke([command, "-", "--cap", "1", "--output", "json"], self.DIAMOND)
        assert code == EXIT_CAP
        assert json.loads(out) == {"verdict": "CapExceeded", "cap": 1}
        code, out, _ = invoke([command, "-", "--cap", "1"], self.DIAMOND)
        assert code == EXIT_CAP
        assert out == "CapExceeded (more than 1 star-factors)\n"

    def test_factors_vacuous(self):
        p3_plus_isolated = format_edge_list(Graph.from_edges(4, [(0, 1), (1, 2)]))
        code, out, _ = invoke(["factors", "-", "--output", "json"], p3_plus_isolated)
        assert code == EXIT_VACUOUS
        assert json.loads(out) == {"verdict": "Vacuous"}
        code, out, _ = invoke(["factors", "-"], p3_plus_isolated)
        assert code == EXIT_VACUOUS
        assert out == "Vacuous (isolated vertex: no star-factors)\n"


class TestCensusCommand:
    def test_small_range_text(self):
        code, out, _ = invoke(["census", "-n", "1..4", "--workers", "1"])
        assert code == 0
        assert "starfactor census" in out
        assert "disagreements" in out

    def test_girth_filter_and_tsv(self):
        code, out, _ = invoke(
            ["census", "-n", "5..5", "--girth-min", "5", "--workers", "1", "--output", "tsv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "n"
        total = sum(int(line.split("\t")[2]) for line in lines[1:])
        assert total == 137

    def test_graph6_file_input(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(to_graph6(cycle(5)) + "\n" + to_graph6(cycle(6)) + "\n")
        code, out, _ = invoke(
            ["census", "--graph6-file", str(p), "--workers", "1", "--output", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(r["graphCount"] for r in payload["rows"]) == 2
        assert payload["disagreements"] == []

    @pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["empty", "blank"])
    def test_graph6_file_without_graphs_gives_an_empty_report(self, tmp_path, text):
        p = tmp_path / "graphs.g6"
        p.write_text(text)
        code, out, err = invoke(["census", "--graph6-file", str(p), "--workers", "1", "--output", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["rows"] == [] and payload["disagreements"] == []

    def test_census_without_inputs_is_usage_error(self):
        code, _, err = invoke(["census"])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_negative_workers_rejected(self):
        code, out, err = invoke(["census", "-n", "1..3", "--workers", "-2"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "--workers" in err


class TestErrorsAndConfig:
    def test_unreadable_file(self):
        code, _, err = invoke(["classify", "/nonexistent/file"])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_malformed_edgelist(self):
        code, _, err = invoke(["classify", "-"], stdin_text="not a graph\n")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_edge_line_with_three_tokens(self):
        code, out, err = invoke(["classify", "-"], stdin_text="2 1\n0 1 2\n")
        assert code == EXIT_USAGE
        assert out == "" and err == "error: expected 'u v', got '0 1 2'\n"

    def test_malformed_graph6(self):
        code, _, err = invoke(["classify", "-", "--format", "graph6"], stdin_text="~zz\n")
        assert code == EXIT_USAGE

    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate", "x"])
        assert code == EXIT_USAGE

    def test_format_inferred_from_extension(self, c6_g6_file):
        code, _, _ = invoke(["girth", c6_g6_file])
        assert code == 0

    def test_env_var_cap(self, c6_g6_file, monkeypatch):
        monkeypatch.setenv("STARFACTOR_CAP", "2")
        code, _, _ = invoke(["oracle", c6_g6_file])
        assert code == EXIT_CAP

    def test_invalid_env_var_cap(self, c5_file, monkeypatch):
        monkeypatch.setenv("STARFACTOR_CAP", "zero")
        code, _, err = invoke(["oracle", c5_file])
        assert code == EXIT_USAGE
        assert "STARFACTOR_CAP" in err

    def test_explicit_cap_overrides_env(self, c5_file, monkeypatch):
        monkeypatch.setenv("STARFACTOR_CAP", "1")
        code, _, _ = invoke(["oracle", c5_file, "--cap", "100"])
        assert code == EXIT_MEMBER

    def test_negative_cap_rejected(self, c5_file):
        code, _, err = invoke(["oracle", c5_file, "--cap", "-3"])
        assert code == EXIT_USAGE

    def test_zero_cap_rejected(self, c5_file):
        code, _, err = invoke(["oracle", c5_file, "--cap", "0"])
        assert code == EXIT_USAGE
        assert "cap must be >= 1" in err

    def test_non_ascii_graph_file(self, tmp_path):
        p = tmp_path / "c5.edgelist"
        p.write_bytes(format_edge_list(cycle(5)).encode() + b"# caf\xc3\xa9\n")
        code, out, err = invoke(["classify", str(p)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "non-ASCII byte 0xc3" in err

    def test_non_ascii_graph6_stdin(self):
        code, out, err = invoke(["classify", "-", "--format", "graph6"], stdin_text="D\u00e9c\n")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "non-ASCII" in err

    def test_undecodable_stdin_byte(self):
        # a stream decoded with surrogateescape, as stdin is under the
        # POSIX locale, holds the undecodable byte 0xff as '\udcff'
        code, out, err = invoke(["classify", "-"], stdin_text="\udcff\udcfe 1\n")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: cannot read stdin: non-ASCII byte 0xff at offset 0\n"

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8:surrogateescape"])
    def test_non_utf8_stdin_process(self, encoding):
        # strict UTF-8 fails inside read(), surrogateescape after it: both
        # give the file path's one error line, with no traceback
        env = dict(os.environ, PYTHONIOENCODING=encoding)
        src = str(Path(starfactor.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "starfactor.cli", "classify", "-"],
            input=b"\xff\xfe 1\n", capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, b"")
        assert proc.stderr == b"error: cannot read stdin: non-ASCII byte 0xff at offset 0\n"

    def test_non_ascii_graph6_file(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_bytes(to_graph6(cycle(5)).encode() + b"\n\xff\n")
        code, out, err = invoke(["census", "--graph6-file", str(p), "--workers", "1"])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "non-ASCII byte 0xff" in err

    def test_bad_census_range(self):
        code, _, err = invoke(["census", "-n", "1..9"])
        assert code == EXIT_USAGE

    def test_huge_census_range_rejected_before_expansion(self):
        code, _, err = invoke(["census", "-n", "1..1000000000000"])
        assert code == EXIT_USAGE
        assert "built-in census supports n in 1..7" in err

    def test_empty_census_range(self):
        code, _, err = invoke(["census", "-n", "5..3"])
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "'5..3' is empty" in err

    def test_non_numeric_census_range(self):
        code, _, err = invoke(["census", "-n", "abc"])
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "'abc' is not N or MIN..MAX" in err


class TestArgparseStreams:
    """argparse's own output goes to the streams that ``run`` was given."""

    def test_usage_error_on_given_stderr(self, c5_file, capsys):
        code, out, err = invoke(["oracle", c5_file, "--cap", "x"])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: starfactor oracle")
        assert "error: argument --cap: invalid int value: 'x'" in err
        assert capsys.readouterr() == ("", "")

    def test_help_on_given_stdout(self, capsys):
        code, out, err = invoke(["--help"])
        assert code == 0 and err == ""
        assert out.startswith("usage: starfactor") and "census" in out
        assert capsys.readouterr() == ("", "")

    def test_subcommand_help_on_given_stdout(self, capsys):
        code, out, err = invoke(["census", "--help"])
        assert code == 0 and err == ""
        assert out.startswith("usage: starfactor census") and "--girth-min" in out
        assert capsys.readouterr() == ("", "")

    def test_version_on_given_stdout(self, capsys):
        code, out, err = invoke(["--version"])
        assert (code, out, err) == (0, "starfactor 0.1.0\n", "")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["--version"], ["oracle", "-", "--cap", "x"]],
        ids=["help", "version", "usage-error"],
    )
    def test_sys_streams_restored(self, argv):
        stdout, stderr = sys.stdout, sys.stderr
        invoke(argv)
        assert sys.stdout is stdout and sys.stderr is stderr


def cli_env():
    """The environment for running ``python -m starfactor.cli`` as a
    child process, with this checkout's package first on its path."""
    env = dict(os.environ)
    src = str(Path(starfactor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_with_closed(redirect, argv):
    """Run the CLI under ``sh`` with one descriptor closed by ``redirect``
    (``<&-`` or ``>&-``), so that Python starts with that stream None."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "starfactor.cli", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=cli_env(), timeout=60,
    )


class TestClosedStdout:
    def test_closed_stdout_exits_1_without_traceback(self):
        # the pipe's read end is closed before the child starts, so its
        # first write to stdout fails, as under `| head -c 100` once head
        # has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "starfactor.cli", "factors",
                 str(DATA_DIR / "petersen.g6"), "--output", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr


class TestClosedAtStartup:
    CLOSED_STDOUT = b"error: cannot write stdout: it is closed\n"

    @pytest.mark.parametrize(
        "redirect, argv, message",
        [
            ("<&-", ["oracle", "-"], b"error: cannot read stdin: it is closed\n"),
            (">&-", ["oracle", str(DATA_DIR / "petersen.g6")], CLOSED_STDOUT),
            (">&-", ["census", "-n", "1..3"], CLOSED_STDOUT),
            (">&-", ["--help"], CLOSED_STDOUT),
        ],
        ids=["stdin-oracle", "stdout-oracle", "stdout-census", "stdout-help"],
    )
    def test_one_error_line_and_exit_1(self, redirect, argv, message):
        proc = run_with_closed(redirect, argv)
        assert proc.returncode == EXIT_USAGE and proc.stdout == b""
        assert proc.stderr == message
