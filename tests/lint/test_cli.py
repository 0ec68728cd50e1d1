"""CLI behavior: output formats, exit codes, reports, rule selection."""

import json
import pathlib
import re
import subprocess

import pytest

from repro.lint import REPORT_SCHEMA, build_report, main
from repro.lint.violations import Violation

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

LOCATION_RE = re.compile(r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+): "
                         r"(?P<code>RL\d{3}) (?P<message>.+)$")


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "sim" / "clean.py"
    path.parent.mkdir()
    path.write_text("VALUE = 1\n")
    return path


class TestTextOutput:
    def test_file_line_col_format(self, capsys):
        exit_code = main([str(FIXTURES / "sim" / "bad_random.py")])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines  # violations were printed
        for line in lines:
            assert LOCATION_RE.match(line), line

    def test_output_sorted_by_location(self, capsys):
        main([str(FIXTURES)])
        lines = capsys.readouterr().out.strip().splitlines()
        keys = []
        for line in lines:
            match = LOCATION_RE.match(line)
            keys.append((match["path"], int(match["line"]),
                         int(match["col"]), match["code"]))
        assert keys == sorted(keys)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_file, capsys):
        assert main([str(clean_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one(self, capsys):
        assert main([str(FIXTURES / "sim" / "bad_random.py")]) == 1

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--rules", "RL999", str(FIXTURES)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2

    def test_syntax_error_reported_as_rl000(self, tmp_path, capsys):
        broken = tmp_path / "sim" / "broken.py"
        broken.parent.mkdir()
        broken.write_text("def half(:\n")
        assert main([str(broken)]) == 1
        assert "RL000" in capsys.readouterr().out

    def test_no_files_matched_exits_three(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty)]) == 3
        assert "no Python files" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-cache", "--cache-dir=x"])
    def test_cache_flags_are_unknown(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag, str(FIXTURES)])
        assert exc.value.code == 2


class TestSideEffects:
    def test_writes_nothing_but_its_report(self, tmp_path, monkeypatch,
                                           capsys):
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([str(FIXTURES)]) == 1
        assert list(work.rglob("*")) == []
        target = work / "report.json"
        assert main(["--format", "json", "--out", str(target),
                     str(FIXTURES)]) == 1
        assert list(work.rglob("*")) == [target]


class TestRuleSelection:
    def test_rules_filter(self, tmp_path, capsys):
        broken = tmp_path / "sim" / "broken.py"
        broken.parent.mkdir()
        broken.write_text("def half(:\n")
        paths = [str(FIXTURES), str(broken)]
        assert main(paths) == 1
        everything = capsys.readouterr().out
        # Codes are case-insensitive; RL000 is reported whatever is
        # selected, since an unparsed file cannot be certified.
        assert main(["--rules", "rl001", *paths]) == 1
        out = capsys.readouterr().out
        assert out == everything
        assert "RL000" in out and "RL001" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == ["RL000", "RL001"]


class TestJsonReport:
    def test_schema_and_counts(self, capsys):
        main(["--format", "json", str(FIXTURES)])
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        assert report["total"] == len(report["violations"])
        assert report["total"] > 0
        assert report["counts"]["RL001"] > 0
        assert sum(report["counts"].values()) == report["total"]
        first = report["violations"][0]
        assert set(first) == {"path", "line", "col", "code", "message"}

    def test_out_file_stable_and_sorted(self, tmp_path, capsys):
        target = tmp_path / "lint.json"
        main(["--format", "json", "--out", str(target), str(FIXTURES)])
        text = target.read_text()
        assert text.endswith("\n")
        report = json.loads(text)
        # Stable key order, so a second run over the same tree is
        # byte-identical.
        target2 = tmp_path / "lint2.json"
        main(["--format", "json", "--out", str(target2), str(FIXTURES)])
        assert target2.read_text() == text
        locations = [(v["path"], v["line"], v["col"])
                     for v in report["violations"]]
        assert locations == sorted(locations)

    def test_out_creates_parent_directories(self, tmp_path, capsys):
        target = tmp_path / "reports" / "lint" / "lint.json"
        assert main(["--format", "json", "--out", str(target),
                     str(FIXTURES / "sim" / "good_seeded.py")]) == 0
        assert json.loads(target.read_text())["total"] == 0

    def test_build_report_counts(self):
        violations = [
            Violation("b.py", 2, 0, "RL001", "x"),
            Violation("a.py", 1, 0, "RL000", "y"),
            Violation("a.py", 9, 4, "RL001", "z"),
        ]
        report = build_report(violations, files_checked=2)
        assert report["files_checked"] == 2
        assert report["counts"] == {"RL000": 1, "RL001": 2}
        assert [v["path"] for v in report["violations"]] == [
            "a.py", "a.py", "b.py"
        ]


class TestSarifReport:
    def test_sarif_shape(self, capsys):
        assert main(
            ["--format", "sarif", str(FIXTURES / "sim" / "bad_random.py")]
        ) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert rule_ids == {"RL001"}
        assert run["results"]
        for result in run["results"]:
            assert result["ruleId"].startswith("RL")
            assert result["level"] == "error"
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_out_file(self, tmp_path, clean_file, capsys):
        target = tmp_path / "lint.sarif"
        assert main(
            ["--format", "sarif", "--out", str(target), str(clean_file)]
        ) == 0
        log = json.loads(target.read_text())
        assert log["runs"][0]["results"] == []


class TestShowSuppressed:
    def test_stale_directive_fails(self, tmp_path, capsys):
        path = tmp_path / "sim" / "mixed.py"
        path.parent.mkdir()
        path.write_text(
            "import random  # repro-lint: disable=RL001\n"
            "VALUE = 1  # repro-lint: disable=RL001\n"
        )
        assert main(["--show-suppressed", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert any("disable=RL001 used" in line for line in lines)
        assert any(":2: disable=RL001 STALE" in line for line in lines)
        assert "1 stale" in captured.err

    def test_all_used_passes(self, tmp_path, capsys):
        path = tmp_path / "sim" / "used.py"
        path.parent.mkdir()
        path.write_text("import random  # repro-lint: disable=RL001\n")
        assert main(["--show-suppressed", str(path)]) == 0
        assert "0 stale" in capsys.readouterr().err


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@example.invalid", "-c", "user.name=t",
         *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


class TestChanged:
    @pytest.fixture()
    def git_repo(self, tmp_path):
        repo = tmp_path / "work"
        (repo / "sim").mkdir(parents=True)
        (repo / "sim" / "a.py").write_text("import random\n")
        (repo / "sim" / "b.py").write_text("import random\n")
        _git(repo, "init", "-q")
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "seed")
        return repo

    def test_reports_only_changed_files(self, git_repo, monkeypatch,
                                        capsys):
        monkeypatch.chdir(git_repo)
        (git_repo / "sim" / "a.py").write_text(
            "import random\nimport random\n"
        )
        assert main(["--changed", "sim"]) == 1
        out = capsys.readouterr().out
        assert "a.py" in out
        assert "b.py" not in out

    def test_clean_diff_exits_zero(self, git_repo, monkeypatch, capsys):
        monkeypatch.chdir(git_repo)
        assert main(["--changed", "sim"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no checked files changed" in captured.err

    def test_untracked_files_count_as_changed(self, git_repo,
                                              monkeypatch, capsys):
        monkeypatch.chdir(git_repo)
        (git_repo / "sim" / "fresh.py").write_text("import random\n")
        assert main(["--changed", "sim"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "a.py" not in out

    def test_unchanged_files_are_not_parsed(self, git_repo, monkeypatch,
                                            capsys):
        from repro.lint import cli

        parsed = []
        make_entry = cli._make_entry

        def spy(path, display, source):
            parsed.append(path.name)
            return make_entry(path, display, source)

        monkeypatch.setattr(cli, "_make_entry", spy)
        monkeypatch.chdir(git_repo)
        (git_repo / "sim" / "a.py").write_text("VALUE = 1\n")
        assert main(["--changed", "sim"]) == 0
        assert parsed == ["a.py"]
        assert "1 file clean" in capsys.readouterr().err
