"""Unit tests for the suppression-comment parser."""

from repro.lint.suppressions import Suppressions


class TestScan:
    def test_line_directive(self):
        sup = Suppressions.scan("x = 1  # repro-lint: disable=RL001\n")
        assert sup.covers("RL001", 1)
        assert not sup.covers("RL001", 2)
        assert not sup.covers("RL005", 1)

    def test_multiple_codes(self):
        sup = Suppressions.scan("x = 1  # repro-lint: disable=RL001,RL003\n")
        assert sup.covers("RL001", 1)
        assert sup.covers("RL003", 1)
        assert not sup.covers("RL005", 1)

    def test_file_directive_covers_every_line(self):
        sup = Suppressions.scan("# repro-lint: disable-file=RL009\nx = 1\n")
        assert sup.covers("RL009", 1)
        assert sup.covers("RL009", 999)
        assert not sup.covers("RL001", 1)

    def test_case_and_spacing_tolerance(self):
        sup = Suppressions.scan("x = 1  #  repro-lint:  disable = rl001\n")
        assert sup.covers("RL001", 1)

    def test_plain_comments_ignored(self):
        sup = Suppressions.scan("# disable=RL001 is mentioned in prose\n")
        assert not sup.covers("RL001", 1)
        assert sup.file_level == frozenset()

    def test_unknown_future_codes_accepted(self):
        sup = Suppressions.scan("x = 1  # repro-lint: disable=RL099\n")
        assert sup.covers("RL099", 1)

    def test_directive_inside_docstring_is_documentation(self):
        source = (
            '"""Write ``# repro-lint: disable=RL001`` to suppress.\n'
            "\n"
            "Or ``# repro-lint: disable-file=RL003`` for the file.\n"
            '"""\n'
            "x = 1\n"
        )
        sup = Suppressions.scan(source)
        assert not sup.covers("RL001", 1)
        assert sup.file_level == frozenset()
        assert sup.directives == ()

    def test_broken_file_falls_back_to_line_scan(self):
        source = (
            "def broken(:\n"
            "x = 1  # repro-lint: disable=RL001\n"
        )
        sup = Suppressions.scan(source)
        assert sup.covers("RL001", 2)
