"""Each rule demonstrated failing (and passing) on purpose-built fixtures."""

import pathlib

from repro.lint import lint_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint_fixture(*parts):
    path = FIXTURES.joinpath(*parts)
    violations, files_checked = lint_paths([str(path)])
    assert files_checked == 1
    return violations


def codes_and_lines(violations):
    return [(v.code, v.line) for v in violations]


class TestRL001Determinism:
    def test_flags_every_hazard(self):
        violations = lint_fixture("sim", "bad_random.py")
        assert codes_and_lines(violations) == [
            ("RL001", 12),  # import random (the REDQueue fallback bug)
            ("RL001", 14),  # random.Random(0)
            ("RL001", 19),  # import numpy.random
            ("RL001", 21),  # numpy.random.rand()
            ("RL001", 25),  # from time import perf_counter
            ("RL001", 34),  # for ... in {set comprehension}
            ("RL001", 36),  # list({...})
        ]

    def test_clean_seeded_code_passes(self):
        assert lint_fixture("sim", "good_seeded.py") == []

    def test_asyncio_timers_banned_in_sim_zones(self):
        violations = lint_fixture("sim", "bad_asyncio.py")
        assert codes_and_lines(violations) == [
            ("RL001", 9),   # import asyncio
            ("RL001", 11),  # asyncio.get_event_loop()
            ("RL001", 15),  # from asyncio import sleep
            ("RL001", 21),  # loop.time()
            ("RL001", 25),  # _loop.time()
        ]

    def test_service_zone_keeps_its_wall_clock(self):
        # The same asyncio/time idioms that fail under sim/ are the
        # service zone's whole point.
        assert lint_fixture("service", "clean_service.py") == []

    def test_service_zone_still_bans_entropy(self):
        violations = lint_fixture("service", "bad_service_random.py")
        assert codes_and_lines(violations) == [
            ("RL001", 11),  # import random
            ("RL001", 13),  # random.random()
            ("RL001", 19),  # uuid.uuid4()
            ("RL001", 23),  # list over a set comprehension
        ]

    def test_scoped_to_simulation_dirs(self, tmp_path):
        # The same hazards outside sim/core/transport/media are ignored.
        outside = tmp_path / "tools" / "helper.py"
        outside.parent.mkdir()
        outside.write_text("import random\nx = random.random()\n")
        violations, _ = lint_paths([str(outside)])
        assert violations == []


class TestSuppressions:
    def test_line_and_file_directives(self):
        violations = lint_fixture("sim", "suppressed.py")
        # Only the deliberately unsuppressed hazard survives.
        assert codes_and_lines(violations) == [("RL001", 18)]


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        violations, files_checked = lint_paths([str(repo_root / "src")])
        assert violations == []
        assert files_checked > 50  # the whole package, not a subset
