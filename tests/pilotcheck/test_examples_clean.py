"""Every shipped program analyzes clean — the analyzer must not cry
wolf on the paper's own listings.  The one deliberate exception is
examples/deadlock_detector.py's ``buggy_main``, which exists to
deadlock: PC003 must fire on it."""

import importlib.util
import os

import pytest

from repro.apps import (
    GOOD,
    INSTANCE_A,
    INSTANCE_B,
    CollisionConfig,
    Lab2Config,
    Lab3Config,
    lab1_main,
    lab2_main,
    lab3_main,
)
from repro.apps.collisions import collisions_main
from repro.apps.labs import DYNAMIC, STATIC
from repro.apps.thumbnail import ThumbnailConfig, thumbnail_main
from repro.pilot import PilotConfig
from repro.pilotcheck import analyze_program

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def load_example(name):
    path = os.path.join(EXAMPLES, name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_clean(main, nprocs, argv=(), config=None):
    analysis = analyze_program(main, nprocs, argv, config=config)
    assert analysis.findings == [], [f.render() for f in analysis.findings]
    return analysis


SMALL = CollisionConfig(nrecords=400)


class TestAppsAnalyzeClean:
    def test_lab1(self):
        assert_clean(lab1_main, 5)

    def test_lab2_classic(self):
        assert_clean(lambda argv: lab2_main(argv, Lab2Config()), 6)

    def test_lab2_autoalloc(self):
        assert_clean(
            lambda argv: lab2_main(argv, Lab2Config(use_autoalloc=True)), 6)

    @pytest.mark.parametrize("scheme", [STATIC, DYNAMIC])
    def test_lab3(self, scheme):
        assert_clean(lambda argv: lab3_main(argv, scheme, Lab3Config()), 6)

    @pytest.mark.parametrize("variant", [GOOD, INSTANCE_A, INSTANCE_B])
    def test_collisions(self, variant):
        assert_clean(
            lambda argv: collisions_main(argv, variant, SMALL), 6)

    def test_thumbnail(self):
        assert_clean(
            lambda argv: thumbnail_main(argv, ThumbnailConfig()), 8)

    def test_ops_fully_resolved_for_thumbnail(self):
        """The hardest target: dict-of-channels with PI_Select fan-in.
        Nothing may degrade to an unresolved target (that would
        silently weaken every check)."""
        analysis = analyze_program(
            lambda argv: thumbnail_main(argv, ThumbnailConfig()), 8)
        assert analysis.notes == []
        for rank_ops in analysis.rank_ops.values():
            assert not rank_ops.opaque
            for op in rank_ops.ops:
                assert op.channels is not None


class TestExamplesAnalyzeClean:
    def test_quickstart(self):
        module = load_example("quickstart.py")
        assert_clean(module.main, 5, config=PilotConfig(services="j"))

    def test_deadlock_detector_buggy_main_fires_pc003(self):
        module = load_example("deadlock_detector.py")
        analysis = analyze_program(module.buggy_main, 3)
        assert [f.code for f in analysis.findings] == ["PC003"]
        (finding,) = analysis.findings
        assert finding.ranks == (0, 1)

    def test_chaos_pipeline_app(self):
        from tests.chaos.test_chaos import pipeline_app

        assert_clean(pipeline_app(2, 12), 3)
        assert_clean(pipeline_app(3, 5), 4)
