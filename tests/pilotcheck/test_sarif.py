"""SARIF 2.1.0 output: structure, rule table, char-offset regions, CLI."""

from __future__ import annotations

import json

from repro.mpe.clog2 import write_clog2
from repro.pilot import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
)
from repro.pilotcheck import REGISTRY, Finding, analyze_program, to_sarif
from repro.pilotcheck.__main__ import main as cli_main
from repro.pilotcheck.sarif import SARIF_SCHEMA, sarif_json


def mismatched_main(argv):
    def worker(index, arg2):
        PI_Write(chan, "%d", index)
        return 0

    PI_Configure(argv)
    w = PI_CreateProcess(worker, 0)
    chan = PI_CreateChannel(w, PI_MAIN)
    PI_StartAll()
    PI_Read(chan, "%100f")
    PI_StopMain(0)


class TestSarifStructure:
    def test_log_shape(self):
        log = to_sarif([])
        assert log["version"] == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "pilotcheck"
        assert [r["id"] for r in driver["rules"]] == sorted(REGISTRY)
        for rule in driver["rules"]:
            info = REGISTRY[rule["id"]]
            assert rule["shortDescription"]["text"] == info.meaning
            assert rule["defaultConfiguration"]["level"] == info.severity
        assert log["runs"][0]["results"] == []

    def test_result_carries_rule_index_and_level(self):
        log = to_sarif([Finding("TR005", "torn file", severity="error")],
                       artifact="run.clog2")
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "TR005"
        assert result["level"] == "error"
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "TR005"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "run.clog2"

    def test_properties_carry_rank_and_object(self):
        log = to_sarif([Finding("PC003", "cycle", ranks=(1, 2),
                                obj="chan[0]")])
        (result,) = log["runs"][0]["results"]
        assert result["properties"] == {"ranks": [1, 2], "object": "chan[0]"}

    def test_sarif_json_parses_back(self):
        text = sarif_json([Finding("TR001", "backwards clock", rank=3)])
        assert json.loads(text)["version"] == "2.1.0"


class TestFormatOffsets:
    def test_pc001_region_reuses_format_item_offsets(self):
        analysis = analyze_program(mismatched_main, 2)
        pc001 = [f for f in analysis.findings if f.code == "PC001"]
        assert pc001 and pc001[0].char_range is not None
        start, end = pc001[0].char_range
        # "%100f" item sits at offset 0 of the read format string.
        assert (start, end) == (0, len("%100f"))
        log = to_sarif(pc001)
        region = (log["runs"][0]["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        assert region["charOffset"] == 0
        assert region["charLength"] == len("%100f")
        assert region["startLine"] > 0


class TestCli:
    def test_analyze_format_sarif(self, capsys):
        code = cli_main(["analyze",
                         f"{__file__}:mismatched_main",
                         "--nprocs", "2", "--format", "sarif"])
        assert code == 2  # PC001 is an error
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert any(r["ruleId"] == "PC001"
                   for r in log["runs"][0]["results"])

    def test_lint_trace_format_sarif(self, tmp_path, capsys):
        from repro.mpe.clog2 import Clog2File

        clean = str(tmp_path / "clean.clog2")
        write_clog2(clean, Clog2File(1e-6, 1, [], []))
        torn = str(tmp_path / "torn.clog2")
        open(torn, "wb").write(open(clean, "rb").read()[:-3])
        code = cli_main(["lint-trace", clean, torn, "--format", "sarif"])
        assert code == 2
        log = json.loads(capsys.readouterr().out)
        results = log["runs"][0]["results"]
        assert any(r["ruleId"] == "TR005" for r in results)
        uris = {r["locations"][0]["physicalLocation"]["artifactLocation"]
                ["uri"] for r in results}
        assert torn in uris and clean not in uris  # clean file adds nothing
