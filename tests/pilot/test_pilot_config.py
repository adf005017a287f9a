"""PilotConfig: the one run description.

The ``-pi*`` flag grammar and its layering over a base config,
``resolved()`` runtime defaults, validation, and the rule that flags
never reach ``run_pilot``'s argv.
"""

import pytest

from repro.pilot import (
    CHECK_API,
    PilotConfig,
    PilotCosts,
    resume_pilot,
    run_pilot,
)
from repro.pilot.api import PI_Configure, PI_StartAll, PI_StopMain
from repro.pilot.config import RESUME_GUARDED_FIELDS, RUNTIME_DEFAULTS
from repro.pilot.errors import PilotError
from repro.pilotcheck import capture_program


def tiny_main(argv):
    PI_Configure(argv)
    PI_StartAll()
    PI_StopMain(0)
    return "done"


class TestRoundTrips:
    def test_from_argv_strips_flags_and_layers(self):
        cfg, leftover = PilotConfig.from_argv(
            ["prog", "-pisvc=dj", "-picheck=2", "-piwatchdog=5:checkpoint",
             "-pirecover=msglog", "app-arg"])
        assert leftover == ["prog", "app-arg"]
        assert cfg.services == "dj"
        assert cfg.check_level == 2
        assert cfg.watchdog_timeout == 5.0
        assert cfg.watchdog_action == "checkpoint"
        assert cfg.recover == "msglog"

    def test_bare_watchdog_leaves_action_unset(self):
        # -piwatchdog=5 must not pin watchdog_action: an explicit
        # "abort" would manufacture resume conflicts out of thin air.
        cfg, _ = PilotConfig.from_argv(["-piwatchdog=5"])
        assert cfg.watchdog_timeout == 5.0
        assert cfg.watchdog_action is None

    def test_to_argv_from_argv_round_trip(self):
        cfg = PilotConfig(services="cj", check_level=3,
                          watchdog_timeout=2.5, watchdog_action="checkpoint",
                          recover="msglog", journal_dir="/tmp/j",
                          fault_plan_path="/tmp/plan.json")
        back, leftover = PilotConfig.from_argv(cfg.to_argv())
        assert leftover == []
        assert back == cfg

    def test_from_argv_layers_on_base(self):
        base = PilotConfig(scheduler="coroutine", seed=11)
        cfg, _ = PilotConfig.from_argv(["-picheck=0"], base)
        assert cfg.scheduler == "coroutine"  # carried over
        assert cfg.seed == 11  # flags exist for neither -> untouched
        assert cfg.check_level == 0

    def test_from_env(self):
        cfg = PilotConfig.from_env({"REPRO_PI_SVC": "d",
                                    "REPRO_PI_WATCHDOG": "3:abort",
                                    "UNRELATED": "x"})
        assert cfg.services == "d"
        assert cfg.watchdog_timeout == 3.0
        assert cfg.watchdog_action == "abort"

    def test_flag_equal_to_default_still_wins_over_base(self):
        # Flags win over base whatever their value, including the
        # runtime default.
        cfg, _ = PilotConfig.from_argv(["-picheck=1"],
                                       PilotConfig(check_level=3))
        assert cfg.check_level == 1
        cfg, _ = PilotConfig.from_argv(["-pirecover=off"],
                                       PilotConfig(recover="msglog"))
        assert cfg.recover is None
        base = PilotConfig(watchdog_timeout=9.0, watchdog_action="checkpoint")
        cfg, _ = PilotConfig.from_argv(["-piwatchdog=5:abort"], base)
        assert (cfg.watchdog_timeout, cfg.watchdog_action) == (5.0, "abort")

    def test_env_equal_to_default_still_wins_over_base(self):
        cfg = PilotConfig.from_env({"REPRO_PI_CHECK": "1",
                                    "REPRO_PI_RECOVER": "off"},
                                   base=PilotConfig(check_level=0,
                                                    recover="msglog"))
        assert cfg.check_level == 1
        assert cfg.recover is None

    def test_stream_port_from_env(self):
        cfg = PilotConfig.from_env({"REPRO_PI_SVC": "jv",
                                    "REPRO_PI_STREAM_PORT": "8123"})
        assert cfg.stream == 8123 and cfg.stream_port == 8123


class TestResolved:
    def test_resolved_fills_runtime_defaults(self):
        cfg = PilotConfig().resolved()
        for name, value in RUNTIME_DEFAULTS.items():
            assert getattr(cfg, name) == value, name
        assert cfg.services == ""
        assert cfg.check_level == CHECK_API
        # "No model given" stays unset: the journal manifest records
        # costs/network only when the caller chose them.
        assert cfg.costs is None and cfg.network is None
        assert cfg.skews is None and cfg.faults is None

    def test_resolved_keeps_explicit_values(self):
        cfg = PilotConfig(services="jd", check_level=0, scheduler="coroutine",
                          journal_checkpoint_interval=0.5, seed=4,
                          stream=True).resolved()
        assert cfg.services == "djv"  # sorted; stream switches v on
        assert cfg.check_level == 0
        assert cfg.scheduler == "coroutine"
        assert cfg.journal_checkpoint_interval == 0.5
        assert cfg.seed == 4
        assert cfg.resolved() == cfg  # idempotent


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(scheduler="fibers"),
        dict(services="zq"),
        dict(check_level=7),
        dict(watchdog_timeout=-1.0),
        dict(watchdog_timeout=5.0, watchdog_action="panic"),
        dict(watchdog_action="abort"),  # action without timeout
        dict(recover="prayer"),
        dict(journal_checkpoint_interval=0.0),
        dict(clock_resolution=-1e-9),
        dict(allow_overrides=("seed",)),
    ])
    def test_bad_field_raises(self, bad):
        with pytest.raises(PilotError, match="BAD_CONFIG|BAD_OPTION"):
            PilotConfig(**bad).validate()

    def test_removed_thread_backend_is_named(self):
        with pytest.raises(PilotError, match="BAD_CONFIG.*thread-per-rank "
                                             "backend was removed"):
            PilotConfig(scheduler="threads")

    def test_valid_config_returns_self(self):
        cfg = PilotConfig(services="cdjs", scheduler="coroutine",
                          watchdog_timeout=1.0, watchdog_action="checkpoint",
                          allow_overrides=RESUME_GUARDED_FIELDS)
        assert cfg.validate() is cfg


class TestRunPilotPaths:
    def test_config_path_runs_clean_without_warnings(self, recwarn):
        res = run_pilot(tiny_main, 2, config=PilotConfig(check_level=1))
        assert res.ok and res.vmpi.results[0] == "done"
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_run_reads_the_resolved_config(self):
        cfg = PilotConfig(check_level=2, costs=PilotCosts(api_call=1e-6))
        res = run_pilot(tiny_main, 2, config=cfg)
        assert res.run.options == cfg.resolved()
        assert res.run.costs == cfg.costs

    def test_pi_flags_in_argv_are_an_error(self):
        with pytest.raises(PilotError, match="BAD_CONFIG.*from_argv"):
            run_pilot(tiny_main, 2, argv=("-picheck=1",))

    def test_config_plus_pi_argv_is_an_error(self):
        with pytest.raises(PilotError, match="from_argv"):
            run_pilot(tiny_main, 2, argv=("-pisvc=d",),
                      config=PilotConfig())

    def test_config_plus_legacy_kwarg_is_an_error(self):
        # The loose keywords are gone: their values live in the config.
        for legacy in (dict(options=None), dict(costs=PilotCosts()),
                       dict(seed=3), dict(faults=None)):
            with pytest.raises(TypeError, match="unexpected keyword"):
                run_pilot(tiny_main, 2, config=PilotConfig(), **legacy)

    def test_resume_rejects_config_and_options_together(self, tmp_path):
        with pytest.raises(TypeError, match="unexpected keyword"):
            resume_pilot(tiny_main, str(tmp_path / "nonexistent"),
                         config=PilotConfig(), options=None)

    def test_invalid_config_rejected_before_launch(self):
        with pytest.raises(PilotError, match="scheduler"):
            run_pilot(tiny_main, 2, config=PilotConfig(scheduler="nope"))

    def test_services_r_requires_journal_dir(self):
        with pytest.raises(PilotError, match="journal_dir"):
            run_pilot(tiny_main, 2, config=PilotConfig(services="r"))

    def test_capture_rejects_pi_flags_too(self):
        with pytest.raises(PilotError, match="BAD_CONFIG"):
            capture_program(tiny_main, 2, ("-pisvc=d",))
        captured = capture_program(tiny_main, 2,
                                   config=PilotConfig(services="d"))
        assert captured.options == PilotConfig(services="d").resolved()
