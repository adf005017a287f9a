"""Typed, unified run configuration: :class:`PilotConfig`.

``PilotConfig`` is the one description of a Pilot run: services, check
level, log paths, robustness machinery and simulation parameters, in
one frozen dataclass::

    from repro.pilot import PilotConfig, run_pilot

    cfg = PilotConfig(services="cdj", watchdog_timeout=5.0)
    run_pilot(main, nprocs=8, config=cfg)

Every field defaults to ``None`` meaning "not chosen here", so layered
sources (defaults < environment < flags < code) can be merged without
ambiguity.  :meth:`from_argv` owns Pilot's ``-pi*`` command-line
grammar (paper Section III.C), :meth:`from_env` reads the same grammar
from ``REPRO_PI_*`` variables and :meth:`to_argv` writes it back.
:meth:`resolved` fills in the runtime defaults once, at launch; a
running program reads that resolved config as ``PilotRun.options``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.pilot import errors as perr
from repro.pilot.errors import Diagnostic, PilotError
from repro.pilot.program import PilotCosts
from repro.pilot.services import parse_service_letters

# Manifest-recorded fields that resume_pilot refuses to silently
# replace; list them in ``allow_overrides`` to replace deliberately.
RESUME_GUARDED_FIELDS = ("watchdog_timeout", "watchdog_action", "recover")

# What an unset field means at run time (see PilotConfig.resolved).
# costs/network/skews/faults stay None: "no model given", which the
# journal manifest records by leaving the key out.
RUNTIME_DEFAULTS: dict[str, Any] = {
    "check_level": perr.CHECK_API,
    "native_log_path": "pilot_native.log",
    "mpe_log_path": "pilot_mpe.clog2",
    "mpe_available": True,  # "built with MPE" (conditional compilation)
    "journal_checkpoint_interval": 1e-3,  # virtual seconds
    "watchdog_action": "abort",
    "seed": 0,
    "clock_resolution": 1e-8,
}


def _bad_option(message: str) -> PilotError:
    return PilotError(Diagnostic("BAD_OPTION", message, None, -1))


def reject_pi_flags(argv: list[str] | tuple[str, ...], caller: str) -> None:
    """Refuse ``-pi*`` flags in a program's argv.

    Flags configure the run, not the program: they belong in a
    :class:`PilotConfig` (via :meth:`PilotConfig.from_argv`), never in
    what ``main`` receives.
    """
    flags = [arg for arg in argv if arg.startswith("-pi")]
    if flags:
        raise PilotError(Diagnostic(
            "BAD_CONFIG",
            f"{caller}: {flags[0]!r} in argv; parse -pi* flags with "
            "PilotConfig.from_argv(argv) and pass the resulting config=",
            None, -1))


@dataclass(frozen=True)
class PilotConfig:
    """One immutable description of a Pilot run.

    ``None`` always means "unset — use the runtime default"; an
    explicit value is remembered as explicit, which is what lets
    :func:`repro.pilot.resume_pilot` distinguish "the caller wants a
    different watchdog than the journal recorded" (an error unless
    listed in :attr:`allow_overrides`) from "the caller didn't say".
    """

    # -- rank scheduling ------------------------------------------------
    # Every rank runs on the coroutine scheduler; "coroutine" is the
    # only value accepted (see __post_init__).
    scheduler: str | None = None
    # -- services and checking (-pisvc= / -picheck=) ---------------------
    services: str | None = None  # service letters, e.g. "cdj"
    check_level: int | None = None
    # -- log destinations ----------------------------------------------
    native_log_path: str | None = None
    mpe_log_path: str | None = None
    mpe_available: bool | None = None
    # -- robustness machinery ------------------------------------------
    fault_plan_path: str | None = None
    # With services "r" the journal directory drives a verified replay.
    journal_dir: str | None = None
    journal_checkpoint_interval: float | None = None
    watchdog_timeout: float | None = None
    watchdog_action: str | None = None  # "abort" | "checkpoint"
    recover: str | None = None  # "msglog"
    # Live trace streaming (repro.stream): ``True`` arms the ``v``
    # service on any free port, an ``int`` arms it on that port.
    stream: bool | int | None = None
    # -- simulation parameters -----------------------------------------
    costs: PilotCosts | None = None
    network: Any | None = None  # NetworkModel
    seed: int | None = None
    clock_resolution: float | None = None
    skews: Mapping[int, Any] | None = None  # rank -> ClockSkew
    faults: Any | None = None  # FaultPlan
    # -- resume escape hatch -------------------------------------------
    # Guarded manifest fields this config may deliberately replace on
    # resume (e.g. resuming past a checkpoint-and-stop needs
    # ("watchdog_timeout",)).
    allow_overrides: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.scheduler not in (None, "coroutine"):
            raise PilotError(Diagnostic(
                "BAD_CONFIG",
                f"scheduler={self.scheduler!r}: the thread-per-rank backend "
                "was removed and every rank runs on the coroutine "
                "scheduler; leave scheduler unset", None, -1))

    # -- construction ---------------------------------------------------

    @classmethod
    def from_argv(cls, argv: list[str] | tuple[str, ...],
                  base: "PilotConfig | None" = None,
                  ) -> tuple["PilotConfig", list[str]]:
        """Strip Pilot's ``-pi*`` flags from ``argv`` into a config.

        Returns ``(config, leftover_argv)`` like PI_Configure(&argc,
        &argv) rewriting argv in C.  Flags layer on top of ``base``:
        every flag present wins, whatever its value; fields no flag
        sets are carried over unchanged.

        ``-pisvc=<letters>`` selects services (repeatable, letters
        accumulate), ``-picheck=<0..3>`` the error-check level,
        ``-pifault-plan=PATH`` a JSON fault plan, ``-pijournal=DIR``
        the journal, ``-piwatchdog=T[:abort|checkpoint]`` the progress
        watchdog, ``-pirecover=msglog|off`` in-run recovery and
        ``-pistream-port=N`` (with ``-pisvc=v``) the streaming port.
        """
        updates: dict[str, Any] = {}
        letters: set[str] | None = None
        stream_port = 0
        leftover: list[str] = []
        for arg in argv:
            flag, eq, value = arg.partition("=")
            if not eq:
                leftover.append(arg)
            elif flag == "-pisvc":
                letters = (letters or set()) | parse_service_letters(value)
            elif flag == "-pifault-plan":
                updates["fault_plan_path"] = value
            elif flag == "-pijournal":
                if not value:
                    raise _bad_option("-pijournal needs a directory")
                updates["journal_dir"] = value
            elif flag == "-piwatchdog":
                timeout_text, _, action = value.partition(":")
                try:
                    timeout = float(timeout_text)
                except ValueError:
                    raise _bad_option(
                        f"bad -piwatchdog timeout in {arg!r}") from None
                if timeout <= 0:
                    raise _bad_option(
                        f"-piwatchdog timeout must be > 0, got {timeout}")
                updates["watchdog_timeout"] = timeout
                # A bare timeout must not pin the action, or a resume
                # would see a phantom "abort"-vs-recorded conflict.
                if action:
                    if action not in ("abort", "checkpoint"):
                        raise _bad_option(
                            f"-piwatchdog action must be 'abort' or "
                            f"'checkpoint', got {action!r}")
                    updates["watchdog_action"] = action
            elif flag == "-pirecover":
                if value not in ("msglog", "off"):
                    raise _bad_option(
                        f"-pirecover must be 'msglog' or 'off', got {value!r}")
                updates["recover"] = None if value == "off" else value
            elif flag == "-pistream-port":
                try:
                    stream_port = int(value)
                except ValueError:
                    raise _bad_option(
                        f"bad -pistream-port value in {arg!r}") from None
                if not 0 <= stream_port <= 65535:
                    raise _bad_option(
                        f"-pistream-port must be 0..65535, got {stream_port}")
            elif flag == "-picheck":
                try:
                    check = int(value)
                except ValueError:
                    raise _bad_option(
                        f"bad -picheck value in {arg!r}") from None
                if not perr.CHECK_NONE <= check <= perr.CHECK_POINTERS:
                    raise _bad_option(f"-picheck must be 0..3, got {check}")
                updates["check_level"] = check
            else:
                leftover.append(arg)
        if letters is not None:
            updates["services"] = "".join(sorted(letters))
            if "v" in letters:
                updates["stream"] = stream_port or True
        cfg = dataclasses.replace(base or cls(), **updates)
        return cfg.validate(), leftover

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None,
                 base: "PilotConfig | None" = None) -> "PilotConfig":
        """Read ``REPRO_PI_*`` environment variables into a config.

        Recognised: ``REPRO_PI_SVC``,
        ``REPRO_PI_CHECK``, ``REPRO_PI_FAULT_PLAN``,
        ``REPRO_PI_JOURNAL``, ``REPRO_PI_WATCHDOG`` (``T[:action]``),
        ``REPRO_PI_RECOVER`` and ``REPRO_PI_STREAM_PORT`` (used when
        ``REPRO_PI_SVC`` includes ``v``) — the same grammar as the
        flags, so values are validated identically.
        """
        if environ is None:
            import os

            environ = os.environ
        argv = []
        for var, flag in (("REPRO_PI_SVC", "-pisvc"),
                          ("REPRO_PI_CHECK", "-picheck"),
                          ("REPRO_PI_FAULT_PLAN", "-pifault-plan"),
                          ("REPRO_PI_JOURNAL", "-pijournal"),
                          ("REPRO_PI_WATCHDOG", "-piwatchdog"),
                          ("REPRO_PI_RECOVER", "-pirecover"),
                          ("REPRO_PI_STREAM_PORT", "-pistream-port")):
            value = environ.get(var)
            if value:
                argv.append(f"{flag}={value}")
        cfg, _ = cls.from_argv(argv, base)
        return cfg

    def resolved(self) -> "PilotConfig":
        """This config with every unset runtime default filled in.

        The launcher resolves once; what a run reads afterwards
        (``PilotRun.options``) is always resolved.  ``services``
        becomes a sorted letter string that includes ``v`` whenever
        :attr:`stream` is on.  Resolving twice changes nothing.
        """
        letters = set(self.services or "")
        if self.stream:
            letters.add("v")
        filled = {name: value for name, value in RUNTIME_DEFAULTS.items()
                  if getattr(self, name) is None}
        return dataclasses.replace(self, services="".join(sorted(letters)),
                                   **filled)

    # -- derived facts --------------------------------------------------

    @property
    def needs_service_rank(self) -> bool:
        """The native log and deadlock detector share one dedicated rank
        (paper Section I: the central logging process is "the same one
        running the deadlock detector")."""
        services = self.services or ""
        return "c" in services or "d" in services

    @property
    def mpe_enabled(self) -> bool:
        """Jumpshot logging requested (``j``) and MPE built in."""
        return "j" in (self.services or "") and self.mpe_available is not False

    @property
    def stream_port(self) -> int:
        """Where the ``v`` service listens (0 = any free port)."""
        if self.stream is True or not self.stream:
            return 0
        return int(self.stream)

    @property
    def perf_snapshot_path(self) -> str:
        """Where the ``p`` service dumps its counters (next to the MPE log)."""
        base = self.mpe_log_path or RUNTIME_DEFAULTS["mpe_log_path"]
        return base + ".perf.json"

    # -- projection -----------------------------------------------------

    def to_argv(self) -> list[str]:
        """The flag-expressible subset of this config, as ``-pi*`` args.

        ``PilotConfig.from_argv(cfg.to_argv())`` reproduces every field
        a flag exists for; purely programmatic fields (``costs``,
        ``network``, ``seed``, ``skews``, ``faults``, the log paths)
        have no flag form and are omitted.
        """
        argv: list[str] = []
        if self.services:
            argv.append(f"-pisvc={''.join(sorted(self.services))}")
        if self.check_level is not None:
            argv.append(f"-picheck={self.check_level}")
        if self.fault_plan_path is not None:
            argv.append(f"-pifault-plan={self.fault_plan_path}")
        if self.journal_dir is not None:
            argv.append(f"-pijournal={self.journal_dir}")
        if self.watchdog_timeout is not None:
            spec = f"{self.watchdog_timeout}"
            if self.watchdog_action is not None:
                spec += f":{self.watchdog_action}"
            argv.append(f"-piwatchdog={spec}")
        if self.recover is not None:
            argv.append(f"-pirecover={self.recover}")
        if self.stream:
            if "v" not in (self.services or ""):
                argv.append("-pisvc=v")
            if self.stream is not True:
                argv.append(f"-pistream-port={int(self.stream)}")
        return argv

    # -- validation -----------------------------------------------------

    def validate(self) -> "PilotConfig":
        """Raise :class:`PilotError` on any out-of-range field; else self."""
        def bad(message: str) -> PilotError:
            return PilotError(Diagnostic("BAD_CONFIG", message, None, -1))

        if self.services is not None:
            parse_service_letters(self.services)  # raises on unknown letters
        if self.check_level is not None and not (
                perr.CHECK_NONE <= self.check_level <= perr.CHECK_POINTERS):
            raise bad(f"check_level must be 0..3, got {self.check_level}")
        if self.watchdog_timeout is not None and self.watchdog_timeout <= 0:
            raise bad(f"watchdog_timeout must be > 0, "
                      f"got {self.watchdog_timeout}")
        if self.watchdog_action is not None:
            if self.watchdog_action not in ("abort", "checkpoint"):
                raise bad(f"watchdog_action must be 'abort' or 'checkpoint', "
                          f"got {self.watchdog_action!r}")
            if self.watchdog_timeout is None:
                raise bad("watchdog_action without watchdog_timeout "
                          "arms nothing; set both")
        if self.recover is not None and self.recover != "msglog":
            raise bad(f"recover must be 'msglog', got {self.recover!r}")
        if self.stream is not None and not isinstance(self.stream, bool):
            if not isinstance(self.stream, int):
                raise bad(f"stream must be a bool or a port number, "
                          f"got {self.stream!r}")
            if not 0 <= self.stream <= 65535:
                raise bad(f"stream port must be 0..65535, got {self.stream}")
        if (self.journal_checkpoint_interval is not None
                and self.journal_checkpoint_interval <= 0):
            raise bad("journal_checkpoint_interval must be > 0, "
                      f"got {self.journal_checkpoint_interval}")
        if self.clock_resolution is not None and self.clock_resolution <= 0:
            raise bad(f"clock_resolution must be > 0, "
                      f"got {self.clock_resolution}")
        unknown = set(self.allow_overrides) - set(RESUME_GUARDED_FIELDS)
        if unknown:
            raise bad(f"allow_overrides only accepts "
                      f"{RESUME_GUARDED_FIELDS}, got {sorted(unknown)}")
        return self
