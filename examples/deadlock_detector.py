#!/usr/bin/env python
"""Pilot's integrated deadlock detector in action.

A classic novice mistake: PI_MAIN reads the worker's answer before
sending the question, while the worker waits for the question before
answering.  With ``-pisvc=d`` the dedicated service rank builds a
wait-for graph from blocking events and, when everything stalls, names
the circular wait down to the source lines — "diagnostics ... that
pinpoint the problem right to the line of source code".

Run:  python examples/deadlock_detector.py
"""

from repro.pilot import (
    PI_MAIN,
    PI_Configure,
    PI_CreateChannel,
    PI_CreateProcess,
    PI_Read,
    PI_SetName,
    PI_StartAll,
    PI_StopMain,
    PI_Write,
    PilotConfig,
    run_pilot,
)


def buggy_main(argv):
    chans = {}

    def worker(index, _arg2):
        question = PI_Read(chans["ask"], "%d")  # waits for PI_MAIN...
        PI_Write(chans["answer"], "%d", int(question) * 2)
        return 0

    PI_Configure(argv)
    p = PI_CreateProcess(worker, 0)
    PI_SetName(p, "Doubler")
    chans["ask"] = PI_CreateChannel(PI_MAIN, p)
    PI_SetName(chans["ask"], "ask")
    chans["answer"] = PI_CreateChannel(p, PI_MAIN)
    PI_SetName(chans["answer"], "answer")
    PI_StartAll()

    # BUG: the read and the write are in the wrong order.
    answer = PI_Read(chans["answer"], "%d")  # ...while PI_MAIN waits here
    PI_Write(chans["ask"], "%d", 21)
    print("the answer is", answer)
    PI_StopMain(0)


if __name__ == "__main__":
    result = run_pilot(buggy_main, nprocs=3, config=PilotConfig(services="d"))
    print(f"\nrun aborted: {result.aborted is not None}")
    for diag in result.diagnostics.entries:
        print(diag.render())
    print("\nSwap the PI_Read/PI_Write pair in buggy_main to fix it.")
