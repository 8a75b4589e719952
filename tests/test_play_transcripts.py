"""Pinned `play` sessions: every prompt, answer and printed line, in order,
plus the rendered match record, for scripted humans against the tablebase."""

import pytest

from mlcr.core import AllocationPlan, MultiLayerGraph, RobberSpec
from mlcr.generators import gen_grid
from mlcr.scripted import interactive_play


def path(n):
    edges = tuple((i, i + 1) for i in range(n - 1))
    return MultiLayerGraph(n=n, layers=(edges,), robber_spec=RobberSpec.UNION)


def grid4():
    return gen_grid(4)[0]


# name: (graph, allocation, human role, answers, max_rounds, transcript, record)
# Transcript entries are output lines, or a prompt followed by the answer.
# An answer of EOFError is the end of input: the prompt shows, nothing is read.
SESSIONS = {
    "robber_captured": (
        path(5), (1,), "robber", ["4", "4", "4", "4"], 6,
        [
            "cops placed at 0",
            "place robber> 4",
            "round 1: cops move to 1",
            "round 1, cops at 1; move robber from 4> 4",
            "round 2: cops move to 2",
            "round 2, cops at 2; move robber from 4> 4",
            "round 3: cops move to 3",
            "round 3, cops at 3; move robber from 4> 4",
            "round 4: cops move to 4",
            "captured at round 4",
        ],
        "MR1 graph=- alloc=1 cop=tablebase_cop robber=human seed=0 T=6\n"
        "0 P 4 0\n1 C 4 1\n1 R 4 1\n2 C 4 2\n2 R 4 2\n3 C 4 3\n3 R 4 3\n4 C 4 4\n"
        "OUTCOME CAPTURE 4\n",
    ),
    "cops_capture": (
        path(5), (1,), "cops", ["0", "1", "2", "3", "4"], 6,
        [
            "place 1 cops> 0",
            "robber placed at 2",
            "round 1, cops at 0, robber at 2; move cops> 1",
            "round 1: robber moves to 3",
            "round 2, cops at 1, robber at 3; move cops> 2",
            "round 2: robber moves to 4",
            "round 3, cops at 2, robber at 4; move cops> 3",
            "round 3: robber moves to 4",
            "round 4, cops at 3, robber at 4; move cops> 4",
            "captured at round 4",
        ],
        "MR1 graph=- alloc=1 cop=human robber=tablebase_robber seed=0 T=6\n"
        "0 P 2 0\n1 C 2 1\n1 R 3 1\n2 C 3 2\n2 R 4 2\n3 C 4 3\n3 R 4 3\n4 C 4 4\n"
        "OUTCOME CAPTURE 4\n",
    ),
    "reprompt": (
        path(3), (1,), "robber", ["9", "banana", "1 2", "2", "0", "quit"], 1,
        [
            "cops placed at 0",
            "place robber> 9",
            "illegal move, try again",
            "place robber> banana",
            "enter vertex ids, or 'quit'",
            "place robber> 1 2",
            "need 1 vertex id(s)",
            "place robber> 2",
            "round 1: cops move to 1",
            "round 1, cops at 1; move robber from 2> 0",
            "illegal move, try again",
            "round 1, cops at 1; move robber from 2> quit",
        ],
        "MR1 graph=- alloc=1 cop=tablebase_cop robber=human seed=0 T=1\n"
        "0 P 2 0\n1 C 2 1\nOUTCOME ABANDONED\n",
    ),
    "cops_quit": (
        path(5), (1,), "cops", ["0", "1", "quit"], 6,
        [
            "place 1 cops> 0",
            "robber placed at 2",
            "round 1, cops at 0, robber at 2; move cops> 1",
            "round 1: robber moves to 3",
            "round 2, cops at 1, robber at 3; move cops> quit",
        ],
        "MR1 graph=- alloc=1 cop=human robber=tablebase_robber seed=0 T=6\n"
        "0 P 2 0\n1 C 2 1\n1 R 3 1\nOUTCOME ABANDONED\n",
    ),
    "survived": (
        grid4(), (1, 1), "cops", ["0 15", "0 15", "0 15"], 2,
        [
            "place 2 cops> 0 15",
            "robber placed at 2",
            "round 1, cops at 0 15, robber at 2; move cops> 0 15",
            "round 1: robber moves to 2",
            "round 2, cops at 0 15, robber at 2; move cops> 0 15",
            "round 2: robber moves to 2",
        ],
        "MR1 graph=grid:4 alloc=1,1 cop=human robber=tablebase_robber seed=0 T=2\n"
        "0 P 2 0 15\n1 C 2 0 15\n1 R 2 0 15\n2 C 2 0 15\n2 R 2 0 15\nOUTCOME SURVIVED\n",
    ),
    "quit": (
        grid4(), (2, 0), "robber", ["quit"], 10_000,
        ["cops placed at 0 0", "place robber> quit"],
        "MR1 graph=grid:4 alloc=2,0 cop=tablebase_cop robber=human seed=0 T=10000\n"
        "OUTCOME ABANDONED\n",
    ),
    "end_of_input": (
        path(5), (1,), "cops", ["0", EOFError], 6,
        [
            "place 1 cops> 0",
            "robber placed at 2",
            "round 1, cops at 0, robber at 2; move cops> ",
            "",
        ],
        "MR1 graph=- alloc=1 cop=human robber=tablebase_robber seed=0 T=6\n"
        "0 P 2 0\nOUTCOME ABANDONED\n",
    ),
    "placement_capture": (
        path(3), (1,), "robber", ["0"], 3,
        ["cops placed at 0", "place robber> 0", "capture at placement"],
        "MR1 graph=- alloc=1 cop=tablebase_cop robber=human seed=0 T=3\n"
        "0 P 0 0\nOUTCOME CAPTURE 0\n",
    ),
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_play_transcript_is_pinned(name):
    g, counts, role, answers, max_rounds, transcript, record = SESSIONS[name]
    answers = iter(answers)
    log = []

    def fake_input(prompt):
        answer = next(answers)
        if answer is EOFError:
            log.append(prompt)
            raise EOFError
        log.append(prompt + answer)
        return answer

    rec = interactive_play(g, AllocationPlan(counts), role, fake_input, log.append, max_rounds=max_rounds)
    assert log == transcript
    assert rec.render() == record
    assert next(answers, None) is None  # every scripted answer was read
