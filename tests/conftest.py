from __future__ import annotations

import pytest
from hypothesis import strategies as st

from rebel import retrieval
from rebel.core import (
    Assignment,
    HumanProfile,
    ItaPlan,
    MissionScenario,
    RobotKind,
    RobotProfile,
    TaskSpec,
    Tier,
)


def make_scenario(
    humans=(("H_0", Tier.MED, Tier.MED), ("H_1", Tier.LOW, Tier.HIGH)),
    robots=(("UAV_0", 13.0, Tier.LOW), ("UGV_0", 6.0, Tier.MED)),
    tasks=(("T_0", (900.0, 500.0), Tier.HIGH), ("T_1", (200.0, 700.0), Tier.LOW)),
    arena_side=2000.0,
) -> MissionScenario:
    return MissionScenario(
        humans=tuple(HumanProfile(i, cognition=c, skill=s) for i, c, s in humans),
        robots=tuple(
            RobotProfile(i, RobotKind.from_id(i), speed=v, camera_quality=q) for i, v, q in robots
        ),
        tasks=tuple(TaskSpec(i, loc, d) for i, loc, d in tasks),
        arena_side=arena_side,
    )


# integers past the float range, which `float()` refuses with OverflowError
HUGE_INTS = st.sampled_from([10**400, -(10**400), 2**1024])


def json_values(max_leaves: int = 6):
    """Any value `json.loads` can return, NaN, infinities and integers past
    the float range among them."""
    scalars = (
        st.none() | st.booleans() | st.text(max_size=6) | st.integers() | HUGE_INTS
        | st.floats()
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=max_leaves,
    )


# deeper than the interpreter's stack, so `json.loads` raises RecursionError
DEEPLY_NESTED = "[" * 100_000


@pytest.fixture
def top_rows_calls(monkeypatch):
    """The k of each `retrieval._top_rows` call made while the test runs."""
    calls = []
    real = retrieval._top_rows

    def counting(records, sections, query, k):
        calls.append(k)
        return real(records, sections, query, k)

    monkeypatch.setattr(retrieval, "_top_rows", counting)
    return calls


@pytest.fixture
def scenario() -> MissionScenario:
    return make_scenario()


@pytest.fixture
def shared_plan(scenario) -> ItaPlan:
    return ItaPlan(
        {
            "T_0": Assignment("UAV_0", "H_1"),
            "T_1": Assignment("UGV_0", "H_0"),
        }
    )


@pytest.fixture
def autonomous_plan(scenario) -> ItaPlan:
    return ItaPlan(
        {
            "T_0": Assignment("UAV_0"),
            "T_1": Assignment("UGV_0"),
        }
    )
