"""FaultPlan/FaultRule semantics and the deterministic trigger engine."""

import pytest

from repro.errors import ProtocolError
from repro.faults import FaultEvent, FaultInjector, FaultPlan, FaultRule


class TestRuleValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fault action"):
            FaultRule(action="explode")

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ProtocolError, match="occurrence"):
            FaultRule(action="drop", occurrence=0)

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_probability_range_enforced(self, probability):
        with pytest.raises(ProtocolError, match="probability"):
            FaultRule(action="drop", probability=probability)

    def test_delay_needs_a_duration(self):
        with pytest.raises(ProtocolError, match="delay_seconds"):
            FaultRule(action="delay")

    def test_crash_needs_a_victim(self):
        with pytest.raises(ProtocolError, match="victim"):
            FaultRule(action="crash")

    def test_crash_victim_precedence(self):
        rule = FaultRule(action="crash", party="S2", receiver="mediator")
        assert rule.crash_target == "S2"
        assert FaultRule(action="crash", receiver="S1").crash_target == "S1"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ProtocolError, match="unknown fault rule keys"):
            FaultRule.from_dict({"action": "drop", "when": "now"})

    def test_from_dict_requires_action(self):
        with pytest.raises(ProtocolError, match="missing its 'action'"):
            FaultRule.from_dict({"kind": "ping"})


class TestMatching:
    def test_none_matches_anything(self):
        assert FaultRule(action="drop").matches("a", "b", "k")

    def test_sender_receiver_kind(self):
        rule = FaultRule(action="drop", sender="a", receiver="b", kind="k")
        assert rule.matches("a", "b", "k")
        assert not rule.matches("x", "b", "k")
        assert not rule.matches("a", "x", "k")
        assert not rule.matches("a", "b", "x")

    def test_party_matches_either_side(self):
        rule = FaultRule(action="drop", party="S2")
        assert rule.matches("S2", "mediator", "k")
        assert rule.matches("mediator", "S2", "k")
        assert not rule.matches("mediator", "S1", "k")

    def test_session_matcher(self):
        rule = FaultRule(action="drop", session="sess-a")
        assert rule.matches("a", "b", "k", session="sess-a")
        assert not rule.matches("a", "b", "k", session="sess-b")
        # Traffic outside any session scope never matches a sessioned rule.
        assert not rule.matches("a", "b", "k", session=None)
        assert not rule.matches("a", "b", "k")

    def test_session_none_is_session_blind(self):
        rule = FaultRule(action="drop")
        assert rule.matches("a", "b", "k", session="sess-a")
        assert rule.matches("a", "b", "k", session=None)


class TestPlanSerialization:
    def test_json_roundtrip(self):
        plan = FaultPlan(seed=99, rules=(
            FaultRule(action="crash", party="S2", occurrence=2),
            FaultRule(action="delay", delay_seconds=0.5, probability=0.25,
                      max_triggers=0),
            FaultRule(action="drop", session="sess-a"),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_unknown_plan_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"seed": 1, "chaos": True})

    def test_seed_must_be_int(self):
        with pytest.raises(ProtocolError, match="seed"):
            FaultPlan.from_dict({"seed": "7"})

    def test_documented_example_plans_load(self):
        import pathlib

        plans = pathlib.Path(__file__).resolve().parents[2] / (
            "examples/faultplans"
        )
        loaded = [FaultPlan.load(str(path)) for path in plans.glob("*.json")]
        assert loaded, "the documented example plans must exist"


class TestInjector:
    def test_occurrence_fires_exactly_once_at_the_nth_match(self):
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(action="drop", occurrence=3),))
        )
        fired = [
            bool(injector.observe("transport", "a", "b", "k"))
            for _ in range(6)
        ]
        assert fired == [False, False, True, False, False, False]

    def test_max_triggers_caps_firing(self):
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(action="drop", max_triggers=2),))
        )
        fired = [
            bool(injector.observe("transport", "a", "b", "k"))
            for _ in range(5)
        ]
        assert fired == [True, True, False, False, False]

    def test_unlimited_triggers(self):
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(action="drop", max_triggers=0),))
        )
        assert all(
            injector.observe("transport", "a", "b", "k") for _ in range(5)
        )

    def test_site_filtering(self):
        """A duplicate rule is a frame-level fault: the transport site
        cannot enact it, so it neither fires nor counts there."""
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(action="duplicate", occurrence=1),))
        )
        assert injector.observe("transport", "a", "b", "k") == []
        assert injector.events == []
        assert len(injector.observe("proxy", "a", "b", "k")) == 1

    def test_unknown_site_rejected(self):
        injector = FaultInjector(FaultPlan())
        with pytest.raises(ValueError, match="unknown injection site"):
            injector.observe("carrier-pigeon", "a", "b", "k")

    def test_probability_is_seeded_and_reproducible(self):
        plan = FaultPlan(seed=1234, rules=(
            FaultRule(action="drop", probability=0.5, max_triggers=0),
        ))

        def run():
            injector = FaultInjector(plan)
            return [
                bool(injector.observe("transport", "a", "b", "k"))
                for _ in range(32)
            ]

        first, second = run(), run()
        assert first == second
        assert True in first and False in first  # actually probabilistic

    def test_event_log_text_is_byte_identical_across_runs(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(action="drop", probability=0.4, max_triggers=0),
            FaultRule(action="crash", party="b", occurrence=9),
        ))

        def run() -> str:
            injector = FaultInjector(plan)
            for index in range(12):
                injector.observe("transport", "a", "b", f"kind-{index % 3}")
            return injector.event_log_text()

        first, second = run(), run()
        assert first == second
        assert first.encode() == second.encode()

    def test_events_carry_no_timestamps(self):
        assert "timestamp" not in {
            field for field in FaultEvent.__dataclass_fields__
        }
        assert not any(
            "time" in field for field in FaultEvent.__dataclass_fields__
        )


class TestSessionAttribution:
    """Session-scoped rules and the deterministic-log session field."""

    def test_observe_filters_on_session(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(action="drop", session="sess-a", max_triggers=0),
        )))
        assert injector.observe("transport", "a", "b", "k", session="sess-b") == []
        assert injector.observe("transport", "a", "b", "k") == []
        fired = injector.observe("transport", "a", "b", "k", session="sess-a")
        assert [rule.action for rule in fired] == ["drop"]
        assert injector.events[-1].session == "sess-a"
        assert "session=sess-a" in injector.events[-1].summary()

    def test_session_blind_rule_logs_empty_session(self):
        # The event records the RULE's matcher, never the observed id:
        # session ids are random per run, and the fault log must stay
        # byte-identical across same-plan runs.
        injector = FaultInjector(FaultPlan(rules=(FaultRule(action="drop"),)))
        injector.observe("transport", "a", "b", "k", session="sess-random")
        assert injector.events[-1].session == ""
        assert "session=" not in injector.events[-1].summary()
