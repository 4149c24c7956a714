"""Tests for the deterministic fault-injection layer (exec/faults.py)."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import faults
from repro.exec.faults import FaultEntry, FaultPlan, load_plan, save_plan


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEntry(kind="explode")

    def test_bad_times_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEntry(kind="die-once", times=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEntry(kind="slow-worker", delay_s=-1.0)

    def test_empty_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_mapping({"entries": []})

    def test_unknown_entry_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_mapping(
                {"entries": [{"kind": "hang", "when": "later"}]}
            )

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_mapping({"entries": ["hang"], "seed": "x"})

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"kind": "die-once", "times": "x"}, "times"),
            ({"kind": "die-once", "times": 2.7}, "times"),
            ({"kind": "die-once", "times": True}, "times"),
            ({"kind": "slow-worker", "delay_s": "x"}, "delay_s"),
            ({"kind": "slow-worker", "delay_s": float("nan")}, "delay_s"),
            ({"kind": "slow-worker", "delay_s": True}, "delay_s"),
            ({"kind": "hang", "match": 5}, "match"),
        ],
        ids=["times-string", "times-float", "times-bool", "delay-string",
             "delay-nan", "delay-bool", "match-int"],
    )
    def test_entry_fields_are_not_coerced(self, entry, field):
        with pytest.raises(ConfigurationError, match=field):
            FaultPlan.from_mapping({"entries": [entry]})

    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            FaultPlan.from_mapping({"entries": ["hang"], "seed": True})

    def test_plan_file_with_nan_delay_refused(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"entries": [{"kind": "slow-worker", "delay_s": NaN}]}'
        )
        with pytest.raises(ConfigurationError, match="delay_s"):
            load_plan(path)

    def test_kind_string_shorthand(self):
        plan = FaultPlan.from_mapping({"entries": ["die-once", "hang"]})
        assert [e.kind for e in plan.entries] == ["die-once", "hang"]
        assert all(e.times == 1 for e in plan.entries)

    def test_mapping_round_trip(self):
        plan = FaultPlan(
            (
                FaultEntry("corrupt-result", times=2, match="abc"),
                FaultEntry("slow-worker", delay_s=0.5),
            ),
            seed=11,
        )
        assert FaultPlan.from_mapping(plan.as_mapping()) == plan


class TestArmingAndClaims:
    def test_save_plan_arms_one_token_per_firing(self, tmp_path):
        path = save_plan(
            FaultPlan(
                (FaultEntry("die-once", times=3), FaultEntry("hang"))
            ),
            tmp_path / "plan.json",
        )
        tokens = sorted(p.name for p in faults.tokens_dir(path).iterdir())
        assert tokens == [
            "000.000.token",
            "000.001.token",
            "000.002.token",
            "001.000.token",
        ]
        assert load_plan(path).entries[0].times == 3

    def test_resave_clears_stale_tokens(self, tmp_path):
        path = save_plan(
            FaultPlan((FaultEntry("die-once", times=3),)),
            tmp_path / "plan.json",
        )
        save_plan(FaultPlan((FaultEntry("hang"),)), path)
        assert [p.name for p in faults.tokens_dir(path).iterdir()] == [
            "000.000.token"
        ]

    def test_claim_is_exactly_once(self, tmp_path):
        path = save_plan(
            FaultPlan((FaultEntry("corrupt-result"),)),
            tmp_path / "plan.json",
        )
        assert faults._claim(path, 0, 0) is True
        assert faults._claim(path, 0, 0) is False

    def test_load_plan_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_plan(tmp_path / "nope.json")


@pytest.fixture
def armed(tmp_path, monkeypatch):
    """Arm a plan and point $REPRO_FAULT_PLAN at it."""

    def arm(*entries, seed=0):
        path = save_plan(
            FaultPlan(tuple(entries), seed=seed), tmp_path / "plan.json"
        )
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, str(path))
        return path

    return arm


class TestInjectionSites:
    def test_no_plan_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        faults.on_claim("anything")
        assert faults.reply_fault("anything") is None
        assert faults.journal_fault("anything") is None

    def test_slow_worker_fires_once_then_disarms(self, armed):
        armed(FaultEntry("slow-worker", delay_s=0.0))
        faults.on_claim("shard-a")  # claims the one firing; no delay
        assert faults.reply_fault("shard-a") is None

    def test_match_filter_gates_firing(self, armed):
        path = armed(FaultEntry("slow-worker", delay_s=0.0, match="xyz"))
        faults.on_claim("shard-a")  # no match: token stays armed
        assert len(list(faults.tokens_dir(path).iterdir())) == 1
        faults.on_claim("shard-xyz-1")
        assert len(list(faults.tokens_dir(path).iterdir())) == 0

    def test_reply_fault_mode_is_seeded(self, armed):
        armed(FaultEntry("corrupt-result"), seed=7)
        first = faults.reply_fault("shard-a")
        assert first in faults.CORRUPT_MODES
        # Re-arm the identical plan: same seeded choice every run.
        armed(FaultEntry("corrupt-result"), seed=7)
        assert faults.reply_fault("shard-b") == first

    def test_journal_fault_fraction_in_range(self, armed):
        armed(FaultEntry("torn-journal-write"), seed=3)
        torn = faults.journal_fault("line-context")
        assert torn is not None and 0.0 < torn < 1.0
        assert faults.journal_fault("line-context") is None


class TestCorruptReply:
    def reply(self):
        return {
            "v": 1,
            "kind": "result",
            "id": "k",
            "results": [
                {"times": {"data": "AAAA", "dtype": "f8", "shape": [0]}},
                {"times": {"data": "BBBB", "dtype": "f8", "shape": [0]}},
            ],
        }

    def test_truncate_drops_last_result(self):
        out = faults.corrupt_reply(self.reply(), "truncate")
        assert len(out["results"]) == 1

    def test_garble_breaks_base64(self):
        out = faults.corrupt_reply(self.reply(), "garble")
        assert len(out["results"]) == 2
        assert out["results"][0]["times"]["data"] == "!!not-base64!!"
        # The original message is not mutated.
        assert self.reply()["results"][0]["times"]["data"] == "AAAA"

    def test_empty_results_still_invalidated(self):
        out = faults.corrupt_reply({"results": []}, "garble")
        assert out["results"] == [{"corrupt": True}]
