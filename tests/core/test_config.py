"""Tests for configuration validation and (de)serialization."""

import pytest

from repro.core.config import (
    MachineSpec,
    StopCondition,
    XingTianConfig,
    single_machine_config,
)
from repro.core.errors import ConfigError


def _valid_config(**overrides):
    base = dict(
        algorithm="impala",
        environment="CartPole",
        model="actor_critic",
        machines=[MachineSpec("m0", explorers=2, has_learner=True)],
        stop=StopCondition(max_seconds=1.0),
    )
    base.update(overrides)
    return XingTianConfig(**base)


class TestMachineSpec:
    def test_valid(self):
        MachineSpec("m0", explorers=4).validate()

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            MachineSpec("", explorers=1).validate()

    def test_negative_explorers_rejected(self):
        with pytest.raises(ConfigError):
            MachineSpec("m0", explorers=-1).validate()


class TestStopCondition:
    def test_needs_at_least_one_criterion(self):
        with pytest.raises(ConfigError):
            StopCondition().validate()

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            StopCondition(max_seconds=0).validate()
        with pytest.raises(ConfigError):
            StopCondition(total_env_steps=-5).validate()

    def test_target_return_alone_is_valid(self):
        StopCondition(target_return=100.0).validate()


class TestXingTianConfig:
    def test_valid_config_passes(self):
        _valid_config().validate()

    def test_exactly_one_learner_machine(self):
        config = _valid_config(
            machines=[
                MachineSpec("m0", explorers=1, has_learner=True),
                MachineSpec("m1", explorers=1, has_learner=True),
            ]
        )
        with pytest.raises(ConfigError, match="exactly one"):
            config.validate()

    def test_no_learner_machine_rejected(self):
        config = _valid_config(machines=[MachineSpec("m0", explorers=1)])
        with pytest.raises(ConfigError):
            config.validate()

    def test_duplicate_machine_names_rejected(self):
        config = _valid_config(
            machines=[
                MachineSpec("m0", explorers=1, has_learner=True),
                MachineSpec("m0", explorers=1),
            ]
        )
        with pytest.raises(ConfigError, match="duplicate"):
            config.validate()

    def test_zero_explorers_rejected(self):
        config = _valid_config(
            machines=[MachineSpec("m0", explorers=0, has_learner=True)]
        )
        with pytest.raises(ConfigError, match="explorer"):
            config.validate()

    def test_fragment_steps_positive(self):
        config = _valid_config(fragment_steps=0)
        with pytest.raises(ConfigError):
            config.validate()

    def test_missing_algorithm_rejected(self):
        config = _valid_config(algorithm="")
        with pytest.raises(ConfigError):
            config.validate()

    def test_agent_defaults_to_algorithm(self):
        assert _valid_config().agent_name == "impala"
        assert _valid_config(agent="custom").agent_name == "custom"

    def test_num_explorers_sums_machines(self):
        config = _valid_config(
            machines=[
                MachineSpec("m0", explorers=2, has_learner=True),
                MachineSpec("m1", explorers=3),
            ]
        )
        assert config.num_explorers == 5

    def test_explorer_names_are_machine_scoped(self):
        config = _valid_config(
            machines=[
                MachineSpec("m0", explorers=1, has_learner=True),
                MachineSpec("m1", explorers=2),
            ]
        )
        assert config.explorer_names() == [
            "m0.explorer-0",
            "m1.explorer-0",
            "m1.explorer-1",
        ]

    def test_roundtrip_through_dict(self):
        config = _valid_config(fragment_steps=123, seed=7)
        restored = XingTianConfig.from_dict(config.to_dict())
        assert restored.fragment_steps == 123
        assert restored.seed == 7
        assert restored.machines[0].name == "m0"
        assert restored.stop.max_seconds == 1.0

    def test_from_dict_validates(self):
        data = _valid_config().to_dict()
        data["fragment_steps"] = -1
        with pytest.raises(ConfigError):
            XingTianConfig.from_dict(data)

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"bogus": 1}, "'bogus'"),
            ({"telemetry": {"bogus": 1}}, "telemetry: unknown key(s) 'bogus'"),
            ({"stop": {"max_second": 1}}, "stop: unknown key(s) 'max_second'"),
            ({"supervision": {"x": 1}}, "supervision"),
            ({"coalescing": {"x": 1}}, "coalescing"),
            ({"flow_control": {"x": 1}}, "flow_control"),
            ({"machines": [{"name": "m", "gpu": 1}]}, "machines[]: unknown key(s) 'gpu'"),
        ],
    )
    def test_from_dict_names_an_unknown_key(self, bad, named):
        """Config files are outside input: a typo is a ConfigError that
        names the key, not a bare TypeError from a dataclass constructor."""
        data = {"algorithm": "ppo", "environment": "CartPole",
                "model": "actor_critic", **bad}
        with pytest.raises(ConfigError) as caught:
            XingTianConfig.from_dict(data)
        assert named in str(caught.value)

    def test_from_dict_missing_required_key_is_a_config_error(self):
        with pytest.raises(ConfigError, match="algorithm"):
            XingTianConfig.from_dict({"environment": "CartPole", "model": "qnet"})

    def test_from_dict_builds_every_nested_block(self):
        config = XingTianConfig.from_dict({
            "algorithm": "ppo", "environment": "CartPole", "model": "actor_critic",
            "stop": {"total_trained_steps": 10},
            "supervision": {"max_restarts": 1},
            "telemetry": {"sample_interval": 0.1},
            "coalescing": {"max_batch": 8},
            "flow_control": {"bulk_watermark": 64},
        })
        assert config.stop.total_trained_steps == 10
        assert config.supervision.max_restarts == 1
        assert config.telemetry.sample_interval == 0.1
        assert config.coalescing.max_batch == 8
        assert config.flow_control.bulk_watermark == 64
        assert XingTianConfig.from_dict(config.to_dict()) == config

    def test_from_dict_defaults(self):
        config = XingTianConfig.from_dict(
            {"algorithm": "ppo", "environment": "CartPole", "model": "actor_critic"}
        )
        assert config.num_explorers == 1
        assert config.stop.max_seconds == 10.0

    @pytest.mark.parametrize("block", ["telemetry", "flow_control"])
    def test_none_is_the_only_off_switch(self, block):
        assert getattr(_valid_config(), block) is None  # off by default
        with pytest.raises(ConfigError, match="enabled"):
            XingTianConfig.from_dict({
                "algorithm": "ppo", "environment": "CartPole",
                "model": "actor_critic", block: {"enabled": False},
            })


class TestSingleMachineConfig:
    def test_builds_and_validates(self):
        config = single_machine_config(
            "dqn", "CartPole", "qnet", explorers=3, stop=StopCondition(max_seconds=1)
        )
        assert config.num_explorers == 3
        assert config.learner_machine.name == "machine-0"

    def test_invalid_explorers_rejected(self):
        with pytest.raises(ConfigError):
            single_machine_config("dqn", "CartPole", "qnet", explorers=0)
