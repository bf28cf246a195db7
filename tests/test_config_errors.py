"""HPLConfig / PerfConfig validation and the error hierarchy."""

from __future__ import annotations

import pytest

from repro.config import BcastVariant, HPLConfig, PFactVariant, Schedule
from repro.errors import (
    AbortError,
    CommError,
    ConfigError,
    DeadlockError,
    ReproError,
    ScheduleError,
    SingularMatrixError,
    SpmdError,
    VerificationError,
)
from repro.perf import PerfConfig


class TestConfig:
    def test_defaults_match_rochpl(self):
        cfg = HPLConfig(n=1024, nb=512, p=4, q=2)
        assert cfg.pfact is PFactVariant.RIGHT
        assert cfg.rfact is PFactVariant.RIGHT
        assert cfg.ndiv == 2 and cfg.nbmin == 16
        assert cfg.bcast is BcastVariant.ONE_RING_M
        assert cfg.schedule is Schedule.SPLIT_UPDATE
        assert cfg.split_fraction == 0.5
        assert cfg.depth == 1

    def test_derived_quantities(self):
        cfg = HPLConfig(n=100, nb=32, p=2, q=3)
        assert cfg.nranks == 6
        assert cfg.nblocks == 4  # ceil(100/32)
        assert cfg.total_flops == pytest.approx(2 / 3 * 100**3 + 1.5 * 100**2)

    def test_replace(self):
        cfg = HPLConfig(n=64, nb=8, p=2, q=2)
        cfg2 = cfg.replace(nb=16)
        assert cfg2.nb == 16 and cfg.nb == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(nb=0),
            dict(p=0),
            dict(q=0),
            dict(ndiv=1),
            dict(nbmin=0),
            dict(depth=2),
            dict(split_fraction=1.5),
            dict(split_fraction=-0.1),
            dict(fact_threads=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(n=64, nb=8, p=2, q=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            HPLConfig(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=0), dict(nb=0), dict(p=0), dict(q=0), dict(pl=0), dict(ql=0),
         dict(split_fraction=1.5), dict(split_fraction=-0.1),
         dict(fact_threads=-1), dict(swap_threshold=-1)],
    )
    def test_invalid_perf_config_rejected(self, kwargs):
        base = dict(n=1024, nb=128, p=2, q=2, pl=2, ql=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            PerfConfig(**base)

    def test_lookahead_needs_depth(self):
        with pytest.raises(ConfigError):
            HPLConfig(n=64, nb=8, p=2, q=2, schedule=Schedule.LOOKAHEAD, depth=0)

    def test_classic_with_depth_zero_ok(self):
        HPLConfig(n=64, nb=8, p=2, q=2, schedule=Schedule.CLASSIC, depth=0)

    def test_frozen(self):
        cfg = HPLConfig(n=64, nb=8, p=2, q=2)
        with pytest.raises(Exception):
            cfg.n = 128


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            CommError, DeadlockError, AbortError, ConfigError, ScheduleError,
            SingularMatrixError, VerificationError,
        ):
            assert issubclass(exc, ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_spmd_error_message_names_ranks(self):
        err = SpmdError({2: ValueError("x"), 0: KeyError("y")})
        assert "0, 2" in str(err)
        assert "KeyError" in str(err)  # lowest rank's error is summarized


class TestSerialization:
    def test_round_trip_preserves_every_field(self):
        cfg = HPLConfig(
            n=96, nb=16, p=2, q=3, pfact=PFactVariant.CROUT,
            bcast=BcastVariant.BLONG, schedule=Schedule.LOOKAHEAD,
            split_fraction=0.3, fact_threads=4, seed=7,
        )
        assert HPLConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_encodes_enums_by_value(self):
        d = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        assert d["pfact"] == "right"
        assert d["schedule"] == "split"
        assert all(not isinstance(v, Schedule) for v in d.values())

    def test_from_dict_accepts_enum_values_and_members(self):
        base = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        by_value = HPLConfig.from_dict({**base, "schedule": "lookahead"})
        by_member = HPLConfig.from_dict(
            {**base, "schedule": Schedule.LOOKAHEAD}
        )
        assert by_value == by_member

    def test_from_dict_rejects_unknown_fields(self):
        base = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        with pytest.raises(ConfigError, match="unknown"):
            HPLConfig.from_dict({**base, "does_not_exist": 1})

    def test_from_dict_rejects_bad_enum_value(self):
        base = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        with pytest.raises(ConfigError, match="schedule"):
            HPLConfig.from_dict({**base, "schedule": "bogus"})

    def test_from_dict_names_missing_fields_and_rejects_wrong_types(self):
        with pytest.raises(ConfigError, match="missing.*'nb', 'p', and 'q'"):
            HPLConfig.from_dict({"n": 64})
        with pytest.raises(ConfigError, match="invalid HPLConfig: '<' not"):
            HPLConfig.from_dict({"n": "64", "nb": 8, "p": 2, "q": 2})

    def test_config_key_is_stable_and_content_addressed(self):
        a = HPLConfig(n=64, nb=8, p=2, q=2)
        b = HPLConfig(n=64, nb=8, p=2, q=2)
        c = a.replace(nb=16)
        assert a.config_key() == b.config_key()
        assert a.config_key() != c.config_key()
        assert len(a.config_key()) == 64  # sha256 hex
