"""Property-style round-trips for HPLConfig.to_dict/from_dict/config_key.

The service's result cache and dedupe both ride on ``config_key`` being
a *content* hash: stable under dict reordering and enum-vs-value
representation, different under any semantic field change, and loud on
unknown keys.  These tests pin that contract.
"""

from __future__ import annotations

import dataclasses
import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    BcastVariant,
    HPLConfig,
    PFactVariant,
    Schedule,
    SwapVariant,
    config_key,
)
from repro.errors import ConfigError

configs = st.builds(
    HPLConfig,
    n=st.integers(min_value=1, max_value=4096),
    nb=st.integers(min_value=1, max_value=512),
    p=st.integers(min_value=1, max_value=8),
    q=st.integers(min_value=1, max_value=8),
    pfact=st.sampled_from(PFactVariant),
    rfact=st.sampled_from(PFactVariant),
    ndiv=st.integers(min_value=2, max_value=4),
    nbmin=st.integers(min_value=1, max_value=64),
    bcast=st.sampled_from(BcastVariant),
    swap=st.sampled_from(SwapVariant),
    swap_threshold=st.integers(min_value=0, max_value=512),
    schedule=st.sampled_from(Schedule),
    split_fraction=st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False),
    fact_threads=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
    row_major_grid=st.booleans(),
    check=st.booleans(),
)


class TestRoundTrip:
    @given(configs)
    def test_from_dict_inverts_to_dict(self, cfg):
        assert HPLConfig.from_dict(cfg.to_dict()) == cfg

    @given(configs)
    def test_key_survives_the_round_trip(self, cfg):
        assert HPLConfig.from_dict(cfg.to_dict()).config_key() \
            == cfg.config_key()

    @given(configs)
    def test_from_dict_accepts_enum_members_and_values_alike(self, cfg):
        as_values = cfg.to_dict()
        as_members = {
            k: getattr(cfg, k) for k in as_values
        }  # enum members, not strings
        assert HPLConfig.from_dict(as_members) == cfg
        assert HPLConfig.from_dict(as_members).config_key() \
            == config_key(as_values)


class TestKeyStability:
    @given(configs)
    def test_key_is_independent_of_dict_ordering(self, cfg):
        forward = cfg.to_dict()
        backward = dict(reversed(list(forward.items())))
        assert list(forward) != list(backward)  # genuinely reordered
        assert config_key(forward) == config_key(backward)

    @given(configs, st.randoms(use_true_random=False))
    def test_key_is_independent_of_shuffled_ordering(self, cfg, rand):
        items = list(cfg.to_dict().items())
        rand.shuffle(items)
        assert config_key(dict(items)) == cfg.config_key()

    @given(configs)
    def test_key_matches_raw_mapping_hash(self, cfg):
        assert cfg.config_key() == config_key(cfg.to_dict())


def _mutated(cfg: HPLConfig, name: str):
    """A config differing from ``cfg`` in exactly the field ``name``."""
    value = getattr(cfg, name)
    if isinstance(value, bool):
        return cfg.replace(**{name: not value})
    if isinstance(value, enum.Enum):
        alternatives = [m for m in type(value) if m is not value]
        return cfg.replace(**{name: alternatives[0]})
    if isinstance(value, float):
        return cfg.replace(**{name: value / 2 if value else 0.25})
    return cfg.replace(**{name: value + 1})


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(HPLConfig)]
)
def test_any_field_change_changes_the_key(field):
    cfg = HPLConfig(n=1024, nb=64, p=2, q=4, split_fraction=0.5)
    other = _mutated(cfg, field)
    assert getattr(other, field) != getattr(cfg, field)
    assert other.config_key() != cfg.config_key()


class TestUnknownKeys:
    def test_unknown_key_is_rejected(self):
        data = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        data["frobnicate"] = 1
        with pytest.raises(ConfigError, match="frobnicate"):
            HPLConfig.from_dict(data)

    def test_all_unknown_keys_are_named_in_the_error(self):
        data = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        data.update({"zeta": 1, "alpha": 2})
        with pytest.raises(ConfigError, match="alpha, zeta"):
            HPLConfig.from_dict(data)

    @given(st.text(min_size=1, max_size=20).filter(
        lambda s: s not in {f.name for f in dataclasses.fields(HPLConfig)}
    ))
    def test_no_stray_key_slips_through(self, stray):
        data = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        data[stray] = 0
        with pytest.raises(ConfigError, match="unknown HPLConfig field"):
            HPLConfig.from_dict(data)

    def test_invalid_enum_value_is_a_config_error(self):
        data = HPLConfig(n=64, nb=8, p=2, q=2).to_dict()
        data["bcast"] = "9ring"
        with pytest.raises(ConfigError, match="invalid bcast"):
            HPLConfig.from_dict(data)
