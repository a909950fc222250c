"""Configuration: defaults, validation error paths with dotted names,
YAML loading, serialization round-trips, and the reserved-word alias."""

import json
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdtp.cli import main
from sdtp.config import (
    ArfConfig,
    CdiConfig,
    ComplexityConfig,
    ConfigurationError,
    IspConfig,
    PipelineConfig,
    config_from_dict,
    load_config,
)

DEFAULT_YAML = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


class TestDefaults:
    def test_default_config_valid(self):
        """A bare PipelineConfig passes its own validation."""
        cfg = PipelineConfig()
        assert cfg.variant == "sdtp"
        assert cfg.arf.tau == 2.0
        assert cfg.arf.mode == "arf"
        assert cfg.isp.rates == (1, 3, 6)
        assert cfg.cdi.lam == 0.01
        assert cfg.cdi.levels == (2, 3, 4, 5)

    def test_level_dims_ceil_halving(self):
        """Dims start at base_hw on the shallowest level and ceil-halve."""
        cfg = PipelineConfig(base_hw=(9, 7))
        dims = cfg.level_dims()
        assert dims[2] == (9, 7)
        assert dims[3] == (5, 4)
        assert dims[4] == (3, 2)
        assert dims[5] == (2, 1)

    def test_single_input_level_parse(self):
        """single_input_<k> exposes k; other variants expose None."""
        assert PipelineConfig(variant="single_input_3").single_input_level() == 3
        assert PipelineConfig().single_input_level() is None


class TestValidation:
    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError, match="variant"):
            PipelineConfig(variant="resnet")

    def test_single_input_outside_levels(self):
        with pytest.raises(ConfigurationError, match="single_input"):
            PipelineConfig(variant="single_input_2",
                           cdi=CdiConfig(levels=(4, 5)))

    def test_heads_must_divide(self):
        with pytest.raises(ConfigurationError, match="isp.heads"):
            PipelineConfig(channels=6, isp=IspConfig(heads=4))

    def test_rates_must_start_with_one(self):
        with pytest.raises(ConfigurationError, match="isp.rates"):
            PipelineConfig(isp=IspConfig(rates=(2, 3)))

    def test_rates_must_not_repeat(self):
        """A repeated rate would build two state convs of one name, which
        named_params and gradcheck's per-name report would fold together."""
        with pytest.raises(ConfigurationError, match=r"isp.rates must not repeat a rate, got \[1, 1, 3\]"):
            config_from_dict({"isp": {"rates": [1, 1, 3]}})

    def test_levels_must_be_consecutive(self):
        with pytest.raises(ConfigurationError, match="cdi.levels"):
            PipelineConfig(cdi=CdiConfig(levels=(2, 4)))

    def test_levels_range(self):
        with pytest.raises(ConfigurationError, match="cdi.levels"):
            PipelineConfig(cdi=CdiConfig(levels=(5, 6)))

    def test_negative_lambda(self):
        with pytest.raises(ConfigurationError, match="lambda"):
            PipelineConfig(cdi=CdiConfig(lam=-0.5))

    def test_negative_tau(self):
        with pytest.raises(ConfigurationError, match="arf.tau"):
            config_from_dict({"arf": {"tau": -1.0}})

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError, match="arf.mode"):
            config_from_dict({"arf": {"mode": "relu"}})

    def test_bool_is_not_int(self):
        """Booleans are rejected where integers are expected."""
        with pytest.raises(ConfigurationError, match="seed"):
            PipelineConfig(seed=True)

    def test_bad_hw(self):
        with pytest.raises(ConfigurationError, match="base_hw"):
            PipelineConfig(base_hw=(4,))

    @pytest.mark.parametrize("call,match", [
        (lambda: PipelineConfig(channels=10, isp=IspConfig(heads=2), cdi=CdiConfig(heads=4)),
         r"cdi.heads: 4 does not divide channels=10"),
        (lambda: config_from_dict({"cdi": {"levels": [3, 3]}}),
         r"cdi.levels: levels must be strictly ascending, got \[3, 3\]"),
        (lambda: config_from_dict([1, 2]), r"config root must be a mapping, got list"),
        (lambda: config_from_dict({"isp": 3}), r"isp: expected a mapping, got 3"),
        (lambda: config_from_dict({"cdi": {"levels": []}}),
         r"cdi.levels: needs at least one level, got \[\]"),
        (lambda: config_from_dict({"train": {"levels": []}}),
         r"train.levels: needs at least one level, got \[\]"),
        (lambda: config_from_dict({"complexity": {"dims": [], "strides": []}}),
         r"complexity.dims: needs at least one level, got \[\]"),
    ], ids=["cdi_heads", "cdi_levels_repeat", "root_not_mapping", "section_not_mapping",
            "cdi_levels_empty", "train_levels_empty", "complexity_dims_empty"])
    def test_error_names_the_field(self, call, match):
        with pytest.raises(ConfigurationError, match=match):
            call()

    def test_strides_dims_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="complexity.strides"):
            PipelineConfig(complexity=ComplexityConfig(
                dims=((4, 4), (2, 2)), strides=(1,)))


class TestLoading:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            config_from_dict({"chanels": 8})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigurationError, match="cdi.head_count"):
            config_from_dict({"cdi": {"head_count": 4}})

    def test_lambda_alias(self):
        """The YAML key 'lambda' populates the lam field."""
        cfg = config_from_dict({"cdi": {"lambda": 0.25}})
        assert cfg.cdi.lam == 0.25

    def test_field_name_lam_rejected(self):
        """Only the serialised key 'lambda' sets the penalty weight; the
        Python field name is an unknown key, so the two can never clash."""
        for raw in ({"cdi": {"lam": 0.5}}, {"cdi": {"lambda": 0.25, "lam": 0.5}}):
            with pytest.raises(ConfigurationError, match=r"cdi\.lam: unknown config key"):
                config_from_dict(raw)

    def test_lists_become_tuples(self):
        cfg = config_from_dict({"isp": {"rates": [1, 2, 4]}, "base_hw": [16, 12]})
        assert cfg.isp.rates == (1, 2, 4)
        assert cfg.base_hw == (16, 12)

    def test_yaml_file_round_trip(self, tmp_path):
        """A YAML file loads into the same values it was written from."""
        p = tmp_path / "c.yaml"
        p.write_text(
            "variant: fpn_baseline\nchannels: 16\n"
            "arf:\n  tau: 1.5\n  mode: tanh\n"
            "cdi:\n  heads: 4\n  lambda: 0.02\n  levels: [3, 4, 5]\n")
        cfg = load_config(p)
        assert cfg.variant == "fpn_baseline"
        assert cfg.channels == 16
        assert cfg.arf.tau == 1.5
        assert cfg.arf.mode == "tanh"
        assert cfg.cdi.heads == 4
        assert cfg.cdi.lam == 0.02
        assert cfg.cdi.levels == (3, 4, 5)

    def test_json_parses_as_yaml(self, tmp_path):
        """JSON files load through the same path."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"channels": 32, "isp": {"heads": 4}}))
        assert load_config(p).channels == 32

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config("/nonexistent/nowhere.yaml")

    def test_directory_is_config_error(self, tmp_path):
        """A path that names a directory is a config error naming it, not
        an IsADirectoryError."""
        want = re.escape(f"config file {tmp_path} cannot be read")
        with pytest.raises(ConfigurationError, match=want):
            load_config(tmp_path)

    def test_non_utf8_file_is_config_error(self, tmp_path):
        """A file whose bytes are not UTF-8 is a config error naming it,
        not a UnicodeDecodeError."""
        p = tmp_path / "utf16.yaml"
        p.write_bytes(b"\xff\xfec\x00h\x00")
        want = re.escape(f"config file {p} is not UTF-8")
        with pytest.raises(ConfigurationError, match=want):
            load_config(p)

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("foo: [unclosed")
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_config(p)

    def test_none_gives_defaults(self):
        assert load_config(None).channels == PipelineConfig().channels

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_config(p).variant == "sdtp"


class TestSerialization:
    def test_dict_round_trip(self):
        """to_dict -> config_from_dict reproduces every field."""
        cfg = PipelineConfig(variant="dilated_c5", channels=32, seed=9,
                             isp=IspConfig(rates=(1, 2), heads=4),
                             cdi=CdiConfig(heads=8, lam=0.5, levels=(3, 4, 5)))
        back = config_from_dict(cfg.to_dict())
        assert back == cfg

    def test_dump_is_json(self):
        """to_dict dumps to JSON with the lambda alias in the field's place."""
        d = json.loads(json.dumps(PipelineConfig().to_dict()))
        assert d["cdi"]["lambda"] == 0.01
        assert "lam" not in d["cdi"]
        assert list(d["cdi"]) == ["heads", "lambda", "levels"]

    def test_default_yaml_is_the_default_config(self):
        """configs/default.yaml loads to PipelineConfig() and shows every field."""
        raw = yaml.safe_load(DEFAULT_YAML.read_text())
        assert config_from_dict(raw) == PipelineConfig()
        assert leaf_paths(raw) == FIELD_PATHS


class TestDerivedConfigs:
    def test_shrink_keeps_structure_knobs(self):
        """shrink changes only the dims and the head counts they force."""
        base = PipelineConfig(arf=ArfConfig(tau=3.0, mode="tanh"),
                              isp=IspConfig(heads=8), cdi=CdiConfig(heads=4))
        small = base.shrink(6, (8, 8), (4, 5))
        assert (small.channels, small.in_channels, small.base_hw) == (6, 6, (8, 8))
        assert small.cdi.levels == (4, 5)
        assert (small.isp.heads, small.cdi.heads) == (6, 3)
        assert small.arf == base.arf and small.isp.rates == base.isp.rates
        assert small.cdi.lam == base.cdi.lam
        small.arf.tau = 1.0
        assert base.arf.tau == 3.0

    def test_for_train_keeps_each_stage_heads(self):
        """The toy run fits each stage's own head count, so cdi.heads acts."""
        base = PipelineConfig(isp=IspConfig(heads=8), cdi=CdiConfig(heads=2))
        toy = PipelineConfig.for_train(base)
        assert (toy.isp.heads, toy.cdi.heads) == (8, 2)

    def test_for_train_fits_heads(self):
        """The train view picks a head count dividing the toy width."""
        cfg = PipelineConfig.for_train(PipelineConfig())
        assert cfg.channels == cfg.in_channels == PipelineConfig().train.channels
        assert cfg.channels % cfg.isp.heads == 0


def leaf_paths(d: dict, prefix: str = "") -> list[str]:
    """Dotted paths of the non-mapping values in a nested mapping."""
    out = []
    for k, v in d.items():
        out += leaf_paths(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]
    return out


# every config field by its YAML path, as config_from_dict reads it
FIELD_PATHS = leaf_paths(PipelineConfig().to_dict())

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                   st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=3),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(FIELD_PATHS), value=VALUES)
def test_malformed_value_names_its_field(tmp_path, capsys, path, value):
    """Property: one field set to any value either loads, or raises a
    ConfigurationError naming that field, and the CLI then exits 2."""
    head, _, tail = path.partition(".")
    raw = {head: {tail: value}} if tail else {head: value}
    try:
        config_from_dict(raw)
    except ConfigurationError as exc:
        assert path in str(exc)
    else:
        return
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert main(["flops", "--config", str(cfg)]) == 2
    assert path in capsys.readouterr().err
